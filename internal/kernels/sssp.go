package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
)

// SSSPNF is near-far single-source shortest paths (sssp-nf): relaxations
// below the current threshold go to the near list and are processed this
// band; the rest accumulate in the far list and are promoted when the band
// drains, with the threshold advanced by DELTA. As in the paper, DELTA is
// input-specific (Params picks it from the graph's weight scale).
func SSSPNF() *Benchmark {
	prog := &ir.Program{
		Name: "sssp-nf",
		Arrays: []ir.ArrayDecl{
			{Name: "dist", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplatExceptSrc, InitI: Inf, SrcVal: 0},
		},
		WLInit:     ir.WLSrc,
		WLCapEdges: true,
		Kernels: []*ir.Kernel{{
			Name:    "relax",
			Domain:  ir.DomainWL,
			ItemVar: "node",
			Body: []ir.Stmt{
				ir.DeclI("d", ir.Ld("dist", ir.V("node"))),
				// Stale entries (dist improved since push) still relax
				// correctly: d rereads the current distance.
				ir.ForE("e", ir.V("node"),
					ir.DeclI("dst", &ir.EdgeDst{Edge: ir.V("e")}),
					ir.DeclI("nd", ir.AddE(ir.V("d"), &ir.EdgeWt{Edge: ir.V("e")})),
					// Test-and-test-and-set around the relaxation atomic.
					ir.IfS(ir.GtE(ir.Ld("dist", ir.V("dst")), ir.V("nd")),
						&ir.AtomicMin{Arr: "dist", Idx: ir.V("dst"), Val: ir.V("nd"), Success: "won"},
						ir.IfS(ir.V("won"),
							ir.IfElse(ir.LtE(ir.V("nd"), ir.P("threshold")),
								[]ir.Stmt{ir.PushTo("near", ir.V("dst"))},
								[]ir.Stmt{ir.PushTo("far", ir.V("dst"))},
							),
						),
					),
				),
			},
		}},
		Pipe:          []ir.PipeStmt{&ir.LoopNearFar{Kernel: "relax", DeltaParam: "delta"}},
		DefaultParams: map[string]int32{"delta": 32},
	}
	return &Benchmark{
		Name: "sssp-nf",
		Prog: prog,
		Params: func(g *graph.CSR) map[string]int32 {
			// DELTA ~ average weight: one band covers roughly one hop on
			// typical paths, the standard near-far setting.
			var maxW int32 = 1
			for _, w := range g.Weight {
				if w > maxW {
					maxW = w
				}
			}
			return map[string]int32{"delta": maxW / 2}
		},
		Reference: func(g *graph.CSR, _ map[string]int32, src int32) *RunOutput {
			return &RunOutput{I: map[string][]int32{"dist": RefSSSP(g, src)}}
		},
		Verify: func(g *graph.CSR, get func(string) []int32, _ func(string) []float32, src int32) error {
			want := RefSSSP(g, src)
			got := get("dist")
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("sssp dist of node %d = %d, want %d", i, got[i], want[i])
				}
			}
			return nil
		},
	}
}

// RefSSSP is Dijkstra's algorithm, the serial reference for sssp-nf.
func RefSSSP(g *graph.CSR, src int32) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.NumNodes() {
		return dist
	}
	dist[src] = 0
	pq := make(nodeHeap, 0, len(dist))
	pq.push(nodeDist{src, 0})
	for len(pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.n] {
			continue
		}
		for e := g.RowPtr[it.n]; e < g.RowPtr[it.n+1]; e++ {
			d := g.EdgeDst[e]
			nd := it.d + g.EdgeWeight(e)
			if nd < dist[d] {
				dist[d] = nd
				pq.push(nodeDist{d, nd})
			}
		}
	}
	return dist
}

type nodeDist struct {
	n int32
	d int32
}

// nodeHeap is a binary min-heap on d. It is typed rather than a
// container/heap.Interface so that push and pop box nothing.
type nodeHeap []nodeDist

func (h *nodeHeap) push(x nodeDist) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].d <= x.d {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

func (h *nodeHeap) pop() nodeDist {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].d < s[c].d {
			c++
		}
		if last.d <= s[c].d {
			break
		}
		s[i] = s[c]
		i = c
	}
	if len(s) > 0 {
		s[i] = last
	}
	return top
}
