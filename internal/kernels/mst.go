package kernels

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
)

// mstEdgeBits encodes a (weight, edge-index) pair as weight<<24 | edge so a
// single AtomicMin selects each component's minimum outgoing edge with a
// deterministic tie-break. mstNone, the "no outgoing edge" sentinel, sits
// above every key mstKeysFit admits.
const (
	mstEdgeBits       = 24
	mstNone     int32 = math.MaxInt32
)

// mstKeysFit reports, as a fault.ErrUnsupportedInput, an input whose packed
// keys the selection cannot order: a negative weight, an edge index past the
// 24-bit field, or a key that reaches mstNone.
func mstKeysFit(g *graph.CSR) error {
	for e := int32(0); e < g.NumEdges(); e++ {
		w := int64(g.EdgeWeight(e))
		if w < 0 || e >= 1<<mstEdgeBits || w<<mstEdgeBits|int64(e) >= int64(mstNone) {
			return fmt.Errorf("mst: edge %d (weight %d) does not fit the weight<<%d|edge selection key: %w",
				e, w, mstEdgeBits, fault.ErrUnsupportedInput)
		}
	}
	return nil
}

// MST is Boruvka's minimum spanning forest: every round each component
// selects its minimum-weight outgoing edge (atomic min over an encoded
// weight|edge key), larger-rooted components graft onto smaller roots —
// which breaks mutual-selection cycles — and pointer jumping recompresses
// labels. The total forest weight accumulates in "mstwt". Requires a
// symmetrized input.
func MST() *Benchmark {
	inf := mstNone
	prog := &ir.Program{
		Name: "mst",
		Arrays: []ir.ArrayDecl{
			{Name: "comp", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitIota},
			{Name: "minedge", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplat, InitI: inf},
			{Name: "mstwt", T: ir.I32, Size: ir.SizeOne, Init: ir.InitZero},
			{Name: "changed", T: ir.I32, Size: ir.SizeOne, Init: ir.InitZero},
		},
		Kernels: []*ir.Kernel{
			{
				Name:    "reset",
				Domain:  ir.DomainNodes,
				ItemVar: "n",
				Body:    []ir.Stmt{ir.St("minedge", ir.V("n"), ir.CI(inf))},
			},
			{
				Name:    "findmin",
				Domain:  ir.DomainNodes,
				ItemVar: "n",
				Body: []ir.Stmt{
					ir.DeclI("cn", ir.Ld("comp", ir.V("n"))),
					ir.ForE("e", ir.V("n"),
						ir.DeclI("cd", ir.Ld("comp", &ir.EdgeDst{Edge: ir.V("e")})),
						ir.IfS(ir.NeE(ir.V("cn"), ir.V("cd")),
							ir.DeclI("enc", ir.B(ir.Or,
								ir.B(ir.Shl, &ir.EdgeWt{Edge: ir.V("e")}, ir.CI(mstEdgeBits)),
								ir.V("e"))),
							&ir.AtomicMin{Arr: "minedge", Idx: ir.V("cn"), Val: ir.V("enc")},
						),
					),
				},
			},
			{
				Name:    "union",
				Domain:  ir.DomainNodes,
				ItemVar: "n",
				Body: []ir.Stmt{
					ir.IfS(ir.EqE(ir.Ld("comp", ir.V("n")), ir.V("n")), // roots only
						ir.DeclI("me", ir.Ld("minedge", ir.V("n"))),
						ir.IfS(ir.NeE(ir.V("me"), ir.CI(inf)),
							ir.DeclI("eidx", ir.B(ir.And, ir.V("me"), ir.CI(1<<mstEdgeBits-1))),
							ir.DeclI("other", ir.Ld("comp", &ir.EdgeDst{Edge: ir.V("eidx")})),
							ir.IfS(ir.LtE(ir.V("other"), ir.V("n")),
								ir.St("comp", ir.V("n"), ir.V("other")),
								&ir.AccumAdd{Acc: "mstwt", Val: ir.B(ir.Shr, ir.V("me"), ir.CI(mstEdgeBits))},
								&ir.SetFlag{Flag: "changed"},
							),
						),
					),
				},
			},
			{
				Name:    "compress",
				Domain:  ir.DomainNodes,
				ItemVar: "n",
				Body: []ir.Stmt{
					ir.WhileS(ir.NeE(ir.Ld("comp", ir.Ld("comp", ir.V("n"))), ir.Ld("comp", ir.V("n"))),
						ir.St("comp", ir.V("n"), ir.Ld("comp", ir.Ld("comp", ir.V("n")))),
					),
				},
			},
		},
		Pipe: []ir.PipeStmt{&ir.LoopFlag{
			Flag: "changed",
			Body: []ir.PipeStmt{
				&ir.Invoke{Kernel: "reset"},
				&ir.Invoke{Kernel: "findmin"},
				&ir.Invoke{Kernel: "union"},
				&ir.Invoke{Kernel: "compress"},
			},
		}},
	}
	return &Benchmark{
		Name:           "mst",
		Prog:           prog,
		NeedsSymmetric: true,
		DenseSweep:     true,
		Check:          mstKeysFit,
		Reference: func(g *graph.CSR, _ map[string]int32, _ int32) *RunOutput {
			return &RunOutput{I: map[string][]int32{
				"mstwt": {RefMST(g)},
				"comp":  RefCC(g),
			}}
		},
		Verify: func(g *graph.CSR, get func(string) []int32, _ func(string) []float32, _ int32) error {
			got := get("mstwt")[0]
			want := RefMST(g)
			if got != want {
				return fmt.Errorf("mst total weight = %d, want %d", got, want)
			}
			// The final labeling must also be a valid partition into the
			// reference components (a spanning forest spans components).
			comp := get("comp")
			ref := RefCC(g)
			for u := int32(0); u < g.NumNodes(); u++ {
				for _, v := range g.Neighbors(u) {
					if (comp[u] == comp[v]) != (ref[u] == ref[v]) {
						return fmt.Errorf("mst components disagree on edge %d-%d", u, v)
					}
				}
			}
			return nil
		},
	}
}

// RefMST computes the minimum spanning forest weight with Kruskal's
// algorithm. All minimum spanning forests share the same total weight, so
// the comparison is tie-break independent.
func RefMST(g *graph.CSR) int32 {
	type we struct {
		w    int32
		u, v int32
	}
	edges := make([]we, 0, g.NumEdges())
	for u := int32(0); u < g.NumNodes(); u++ {
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			v := g.EdgeDst[e]
			if u < v { // each undirected edge once
				edges = append(edges, we{g.EdgeWeight(e), u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]int32, g.NumNodes())
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total int32
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			total += e.w
		}
	}
	return total
}
