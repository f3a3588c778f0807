package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
)

// BFSWL is the worklist BFS (bfs-wl): pop frontier nodes, relax neighbors
// with an atomic min, push improved nodes. The paper's headline variant for
// framework comparisons.
func BFSWL() *Benchmark {
	prog := &ir.Program{
		Name: "bfs-wl",
		Arrays: []ir.ArrayDecl{
			{Name: "lvl", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplatExceptSrc, InitI: Inf, SrcVal: 0},
		},
		WLInit:     ir.WLSrc,
		WLCapEdges: true,
		Kernels: []*ir.Kernel{{
			Name:    "bfs",
			Domain:  ir.DomainWL,
			ItemVar: "node",
			Body: []ir.Stmt{
				ir.DeclI("d", ir.Ld("lvl", ir.V("node"))),
				ir.ForE("e", ir.V("node"),
					ir.DeclI("dst", &ir.EdgeDst{Edge: ir.V("e")}),
					ir.DeclI("nd", ir.AddE(ir.V("d"), ir.CI(1))),
					// Test-and-test-and-set: a plain load filters edges
					// before paying for the atomic.
					ir.IfS(ir.GtE(ir.Ld("lvl", ir.V("dst")), ir.V("nd")),
						&ir.AtomicMin{Arr: "lvl", Idx: ir.V("dst"), Val: ir.V("nd"), Success: "won"},
						ir.IfS(ir.V("won"), ir.PushOut(ir.V("dst"))),
					),
				),
			},
		}},
		Pipe: []ir.PipeStmt{&ir.LoopWL{Body: []ir.PipeStmt{&ir.Invoke{Kernel: "bfs"}}}},
	}
	return &Benchmark{
		Name: "bfs-wl",
		Prog: prog,
		Reference: func(g *graph.CSR, _ map[string]int32, src int32) *RunOutput {
			return &RunOutput{I: map[string][]int32{"lvl": RefBFS(g, src)}}
		},
		Verify: func(g *graph.CSR, get func(string) []int32, _ func(string) []float32, src int32) error {
			return verifyLevels(g, get("lvl"), src)
		},
	}
}

// BFSCX is the claim/expand BFS (bfs-cx): a claim kernel deduplicates the
// frontier with a CAS, then an expand kernel pushes every neighbor of every
// claimed node unconditionally. The expand kernel's push count is exactly
// the sum of claimed out-degrees, computable in advance — the property that
// enables fiber-level cooperative conversion (Section III-C).
func BFSCX() *Benchmark {
	prog := &ir.Program{
		Name: "bfs-cx",
		Arrays: []ir.ArrayDecl{
			{Name: "lvl", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplatExceptSrc, InitI: Inf, SrcVal: 0},
			{Name: "claimed", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitZero},
		},
		WLInit:     ir.WLSrc,
		WLCapEdges: true,
		Kernels: []*ir.Kernel{
			{
				Name:    "claim",
				Domain:  ir.DomainWL,
				ItemVar: "node",
				Body: []ir.Stmt{
					&ir.AtomicCAS{Arr: "claimed", Idx: ir.V("node"), Old: ir.CI(0), New: ir.CI(1), Success: "mine"},
					ir.IfS(ir.V("mine"), ir.PushOut(ir.V("node"))),
				},
			},
			{
				Name:                "expand",
				Domain:              ir.DomainWL,
				ItemVar:             "node",
				PushCountComputable: true,
				Body: []ir.Stmt{
					ir.DeclI("d", ir.Ld("lvl", ir.V("node"))),
					ir.ForE("e", ir.V("node"),
						ir.DeclI("dst", &ir.EdgeDst{Edge: ir.V("e")}),
						ir.DeclI("nd", ir.AddE(ir.V("d"), ir.CI(1))),
						ir.IfS(ir.GtE(ir.Ld("lvl", ir.V("dst")), ir.V("nd")),
							&ir.AtomicMin{Arr: "lvl", Idx: ir.V("dst"), Val: ir.V("nd")},
						),
						ir.PushOut(ir.V("dst")),
					),
				},
			},
		},
		Pipe: []ir.PipeStmt{&ir.LoopWL{Body: []ir.PipeStmt{
			&ir.Invoke{Kernel: "claim"},
			&ir.SwapWL{},
			&ir.Invoke{Kernel: "expand"},
		}}},
	}
	return &Benchmark{
		Name: "bfs-cx",
		Prog: prog,
		Reference: func(g *graph.CSR, _ map[string]int32, src int32) *RunOutput {
			return &RunOutput{I: map[string][]int32{"lvl": RefBFS(g, src)}}
		},
		Verify: func(g *graph.CSR, get func(string) []int32, _ func(string) []float32, src int32) error {
			return verifyLevels(g, get("lvl"), src)
		},
	}
}

// BFSTP is topology-driven BFS (bfs-tp): every round sweeps all nodes,
// relaxing the current level's frontier with plain (benignly racy) stores —
// no worklist, but the sweep cost repeats for every level, which is why it
// is an order of magnitude slower on high-diameter road networks (Table X).
func BFSTP() *Benchmark {
	prog := &ir.Program{
		Name: "bfs-tp",
		Arrays: []ir.ArrayDecl{
			{Name: "lvl", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplatExceptSrc, InitI: Inf, SrcVal: 0},
			{Name: "changed", T: ir.I32, Size: ir.SizeOne, Init: ir.InitZero},
		},
		Kernels: []*ir.Kernel{{
			Name:    "sweep",
			Domain:  ir.DomainNodes,
			ItemVar: "n",
			Body: []ir.Stmt{
				ir.IfS(ir.EqE(ir.Ld("lvl", ir.V("n")), ir.P("level")),
					ir.ForE("e", ir.V("n"),
						ir.DeclI("dst", &ir.EdgeDst{Edge: ir.V("e")}),
						ir.IfS(ir.GtE(ir.Ld("lvl", ir.V("dst")), ir.AddE(ir.P("level"), ir.CI(1))),
							ir.St("lvl", ir.V("dst"), ir.AddE(ir.P("level"), ir.CI(1))),
							&ir.SetFlag{Flag: "changed"},
						),
					),
				),
			},
		}},
		Pipe: []ir.PipeStmt{&ir.LoopFlag{
			Flag:     "changed",
			IncParam: "level",
			Body:     []ir.PipeStmt{&ir.Invoke{Kernel: "sweep"}},
		}},
		DefaultParams: map[string]int32{"level": 0},
	}
	return &Benchmark{
		Name: "bfs-tp",
		Prog: prog,
		Reference: func(g *graph.CSR, _ map[string]int32, src int32) *RunOutput {
			return &RunOutput{I: map[string][]int32{"lvl": RefBFS(g, src)}}
		},
		Verify: func(g *graph.CSR, get func(string) []int32, _ func(string) []float32, src int32) error {
			return verifyLevels(g, get("lvl"), src)
		},
	}
}

// BFSHB is hybrid BFS (bfs-hb): small frontiers run the claim/expand
// worklist phase, large frontiers a topology sweep over the level — the
// worklist analogue of direction switching. The expand kernel keeps the
// computable push count, so fiber-level CC applies here too.
func BFSHB() *Benchmark {
	prog := &ir.Program{
		Name: "bfs-hb",
		Arrays: []ir.ArrayDecl{
			{Name: "lvl", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplatExceptSrc, InitI: Inf, SrcVal: 0},
			{Name: "claimed", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitZero},
		},
		WLInit:     ir.WLSrc,
		WLCapEdges: true,
		Kernels: []*ir.Kernel{
			{
				Name:    "claim",
				Domain:  ir.DomainWL,
				ItemVar: "node",
				Body: []ir.Stmt{
					&ir.AtomicCAS{Arr: "claimed", Idx: ir.V("node"), Old: ir.CI(0), New: ir.CI(1), Success: "mine"},
					// Only nodes at the current level expand: topology
					// rounds may already have settled earlier pushes.
					ir.IfS(ir.AndE(ir.V("mine"), ir.EqE(ir.Ld("lvl", ir.V("node")), ir.P("level"))),
						ir.PushOut(ir.V("node"))),
				},
			},
			{
				Name:                "expand",
				Domain:              ir.DomainWL,
				ItemVar:             "node",
				PushCountComputable: true,
				Body: []ir.Stmt{
					ir.DeclI("d", ir.Ld("lvl", ir.V("node"))),
					ir.ForE("e", ir.V("node"),
						ir.DeclI("dst", &ir.EdgeDst{Edge: ir.V("e")}),
						ir.DeclI("nd", ir.AddE(ir.V("d"), ir.CI(1))),
						ir.IfS(ir.GtE(ir.Ld("lvl", ir.V("dst")), ir.V("nd")),
							&ir.AtomicMin{Arr: "lvl", Idx: ir.V("dst"), Val: ir.V("nd")},
						),
						ir.PushOut(ir.V("dst")),
					),
				},
			},
			{
				Name:    "sweep",
				Domain:  ir.DomainNodes,
				ItemVar: "n",
				Body: []ir.Stmt{
					ir.IfS(ir.EqE(ir.Ld("lvl", ir.V("n")), ir.P("level")),
						ir.ForE("e", ir.V("n"),
							ir.DeclI("dst", &ir.EdgeDst{Edge: ir.V("e")}),
							ir.IfS(ir.GtE(ir.Ld("lvl", ir.V("dst")), ir.AddE(ir.P("level"), ir.CI(1))),
								&ir.AtomicMin{Arr: "lvl", Idx: ir.V("dst"), Val: ir.AddE(ir.P("level"), ir.CI(1)), Success: "won"},
								ir.IfS(ir.V("won"), ir.PushOut(ir.V("dst"))),
							),
						),
					),
				},
			},
		},
		Pipe: []ir.PipeStmt{&ir.LoopHybrid{
			ThreshDenom: 16, // topology sweep once the frontier tops 1/16 of nodes
			Small: []ir.PipeStmt{
				&ir.Invoke{Kernel: "claim"},
				&ir.SwapWL{},
				&ir.Invoke{Kernel: "expand"},
			},
			Big:      []ir.PipeStmt{&ir.Invoke{Kernel: "sweep"}},
			IncParam: "level",
		}},
		DefaultParams: map[string]int32{"level": 0},
	}
	return &Benchmark{
		Name: "bfs-hb",
		Prog: prog,
		Reference: func(g *graph.CSR, _ map[string]int32, src int32) *RunOutput {
			return &RunOutput{I: map[string][]int32{"lvl": RefBFS(g, src)}}
		},
		Verify: func(g *graph.CSR, get func(string) []int32, _ func(string) []float32, src int32) error {
			return verifyLevels(g, get("lvl"), src)
		},
	}
}

// RefBFS is the serial reference: levels from src, Inf if unreachable.
func RefBFS(g *graph.CSR, src int32) []int32 {
	lvl := make([]int32, g.NumNodes())
	for i := range lvl {
		lvl[i] = Inf
	}
	if src < 0 || src >= g.NumNodes() {
		return lvl
	}
	lvl[src] = 0
	// Every node enters the queue at most once, so n slots never grow.
	queue := make([]int32, 1, len(lvl))
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, d := range g.Neighbors(n) {
			if lvl[d] == Inf {
				lvl[d] = lvl[n] + 1
				queue = append(queue, d)
			}
		}
	}
	return lvl
}

var _ = fmt.Sprintf // placeholder to keep fmt for future verifier messages
