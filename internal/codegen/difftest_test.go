package codegen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// Differential testing: generate random (but confluent) IR programs and
// check that every target width, ISA and optimization combination computes
// identical results. Confluence is guaranteed by construction — cross-item
// writes go only through commutative atomics (add) or monotone atomics
// (min), and plain stores target only the item's own slot — so any
// divergence is a codegen bug (masking, blending, NP redistribution, loop
// predication), not schedule noise.

const diffNodes = 256 // array length; indices are masked with & 255

// pgen generates random well-typed IR.
type pgen struct {
	r *rand.Rand
	// declared int variables in scope (item var is always present).
	vars []string
	// edgeVar is non-empty inside a ForEdges body.
	edgeVar string
	nameSeq int
}

func (g *pgen) fresh() string {
	g.nameSeq++
	return fmt.Sprintf("v%d", g.nameSeq)
}

// exprI generates an int expression of bounded depth.
func (g *pgen) exprI(depth int) ir.Expr {
	if depth <= 0 {
		switch g.r.Intn(3) {
		case 0:
			return ir.CI(int32(g.r.Intn(64)))
		case 1:
			return ir.V(g.vars[g.r.Intn(len(g.vars))])
		default:
			return ir.P("p")
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return ir.CI(int32(g.r.Intn(1024) - 512))
	case 1:
		return ir.V(g.vars[g.r.Intn(len(g.vars))])
	case 2:
		ops := []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Min, ir.Max}
		return ir.B(ops[g.r.Intn(len(ops))], g.exprI(depth-1), g.exprI(depth-1))
	case 3:
		return ir.SelE(g.exprB(depth-1), g.exprI(depth-1), g.exprI(depth-1))
	case 4:
		return ir.Ld("a", g.index(depth-1))
	case 5:
		if g.edgeVar != "" {
			return &ir.EdgeDst{Edge: ir.V(g.edgeVar)}
		}
		return ir.B(ir.Shr, g.exprI(depth-1), ir.CI(int32(1+g.r.Intn(4))))
	case 6:
		return &ir.NumNodes{}
	default:
		return ir.B(ir.Shl, g.exprI(depth-1), ir.CI(int32(g.r.Intn(3))))
	}
}

// index produces an always-in-range array index.
func (g *pgen) index(depth int) ir.Expr {
	return ir.B(ir.And, g.exprI(depth), ir.CI(diffNodes-1))
}

// exprB generates a predicate.
func (g *pgen) exprB(depth int) ir.Expr {
	cmps := []ir.BinOp{ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge}
	c := ir.B(cmps[g.r.Intn(len(cmps))], g.exprI(depth), g.exprI(depth))
	if depth > 0 {
		switch g.r.Intn(4) {
		case 0:
			return ir.AndE(c, ir.B(cmps[g.r.Intn(len(cmps))], g.exprI(depth-1), g.exprI(depth-1)))
		case 1:
			return ir.NotE(c)
		}
	}
	return c
}

// stmts generates a statement list. inLoop restricts writes to atomics
// (scatter conflicts under NP would be order-dependent).
func (g *pgen) stmts(depth, count int, inLoop bool) []ir.Stmt {
	var out []ir.Stmt
	for i := 0; i < count; i++ {
		out = append(out, g.stmt(depth, inLoop))
	}
	return out
}

func (g *pgen) stmt(depth int, inLoop bool) ir.Stmt {
	saved := len(g.vars)
	choice := g.r.Intn(10)
	if depth <= 0 && choice >= 5 {
		choice = g.r.Intn(5)
	}
	switch choice {
	case 0, 1:
		name := g.fresh()
		s := ir.DeclI(name, g.exprI(depth))
		g.vars = append(g.vars, name)
		return s
	case 2:
		// Assignment to an existing variable (exercises merge-masking).
		// vars[0] is the item variable, which must stay immutable: it
		// indexes per-item state and the edge loops.
		if len(g.vars) > 1 {
			return ir.Set(g.vars[1+g.r.Intn(len(g.vars)-1)], g.exprI(depth))
		}
		return ir.DeclI(g.fresh(), g.exprI(depth))
	case 3:
		return &ir.AtomicAdd{Arr: "cnt", Idx: g.index(depth), Val: ir.B(ir.And, g.exprI(depth), ir.CI(255))}
	case 4:
		return &ir.AtomicMin{Arr: "m", Idx: g.index(depth), Val: g.exprI(depth)}
	case 5:
		if inLoop {
			return &ir.AtomicAdd{Arr: "cnt", Idx: g.index(depth - 1), Val: ir.CI(1)}
		}
		// Own-slot store: conflict-free across items.
		return ir.St("out", ir.V("item"), g.exprI(depth))
	case 6:
		s := &ir.If{Cond: g.exprB(depth - 1), Then: g.stmts(depth-1, 1+g.r.Intn(2), inLoop)}
		if g.r.Intn(2) == 0 {
			s.Else = g.stmts(depth-1, 1, inLoop)
		}
		g.vars = g.vars[:saved]
		return s
	case 7:
		// Bounded counting loop (always terminates).
		iv := g.fresh()
		bound := int32(1 + g.r.Intn(3))
		body := g.stmts(depth-1, 1, inLoop)
		body = append(body, ir.Set(iv, ir.AddE(ir.V(iv), ir.CI(1))))
		g.vars = g.vars[:saved]
		return &ir.If{ // wrap in scope so iv's decl precedes the while
			Cond: ir.EqE(ir.CI(0), ir.CI(0)),
			Then: []ir.Stmt{
				ir.DeclI(iv, ir.CI(0)),
				ir.WhileS(ir.LtE(ir.V(iv), ir.CI(bound)), body...),
			},
		}
	case 8:
		if inLoop {
			return &ir.AtomicMin{Arr: "m", Idx: g.index(depth - 1), Val: g.exprI(depth - 1)}
		}
		ev := g.fresh()
		savedEdge := g.edgeVar
		g.edgeVar = ev
		body := g.stmts(depth-1, 1+g.r.Intn(2), true)
		g.edgeVar = savedEdge
		g.vars = g.vars[:saved]
		return &ir.ForEdges{EdgeVar: ev, Node: ir.V("item"), Body: body}
	default:
		return ir.DeclI(g.fresh(), g.exprI(depth)) // keeps var count growing
	}
}

// genProgram builds a random single-kernel DomainNodes program.
func genProgram(seed int64) *ir.Program {
	g := &pgen{r: rand.New(rand.NewSource(seed)), vars: []string{"item"}}
	body := g.stmts(3, 3+g.r.Intn(3), false)
	return &ir.Program{
		Name: fmt.Sprintf("fuzz%d", seed),
		Arrays: []ir.ArrayDecl{
			{Name: "a", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitHash},
			{Name: "out", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitZero},
			{Name: "cnt", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitZero},
			{Name: "m", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplat, InitI: 1 << 28},
		},
		Kernels: []*ir.Kernel{{
			Name:    "k",
			Domain:  ir.DomainNodes,
			ItemVar: "item",
			Body:    body,
		}},
		Pipe:          []ir.PipeStmt{&ir.Invoke{Kernel: "k"}},
		DefaultParams: map[string]int32{"p": 7},
	}
}

// runConfig executes the program and returns the three output arrays.
func runConfig(t *testing.T, prog *ir.Program, tgt vec.Target, opts opt.Options, tasks int, exec spmd.Exec, g *graph.CSR) [][]int32 {
	t.Helper()
	p, err := opt.Apply(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	mod, err := Compile(p)
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	e := spmd.New(machine.Intel8(), tgt, tasks)
	e.Exec = exec
	in, err := mod.Bind(e, g, nil)
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	if err := in.Run(); err != nil {
		t.Fatalf("%s: %v\nprogram:\n%s", prog.Name, err, EmitISPC(prog))
	}
	var out [][]int32
	for _, name := range []string{"out", "cnt", "m"} {
		out = append(out, append([]int32(nil), in.ArrayI(name)...))
	}
	return out
}

// TestDifferentialRandomPrograms is the randomized equivalence gate: for
// each generated program, all width/ISA/optimization/task/scheduler
// combinations must produce identical outputs.
func TestDifferentialRandomPrograms(t *testing.T) {
	const programs = 60
	g := graph.RMAT(8, 8, 16, 99) // diffNodes nodes with skewed degrees
	if g.NumNodes() != diffNodes {
		t.Fatalf("graph size %d != %d", g.NumNodes(), diffNodes)
	}
	configs := []struct {
		name  string
		tgt   vec.Target
		opts  opt.Options
		tasks int
		exec  spmd.Exec
	}{
		{"scalar", vec.TargetScalar, opt.None(), 1, spmd.ExecLive},
		{"avx1x8-none", vec.TargetAVX1x8, opt.None(), 4, spmd.ExecLive},
		{"avx512x16-none", vec.TargetAVX512x16, opt.None(), 4, spmd.ExecLive},
		{"avx512x16-all", vec.TargetAVX512x16, opt.All(), 4, spmd.ExecLive},
		{"avx2x16-np", vec.TargetAVX2x16, opt.Options{NP: true}, 3, spmd.ExecLive},
		{"gpu32-all", vec.TargetGPU32, opt.All(), 8, spmd.ExecLive},
		{"neon4-all", vec.TargetNEON4, opt.All(), 2, spmd.ExecLive},
		{"avx512x16-all-parallel", vec.TargetAVX512x16, opt.All(), 4, spmd.ExecParallel},
		{"avx2x16-np-parallel", vec.TargetAVX2x16, opt.Options{NP: true}, 3, spmd.ExecParallel},
		{"avx1x8-none-parallel", vec.TargetAVX1x8, opt.None(), 4, spmd.ExecParallel},
	}
	for seed := int64(0); seed < programs; seed++ {
		prog := genProgram(seed)
		if err := ir.Validate(prog); err != nil {
			t.Fatalf("seed %d: generator produced invalid IR: %v", seed, err)
		}
		ref := runConfig(t, prog, configs[0].tgt, configs[0].opts, configs[0].tasks, configs[0].exec, g)
		for _, c := range configs[1:] {
			got := runConfig(t, prog, c.tgt, c.opts, c.tasks, c.exec, g)
			for ai := range ref {
				for i := range ref[ai] {
					if got[ai][i] != ref[ai][i] {
						t.Fatalf("seed %d: config %s diverges from scalar at array %d index %d: %d vs %d\nprogram:\n%s",
							seed, c.name, ai, i, got[ai][i], ref[ai][i], EmitISPC(prog))
					}
				}
			}
		}
	}
}

// TestGeneratorCoversConstructs sanity-checks that the random generator
// actually produces the interesting constructs at the default depth.
func TestGeneratorCoversConstructs(t *testing.T) {
	var hasIf, hasWhile, hasForEdges, hasAtomic bool
	for seed := int64(0); seed < 40; seed++ {
		prog := genProgram(seed)
		ir.WalkStmts(prog.Kernels[0].Body, func(s ir.Stmt) {
			switch s.(type) {
			case *ir.If:
				hasIf = true
			case *ir.While:
				hasWhile = true
			case *ir.ForEdges:
				hasForEdges = true
			case *ir.AtomicAdd, *ir.AtomicMin:
				hasAtomic = true
			}
		})
	}
	if !hasIf || !hasWhile || !hasForEdges || !hasAtomic {
		t.Errorf("generator coverage: if=%v while=%v foredges=%v atomic=%v",
			hasIf, hasWhile, hasForEdges, hasAtomic)
	}
}
