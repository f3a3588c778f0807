package codegen

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

func newEngine(mode spmd.Exec) *spmd.Engine {
	e := spmd.New(machine.Intel8(), vec.TargetAVX512x16, 4)
	e.Exec = mode
	return e
}

// eachExec runs body as one subtest per scheduler the unit tests cover: live
// (the engine default) and parallel.
func eachExec(t *testing.T, body func(t *testing.T, mode spmd.Exec)) {
	for _, m := range []struct {
		name string
		mode spmd.Exec
	}{{"live", spmd.ExecLive}, {"parallel", spmd.ExecParallel}} {
		t.Run(m.name, func(t *testing.T) { body(t, m.mode) })
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(&ir.Program{Name: "empty"}); err == nil {
		t.Error("empty program compiled")
	}
	// A reserved push outside a fiber-CC kernel is a compiler-level error
	// (the validator cannot see push modes' kernel context).
	p := kernels.BFSWL().Prog.Clone()
	ir.WalkStmts(p.Kernels[0].Body, func(s ir.Stmt) {
		if push, ok := s.(*ir.Push); ok {
			push.Mode = ir.PushReserved
		}
	})
	if _, err := Compile(p); err == nil {
		t.Error("reserved push outside fiber-CC kernel compiled")
	}
}

func TestFiberCCRequiresOutPushes(t *testing.T) {
	p := kernels.SSSPNF().Prog.Clone()
	p.Kernels[0].PushCountComputable = true
	p.Kernels[0].Fibers = true
	p.Kernels[0].FiberCC = true
	ir.WalkStmts(p.Kernels[0].Body, func(s ir.Stmt) {
		if push, ok := s.(*ir.Push); ok {
			push.Mode = ir.PushReserved
		}
	})
	_, err := Compile(p)
	if err == nil || !strings.Contains(err.Error(), "pushes to target the pipeline") {
		t.Errorf("near/far fiber-CC kernel compiled: %v", err)
	}
}

func TestNPRejectsOuterWrites(t *testing.T) {
	p := &ir.Program{
		Name:   "bad-np",
		Arrays: []ir.ArrayDecl{{Name: "x", T: ir.I32, Size: ir.SizeNodes}},
		Kernels: []*ir.Kernel{{
			Name: "k", Domain: ir.DomainNodes, ItemVar: "n",
			Body: []ir.Stmt{
				ir.DeclI("acc", ir.CI(0)),
				&ir.ForEdges{EdgeVar: "e", Node: ir.V("n"), Sched: ir.SchedNP,
					Body: []ir.Stmt{ir.Set("acc", ir.AddE(ir.V("acc"), ir.CI(1)))}},
			},
		}},
		Pipe: []ir.PipeStmt{&ir.Invoke{Kernel: "k"}},
	}
	_, err := Compile(p)
	if err == nil || !strings.Contains(err.Error(), "nested parallelism") {
		t.Errorf("NP outer write compiled: %v", err)
	}
}

func TestBindRejectsCorruptGraph(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		m := MustCompile(kernels.BFSWL().Prog)
		g := graph.Road(4, 4, 4, 1)
		g.EdgeDst[0] = 999
		if _, err := m.Bind(newEngine(mode), g, nil); err == nil {
			t.Error("corrupt graph bound")
		}
	})
}

func TestInstanceAccessors(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		prog := opt.MustApply(kernels.PR().Prog, opt.None())
		m := MustCompile(prog)
		in, err := m.Bind(newEngine(mode), graph.Road(6, 6, 4, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		if in.ArrayF("rank") == nil || in.ArrayI("deg") == nil {
			t.Error("accessors nil for bound arrays")
		}
		if in.ArrayI("nothing") != nil || in.ArrayF("nothing") != nil {
			t.Error("accessors non-nil for unknown arrays")
		}
		if in.Array("rank") == nil {
			t.Error("Array accessor nil")
		}
	})
}

func TestParamsDefaultsAndOverrides(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		m := MustCompile(kernels.SSSPNF().Prog)
		in, err := m.Bind(newEngine(mode), graph.Road(6, 6, 16, 2), map[string]int32{"delta": 7, "src": 3})
		if err != nil {
			t.Fatal(err)
		}
		if in.Params["delta"] != 7 || in.Params["src"] != 3 {
			t.Errorf("params = %v", in.Params)
		}
		in.Run()
		if in.ArrayI("dist")[3] != 0 {
			t.Error("src override ignored")
		}
	})
}

func TestInitModes(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		prog := &ir.Program{
			Name: "inits",
			Arrays: []ir.ArrayDecl{
				{Name: "z", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitZero},
				{Name: "s", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplat, InitI: 9},
				{Name: "io", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitIota},
				{Name: "x", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitSplatExceptSrc, InitI: 5, SrcVal: -1},
				{Name: "h", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitHash},
				{Name: "d", T: ir.I32, Size: ir.SizeNodes, Init: ir.InitDegree},
				{Name: "f", T: ir.F32, Size: ir.SizeNodes, Init: ir.InitInvN},
				{Name: "sf", T: ir.F32, Size: ir.SizeOne, Init: ir.InitSplat, InitF: 2.5},
			},
			Kernels: []*ir.Kernel{{
				Name: "nop", Domain: ir.DomainNodes, ItemVar: "n",
				Body: []ir.Stmt{ir.DeclI("t", ir.V("n"))},
			}},
			Pipe: []ir.PipeStmt{&ir.Invoke{Kernel: "nop"}},
		}
		m := MustCompile(prog)
		g := graph.Road(4, 4, 4, 1) // 16 nodes
		in, err := m.Bind(newEngine(mode), g, map[string]int32{"src": 2})
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		if in.ArrayI("z")[5] != 0 || in.ArrayI("s")[5] != 9 || in.ArrayI("io")[5] != 5 {
			t.Error("zero/splat/iota init wrong")
		}
		x := in.ArrayI("x")
		if x[2] != -1 || x[3] != 5 {
			t.Errorf("splat-except-src: %v", x[:4])
		}
		h := in.ArrayI("h")
		if h[0] == h[1] || h[0] < 0 || h[1] < 0 {
			t.Error("hash init not positive-distinct")
		}
		if in.ArrayI("d")[5] != g.Degree(5) {
			t.Error("degree init wrong")
		}
		if f := in.ArrayF("f")[3]; f != 1.0/16 {
			t.Errorf("inv-n init = %v", f)
		}
		if in.ArrayF("sf")[0] != 2.5 {
			t.Error("float splat init wrong")
		}
	})
}

func TestEmitISPCUnoptimized(t *testing.T) {
	src := EmitISPC(kernels.BFSWL().Prog)
	for _, want := range []string{
		"task void bfs",
		"foreach (wi = task_range(wl_in->size))",
		"atomic_min_global(&lvl[",
		"wl_push(wl_out", // unoptimized push
		"launch[num_tasks] bfs(g);",
		"while (wl_in->size > 0)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("unoptimized ISPC missing %q\n%s", want, src)
		}
	}
	if strings.Contains(src, "packed_store_active") {
		t.Error("unoptimized emission contains cooperative push")
	}
}

func TestEmitISPCOptimized(t *testing.T) {
	prog := opt.MustApply(kernels.BFSWL().Prog, opt.All())
	src := EmitISPC(prog)
	for _, want := range []string{
		"// [fibers]",
		"// edge schedule: nested_parallel",
		"popcnt(lanemask())",
		"packed_store_active",
		"task void pipe_loop", // iteration outlining
		"barrier();",
		"launch[num_tasks] pipe_loop(g); // single launch",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("optimized ISPC missing %q\n%s", want, src)
		}
	}
}

func TestEmitISPCCoversAllKernels(t *testing.T) {
	for _, b := range kernels.All() {
		src := EmitISPC(opt.MustApply(b.Prog, opt.All()))
		if len(src) < 200 {
			t.Errorf("%s: suspiciously short emission", b.Name)
		}
		if strings.Contains(src, "?") && !strings.Contains(b.Name, "?") {
			// "?" marks an unhandled node in the pretty printer.
			for _, line := range strings.Split(src, "\n") {
				if strings.Contains(line, "?") {
					t.Errorf("%s: unhandled IR node in emission: %s", b.Name, line)
				}
			}
		}
	}
}

func TestEmitISPCSpecials(t *testing.T) {
	// Near-far, hybrid, converge and fixed drivers all render.
	src := EmitISPC(kernels.SSSPNF().Prog)
	if !strings.Contains(src, "near-far driver") || !strings.Contains(src, "wl_far") {
		t.Error("near-far emission incomplete")
	}
	src = EmitISPC(kernels.BFSHB().Prog)
	if !strings.Contains(src, "hybrid driver") {
		t.Error("hybrid emission incomplete")
	}
	src = EmitISPC(kernels.PR().Prog)
	if !strings.Contains(src, "reduce_add") || !strings.Contains(src, "break;") {
		t.Error("converge emission incomplete")
	}
	fixed := kernels.BFSWL().Prog.Clone()
	fixed.Pipe = []ir.PipeStmt{&ir.LoopFixed{N: 3, Body: []ir.PipeStmt{&ir.Invoke{Kernel: "bfs"}}}}
	if !strings.Contains(EmitISPC(fixed), "it < 3") {
		t.Error("fixed-loop emission incomplete")
	}
}

// TestWorkItemCounting: processed item counts equal the work the algorithm
// actually does.
func TestWorkItemCounting(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		prog := opt.MustApply(kernels.BFSTP().Prog, opt.None())
		m := MustCompile(prog)
		g := graph.Road(4, 4, 4, 1)
		e := newEngine(mode)
		in, err := m.Bind(e, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		// Topology-driven: every round sweeps all 16 nodes.
		if e.Stats.WorkItems%16 != 0 || e.Stats.WorkItems == 0 {
			t.Errorf("WorkItems = %d, want a positive multiple of 16", e.Stats.WorkItems)
		}
	})
}
