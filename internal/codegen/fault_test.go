package codegen

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/spmd"
)

// stallProg spins forever: the kernel pushes every popped node straight back
// to the out list, so the frontier never changes.
func stallProg(outline ir.Outlining) *ir.Program {
	return &ir.Program{
		Name:    "stall",
		Arrays:  []ir.ArrayDecl{{Name: "x", T: ir.I32, Size: ir.SizeNodes}},
		WLInit:  ir.WLSrc,
		Outline: outline,
		Kernels: []*ir.Kernel{{
			Name: "spin", Domain: ir.DomainWL, ItemVar: "node",
			Body: []ir.Stmt{ir.PushOut(ir.V("node"))},
		}},
		Pipe: []ir.PipeStmt{&ir.LoopWL{Body: []ir.PipeStmt{&ir.Invoke{Kernel: "spin"}}}},
	}
}

func bindStalled(t *testing.T, mode spmd.Exec, outline ir.Outlining, b fault.Budget) *Instance {
	t.Helper()
	m := MustCompile(stallProg(outline))
	e := newEngine(mode)
	e.Budget = b
	in, err := m.Bind(e, graph.Road(4, 4, 4, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestStallWatchdog(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		for _, outline := range []ir.Outlining{ir.LaunchPerIteration, ir.Outlined} {
			in := bindStalled(t, mode, outline, fault.Budget{StallWindow: 8})
			err := in.Run()
			if !errors.Is(err, fault.ErrNonConvergence) {
				t.Fatalf("outline=%v: stalled loop returned %v", outline, err)
			}
			var ce *fault.ConvergenceError
			if !errors.As(err, &ce) || ce.Window != 8 || ce.Loop != "loop-wl" {
				t.Errorf("outline=%v: detail = %+v", outline, ce)
			}
		}
	})
}

// TestStallWindowOne: the tightest window must trip on the very first
// repeated frontier signature — iteration 2 of a spin loop — in both
// translations.
func TestStallWindowOne(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		for _, outline := range []ir.Outlining{ir.LaunchPerIteration, ir.Outlined} {
			in := bindStalled(t, mode, outline, fault.Budget{StallWindow: 1})
			err := in.Run()
			var ce *fault.ConvergenceError
			if !errors.As(err, &ce) {
				t.Fatalf("outline=%v: stalled loop returned %v", outline, err)
			}
			if ce.Window != 1 || ce.Iterations != 2 {
				t.Errorf("outline=%v: window-1 watchdog tripped at %+v, want iteration 2", outline, ce)
			}
		}
	})
}

func TestIterationBudget(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		for _, outline := range []ir.Outlining{ir.LaunchPerIteration, ir.Outlined} {
			in := bindStalled(t, mode, outline, fault.Budget{MaxIters: 10})
			err := in.Run()
			if !errors.Is(err, fault.ErrBudgetExceeded) {
				t.Fatalf("outline=%v: unbounded loop returned %v", outline, err)
			}
			var be *fault.BudgetError
			if !errors.As(err, &be) || be.Resource != "iterations" {
				t.Errorf("outline=%v: detail = %+v", outline, be)
			}
		}
	})
}

// TestWhileTripCap: an intra-kernel while loop that never converges (as
// corrupted state can cause — e.g. a bit flip forming a union-find cycle)
// must abort with a typed recoverable fault instead of hanging. The pipe-loop
// budgets cannot see inside a kernel body; the interpreter's trip cap is the
// backstop.
func TestWhileTripCap(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		prog := &ir.Program{
			Name:   "spinwhile",
			Arrays: []ir.ArrayDecl{{Name: "x", T: ir.I32, Size: ir.SizeNodes}},
			Kernels: []*ir.Kernel{{
				Name: "spin", Domain: ir.DomainNodes, ItemVar: "n",
				Body: []ir.Stmt{
					// while x[n] == 0 {} — x is never written, so every active
					// lane spins forever.
					ir.WhileS(ir.EqE(ir.Ld("x", ir.V("n")), ir.CI(0))),
				},
			}},
			Pipe: []ir.PipeStmt{&ir.Invoke{Kernel: "spin"}},
		}
		m := MustCompile(prog)
		e := newEngine(mode)
		in, err := m.Bind(e, graph.Road(4, 4, 4, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		err = in.Run()
		if !errors.Is(err, fault.ErrKernelPanic) {
			t.Fatalf("diverging while loop returned %v, want typed kernel fault", err)
		}
		if !fault.Recoverable(err) {
			t.Error("while trip-cap fault is not recoverable; rollback cannot heal runaway loops")
		}
	})
}

func TestDeadlineBudget(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		in := bindStalled(t, mode, ir.LaunchPerIteration, fault.Budget{Ctx: ctx})
		err := in.Run()
		var be *fault.BudgetError
		if !errors.As(err, &be) || be.Resource != "deadline" {
			t.Fatalf("cancelled run returned %v", err)
		}
	})
}
