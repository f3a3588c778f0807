package spmd

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/vec"
)

func newModeEngine(tasks int, mode Exec) *Engine {
	e := New(machine.Intel8(), vec.TargetAVX512x16, tasks)
	e.Exec = mode
	return e
}

// runDisjoint runs a multi-segment body where every task owns a disjoint
// region: gathers, ALU work, scatters, scalar and per-lane atomics, across
// barriers. With no cross-task read-after-write, all three execution modes
// must agree bit-exactly.
func runDisjoint(t *testing.T, mode Exec) (float64, Stats, []int32) {
	t.Helper()
	e := newModeEngine(8, mode)
	a := e.AllocI("data", 8*16)
	deg := e.AllocI("deg", 8*16)
	err := e.Launch(8, func(tc *TaskCtx) {
		base := int32(tc.Index * 16)
		idx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(base), vec.FullMask(16), 16)
		m := vec.FullMask(16)
		for round := 0; round < 4; round++ {
			v := gatherI(tc, a, idx, m, true)
			v = vec.Bin(vec.OpAdd, v, vec.Splat(int32(round+1)), m, tc.Width)
			tc.Op(vec.ClassALU, false)
			scatterI(tc, a, idx, v, m)
			atomicAddLanes(tc, deg, idx, vec.Splat(1), m, false)
			tc.ScalarStoreI(deg, base, tc.ScalarLoadI(deg, base)+1)
			tc.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	out := append(append([]int32(nil), a.I...), deg.I...)
	return e.TimeCycles(), e.Stats, out
}

func TestAllModesAgreeOnDisjointWork(t *testing.T) {
	cyc, stats, out := runDisjoint(t, ExecLive)
	for _, mode := range []Exec{ExecDeferred, ExecParallel} {
		c, s, o := runDisjoint(t, mode)
		if c != cyc {
			t.Errorf("mode %d cycles %v != live %v", mode, c, cyc)
		}
		if s != stats {
			t.Errorf("mode %d stats diverge:\n%v\n%v", mode, &s, &stats)
		}
		if !reflect.DeepEqual(o, out) {
			t.Errorf("mode %d outputs diverge from live", mode)
		}
	}
}

// runContended exercises the cross-task conflict paths — a shared contended
// counter, racing per-lane atomic mins and CASes on overlapping locations,
// conflicting scalar stores — where live and deferred semantics legitimately
// differ. The deferred-serial reference and the parallel scheduler must
// still agree bit-exactly with each other.
func runContended(t *testing.T, mode Exec) (float64, Stats, []int32) {
	t.Helper()
	e := newModeEngine(8, mode)
	dist := e.AllocI("dist", 64)
	owner := e.AllocI("owner", 64)
	slots := e.AllocI("slots", 8)
	ctr := e.AllocI("ctr", 1)
	dist.FillI(1 << 30)
	owner.FillI(-1)
	err := e.Launch(8, func(tc *TaskCtx) {
		m := vec.FullMask(16)
		idx := vec.Iota() // every task hits the same 16 locations
		for round := 0; round < 3; round++ {
			val := vec.Splat(int32(100 - 10*tc.Index - round))
			atomicMinLanes(tc, dist, idx, val, m)
			atomicCASLanes(tc, owner, idx, vec.Splat(-1), vec.Splat(int32(tc.Index)), m)
			old := tc.AtomicAddScalar(ctr, 0, 1, true)
			tc.ScalarStoreI(slots, int32(tc.Index), old)
			tc.Barrier()
			// Post-barrier: committed state must be merged and identical
			// across tasks; fold it back in so divergence becomes visible.
			v := gatherI(tc, dist, idx, m, true)
			scatterI(tc, dist, idx, vec.Bin(vec.OpAdd, v, vec.Splat(1), m, tc.Width), m)
			tc.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	out := append([]int32(nil), dist.I...)
	out = append(out, owner.I...)
	out = append(out, slots.I...)
	out = append(out, ctr.I...)
	return e.TimeCycles(), e.Stats, out
}

func TestParallelMatchesDeferredUnderContention(t *testing.T) {
	cyc, stats, out := runContended(t, ExecDeferred)
	for trial := 0; trial < 3; trial++ {
		c, s, o := runContended(t, ExecParallel)
		if c != cyc {
			t.Errorf("trial %d: parallel cycles %v != deferred %v", trial, c, cyc)
		}
		if s != stats {
			t.Errorf("trial %d: stats diverge:\n%v\n%v", trial, &s, &stats)
		}
		if !reflect.DeepEqual(o, out) {
			t.Errorf("trial %d: outputs diverge", trial)
		}
	}
}

// TestDeferredVisibility pins the deferred memory semantics: a task observes
// its own segment writes immediately, other tasks' writes only after the
// barrier, and conflicting stores merge in task order. The float store runs
// the same course through the float shadow path (loadF/storeF), which no
// kernel takes.
func TestDeferredVisibility(t *testing.T) {
	for _, mode := range []Exec{ExecDeferred, ExecParallel} {
		e := newModeEngine(2, mode)
		a := e.AllocI("a", 4)
		f := e.AllocF("f", 4)
		f.FillF(0.25)
		err := e.Launch(2, func(tc *TaskCtx) {
			if tc.Index == 0 {
				tc.ScalarStoreI(a, 0, 5)
				if got := tc.ScalarLoadI(a, 0); got != 5 {
					t.Errorf("mode %d: own write invisible: %d", mode, got)
				}
				tc.ScalarStoreF(f, 2, 1.5)
				if got := tc.ScalarLoadF(f, 2); got != 1.5 {
					t.Errorf("mode %d: own float write invisible: %v", mode, got)
				}
			} else {
				if got := tc.ScalarLoadI(a, 0); got != 0 {
					t.Errorf("mode %d: foreign write leaked pre-barrier: %d", mode, got)
				}
				if got := tc.ScalarLoadF(f, 2); got != 0.25 {
					t.Errorf("mode %d: foreign float write leaked pre-barrier: %v", mode, got)
				}
			}
			// Both tasks store to a[1]; task order must decide the winner.
			tc.ScalarStoreI(a, 1, int32(10+tc.Index))
			tc.Barrier()
			if got := tc.ScalarLoadI(a, 0); got != 5 {
				t.Errorf("mode %d: merged write invisible post-barrier: %d", mode, got)
			}
			if got := tc.ScalarLoadI(a, 1); got != 11 {
				t.Errorf("mode %d: conflicting stores merged to %d, want 11 (task order)", mode, got)
			}
			if got := tc.ScalarLoadF(f, 2); got != 1.5 {
				t.Errorf("mode %d: merged float write invisible post-barrier: %v", mode, got)
			}
		})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if f.F[2] != 1.5 || f.F[1] != 0.25 {
			t.Errorf("mode %d: committed floats %v, want the store merged into [2] only", mode, f.F)
		}
	}
}

// TestLaunchNoBarrierMatchesLaunch: for a barrier-free body the inline fast
// path must be cost- and effect-identical to the general scheduler, in every
// mode.
func TestLaunchNoBarrierMatchesLaunch(t *testing.T) {
	body := func(a *Array) func(*TaskCtx) {
		return func(tc *TaskCtx) {
			base := int32(tc.Index * 16)
			idx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(base), vec.FullMask(16), 16)
			v := gatherI(tc, a, idx, vec.FullMask(16), true)
			v = vec.Bin(vec.OpAdd, v, vec.Splat(7), vec.FullMask(16), tc.Width)
			scatterI(tc, a, idx, v, vec.FullMask(16))
		}
	}
	for _, mode := range []Exec{ExecLive, ExecDeferred, ExecParallel} {
		e1 := newModeEngine(4, mode)
		a1 := e1.AllocI("a", 64)
		if err := e1.Launch(4, body(a1)); err != nil {
			t.Fatal(err)
		}
		e2 := newModeEngine(4, mode)
		a2 := e2.AllocI("a", 64)
		if err := e2.LaunchNoBarrier(4, body(a2)); err != nil {
			t.Fatal(err)
		}
		if e1.TimeCycles() != e2.TimeCycles() {
			t.Errorf("mode %d: cycles %v (Launch) != %v (LaunchNoBarrier)",
				mode, e1.TimeCycles(), e2.TimeCycles())
		}
		if e1.Stats != e2.Stats {
			t.Errorf("mode %d: stats diverge:\n%v\n%v", mode, &e1.Stats, &e2.Stats)
		}
		if !reflect.DeepEqual(a1.I, a2.I) {
			t.Errorf("mode %d: outputs diverge", mode)
		}
	}
}

// TestBarrierInNoBarrierLaunchFails: calling Barrier from a barrier-free
// launch is a kernel bug that must surface as a typed error, not a hang.
func TestBarrierInNoBarrierLaunchFails(t *testing.T) {
	for _, mode := range []Exec{ExecLive, ExecDeferred} {
		e := newModeEngine(2, mode)
		err := e.LaunchNoBarrier(2, func(tc *TaskCtx) { tc.Barrier() })
		if err == nil {
			t.Fatalf("mode %d: Barrier in LaunchNoBarrier did not fail", mode)
		}
		if !errors.Is(err, fault.ErrKernelPanic) {
			t.Errorf("mode %d: error %v does not match ErrKernelPanic", mode, err)
		}
	}
}

// TestParallelErrorDeterministic: when several tasks fail in the same
// segment, the reported task must be the lowest-index failure, exactly as
// the cooperative sweep would report it.
func TestParallelErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		e := newModeEngine(8, ExecParallel)
		a := e.AllocI("a", 4)
		err := e.Launch(8, func(tc *TaskCtx) {
			if tc.Index >= 3 {
				tc.ScalarLoadI(a, 99) // out of bounds
			}
			tc.Barrier()
		})
		if !errors.Is(err, fault.ErrOutOfBounds) {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var be *fault.BoundsError
		if !errors.As(err, &be) {
			t.Fatalf("trial %d: %T", trial, err)
		}
	}
}

// TestDeferredWorklistEquivalence: staged pushes must land in the same
// positions as the live cooperative schedule produces, in all three modes.
// (Exercised through the spmd-level primitives the worklist package uses.)
func TestDeferredFloatDeterminism(t *testing.T) {
	// Float accumulation order is task-major program order in every mode,
	// so sums must be bit-identical, not merely close.
	run := func(mode Exec) []float32 {
		e := newModeEngine(8, mode)
		acc := e.AllocF("acc", 4)
		if err := e.Launch(8, func(tc *TaskCtx) {
			for i := 0; i < 50; i++ {
				tc.AtomicAddFScalar(acc, 0, 0.1*float32(tc.Index+1))
				atomicAddFLanes(tc, acc,
					vec.Bin(vec.OpAnd, vec.Iota(), vec.Splat(3), vec.FullMask(16), 16),
					vec.SplatF(0.01*float32(i+1)), vec.FullMask(16))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), acc.F...)
	}
	ref := run(ExecDeferred)
	for trial := 0; trial < 3; trial++ {
		if got := run(ExecParallel); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: float outputs diverge: %v vs %v", trial, got, ref)
		}
	}
}
