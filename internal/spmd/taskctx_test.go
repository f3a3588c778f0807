package spmd

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/vec"
)

// runSingle executes body on one task and returns the engine for inspection.
func runSingle(t *testing.T, target vec.Target, body func(tc *TaskCtx)) *Engine {
	t.Helper()
	e := New(machine.Intel8(), target, 1)
	e.Launch(1, body)
	return e
}

func TestGatherFunctionalAndCounted(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("a", 64)
	for i := range a.I {
		a.I[i] = int32(i * 2)
	}
	var got vec.Vec
	e.Launch(1, func(tc *TaskCtx) {
		got = gatherI(tc, a, vec.Iota(), vec.FullMask(16), true)
	})
	for i := 0; i < 16; i++ {
		if got[i] != int32(i*2) {
			t.Fatalf("lane %d = %d", i, got[i])
		}
	}
	if e.Stats.ByClass[vec.ClassGather] == 0 {
		t.Error("gather not counted")
	}
	if e.Stats.InnerVectorOps != 1 || e.Stats.InnerActiveLanes != 16 {
		t.Errorf("inner accounting = %d/%d", e.Stats.InnerVectorOps, e.Stats.InnerActiveLanes)
	}
	if u := e.Stats.LaneUtilization(16); u != 1.0 {
		t.Errorf("utilization = %v", u)
	}
}

func TestLaneUtilizationPartial(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("a", 64)
	e.Launch(1, func(tc *TaskCtx) {
		m := vec.FullMask(4) // 4 of 16 lanes
		gatherI(tc, a, vec.Iota(), m, true)
	})
	if u := e.Stats.LaneUtilization(16); u != 0.25 {
		t.Errorf("utilization = %v, want 0.25", u)
	}
}

func TestScatterAndVectorStores(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("a", 64)
	e.Launch(1, func(tc *TaskCtx) {
		scatterI(tc, a, vec.Iota(), vec.Splat(9), vec.FullMask(16))
		tc.PackedStore(a, 32, vec.Splat(5), vec.FullMask(16))
	})
	if a.I[7] != 9 || a.I[40] != 5 {
		t.Errorf("stores wrong: %d %d", a.I[7], a.I[40])
	}
	if e.Stats.ByClass[vec.ClassScatter] == 0 || e.Stats.ByClass[vec.ClassPacked] == 0 {
		t.Error("store classes not counted")
	}
}

// TestScatterConflictHighestLaneWins pins AVX512 scatter ordering: when
// several active lanes target one index the highest-numbered lane's value is
// the one that lands, live and deferred alike.
func TestScatterConflictHighestLaneWins(t *testing.T) {
	for _, mode := range []Exec{ExecLive, ExecDeferred, ExecParallel} {
		e := newModeEngine(1, mode)
		a := e.AllocI("a", 4)
		var seen int32
		err := e.Launch(1, func(tc *TaskCtx) {
			scatterI(tc, a, vec.Splat(2), vec.FromSlice([]int32{10, 11, 12, 13}), vec.FullMask(4))
			seen = gatherI(tc, a, vec.Splat(2), vec.FullMask(1), false)[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		if a.I[2] != 13 || seen != 13 {
			t.Errorf("mode %d: committed %d, task view %d, want 13 (highest lane)", mode, a.I[2], seen)
		}
	}
}

// TestLoadsMergeAndIgnoreInactiveLanes pins merge-masked load semantics:
// inactive lanes keep the destination's value and their (arbitrarily wild)
// indices are neither bounds-checked nor charged.
func TestLoadsMergeAndIgnoreInactiveLanes(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("a", 16)
	for i := range a.I {
		a.I[i] = int32(i * 10)
	}
	err := e.Launch(1, func(tc *TaskCtx) {
		idx := vec.FromSlice([]int32{1, 9999, 2, -5})
		got := vec.Splat(-7)
		tc.GatherIP(a, &idx, vec.Mask(0).Set(0).Set(2), false, &got)
		if got[0] != 10 || got[1] != -7 || got[2] != 20 || got[3] != -7 {
			t.Errorf("masked gather = %v", got[:4])
		}
		got = vec.Splat(-7)
		tc.LoadVecIP(a, 14, vec.Mask(0).Set(1), &got) // lanes 2.. would run off the end
		if got[0] != -7 || got[1] != 150 || got[2] != -7 {
			t.Errorf("masked vload = %v", got[:3])
		}
	})
	if err != nil {
		t.Fatalf("inactive out-of-range lanes rejected: %v", err)
	}
}

func TestPackedStoreCounts(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("wl", 64)
	var n int
	e.Launch(1, func(tc *TaskCtx) {
		val := vec.Iota()
		m := vec.Mask(0).Set(2).Set(5).Set(11)
		n = tc.PackedStore(a, 10, val, m)
	})
	if n != 3 {
		t.Fatalf("PackedStore returned %d", n)
	}
	if a.I[10] != 2 || a.I[11] != 5 || a.I[12] != 11 {
		t.Errorf("packed = %v", a.I[10:13])
	}
}

// TestPackedStorePastEndFails: a live packed store that would run past the
// array's end fails the launch with a typed bounds error naming the array,
// and stores nothing.
func TestPackedStorePastEndFails(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("wl", 16)
	err := e.Launch(1, func(tc *TaskCtx) {
		tc.PackedStore(a, 14, vec.Splat(7), vec.Mask(0b111))
	})
	var be *fault.BoundsError
	if !errors.As(err, &be) {
		t.Fatalf("error %v (%T) is not a *fault.BoundsError", err, err)
	}
	if be.Array != "wl" {
		t.Errorf("bounds error names array %q, want %q", be.Array, "wl")
	}
	for i, v := range a.I {
		if v != 0 {
			t.Errorf("a[%d] = %d after a failed packed store", i, v)
		}
	}
}

// TestPackedStoreDeferredFails: deferred tasks stage packed pushes through a
// push batch, so calling PackedStore from one is a kernel bug.
func TestPackedStoreDeferredFails(t *testing.T) {
	for _, mode := range []Exec{ExecDeferred, ExecParallel} {
		e := New(machine.Intel8(), vec.TargetAVX512x16, 2)
		e.Exec = mode
		a := e.AllocI("wl", 64)
		err := e.Launch(2, func(tc *TaskCtx) {
			tc.PackedStore(a, 0, vec.Iota(), vec.Mask(0b11))
		})
		if !errors.Is(err, fault.ErrKernelPanic) {
			t.Errorf("mode %d: error %v does not match ErrKernelPanic", mode, err)
		}
	}
}

func TestScalarLoadStore(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("a", 8)
	e.Launch(1, func(tc *TaskCtx) {
		tc.ScalarStoreI(a, 3, 77)
		if v := tc.ScalarLoadI(a, 3); v != 77 {
			t.Errorf("scalar load = %d", v)
		}
	})
	if e.Stats.ByClass[vec.ClassScalarLoad] != 1 || e.Stats.ByClass[vec.ClassScalarStore] != 1 {
		t.Error("scalar memory ops not counted")
	}
}

func TestAtomicMinLanes(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("dist", 8)
	a.FillI(100)
	var improved vec.Mask
	e.Launch(1, func(tc *TaskCtx) {
		idx := vec.FromSlice([]int32{0, 1, 2, 3})
		val := vec.FromSlice([]int32{50, 150, 100, 99})
		improved = atomicMinLanes(tc, a, idx, val, vec.FullMask(4))
	})
	if !improved.Bit(0) || improved.Bit(1) || improved.Bit(2) || !improved.Bit(3) {
		t.Errorf("improved = %v", improved)
	}
	if a.I[0] != 50 || a.I[1] != 100 || a.I[3] != 99 {
		t.Errorf("dist = %v", a.I[:4])
	}
	if e.Stats.Atomics != 4 {
		t.Errorf("Atomics = %d", e.Stats.Atomics)
	}
}

func TestAtomicCASLanes(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocI("lvl", 8)
	a.FillI(-1)
	a.I[2] = 5
	var won vec.Mask
	e.Launch(1, func(tc *TaskCtx) {
		idx := vec.FromSlice([]int32{0, 2, 4})
		won = atomicCASLanes(tc, a, idx, vec.Splat(-1), vec.Splat(7), vec.FullMask(3))
	})
	if !won.Bit(0) || won.Bit(1) || !won.Bit(2) {
		t.Errorf("won = %v", won)
	}
	if a.I[0] != 7 || a.I[2] != 5 || a.I[4] != 7 {
		t.Errorf("lvl = %v", a.I[:5])
	}
}

func TestAtomicAddLanesContended(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	tail := e.AllocI("tail", 1)
	var olds vec.Vec
	e.Launch(1, func(tc *TaskCtx) {
		olds = tc.AtomicAddLanesContended(tail, 0, vec.FullMask(4), true)
	})
	// Each lane reserves one slot: old values 0..3, tail ends at 4.
	for i := 0; i < 4; i++ {
		if olds[i] != int32(i) {
			t.Errorf("lane %d old = %d", i, olds[i])
		}
	}
	if tail.I[0] != 4 {
		t.Errorf("tail = %d", tail.I[0])
	}
	if e.Stats.AtomicPushes != 4 {
		t.Errorf("pushes = %d, want 4 (one per lane, unoptimized)", e.Stats.AtomicPushes)
	}
}

func TestAtomicAddFScalar(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	acc := e.AllocF("acc", 1)
	e.Launch(1, func(tc *TaskCtx) {
		tc.AtomicAddFScalar(acc, 0, 2.5)
		tc.AtomicAddFScalar(acc, 0, 1.5)
	})
	if acc.F[0] != 4.0 {
		t.Errorf("acc = %v", acc.F[0])
	}
	if e.Stats.Atomics != 2 {
		t.Errorf("Atomics = %d, want 2 (reduction + single atomic each)", e.Stats.Atomics)
	}
}

func TestGatherFAndScatterF(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	a := e.AllocF("rank", 16)
	for i := range a.F {
		a.F[i] = float32(i) / 2
	}
	e.Launch(1, func(tc *TaskCtx) {
		v := gatherF(tc, a, vec.Iota(), vec.FullMask(8), false)
		if v[4] != 2.0 {
			t.Errorf("GatherF lane 4 = %v", v[4])
		}
		scatterF(tc, a, vec.Iota(), vec.SplatF(9), vec.FullMask(8))
	})
	if a.F[3] != 9 || a.F[8] != 4 {
		t.Errorf("ScatterF result: %v %v", a.F[3], a.F[8])
	}
}

// TestGatherCostExceedsScalarOnIntel verifies the Table VI effect end to
// end: for L1-resident data, per-word gather stalls exceed scalar-load
// stalls on the big OoO core.
func TestGatherCostExceedsScalarOnIntel(t *testing.T) {
	gatherStall := func() float64 {
		e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
		a := e.AllocI("a", 256)
		e.Launch(1, func(tc *TaskCtx) {
			// Warm L1.
			for p := int32(0); p < 256; p += 16 {
				loadVecI(tc, a, p, vec.FullMask(16))
			}
			start := e.TimeCycles()
			_ = start
			tc.comp, tc.stl = costVec{}, costVec{}
			for i := 0; i < 100; i++ {
				gatherI(tc, a, vec.Iota(), vec.FullMask(16), false)
			}
		})
		return e.TimeCycles()
	}
	scalarStall := func() float64 {
		e := New(machine.Intel8(), vec.TargetScalar, 1)
		a := e.AllocI("a", 256)
		e.Launch(1, func(tc *TaskCtx) {
			for p := int32(0); p < 256; p++ {
				tc.ScalarLoadI(a, p)
			}
			tc.comp, tc.stl = costVec{}, costVec{}
			for i := 0; i < 1600; i++ {
				tc.ScalarLoadI(a, int32(i%256))
			}
		})
		return e.TimeCycles()
	}
	// Same number of words loaded (1600); the gather path must be slower.
	if g, s := gatherStall(), scalarStall(); g <= s {
		t.Errorf("gather cycles %v <= scalar cycles %v; Table VI shape violated", g, s)
	}
}

func TestWorkCounter(t *testing.T) {
	e := runSingle(t, vec.TargetAVX512x16, func(tc *TaskCtx) { tc.Work(42) })
	if e.Stats.WorkItems != 42 {
		t.Errorf("WorkItems = %d", e.Stats.WorkItems)
	}
}

func TestLocalAtomicNoHardwareAtomic(t *testing.T) {
	e := runSingle(t, vec.TargetAVX512x16, func(tc *TaskCtx) {
		tc.LocalAtomicLanes(vec.FullMask(16))
	})
	if e.Stats.Atomics != 0 {
		t.Error("local atomics must not issue hardware atomics")
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Instructions: 10, Atomics: 2, InnerVectorOps: 1, InnerActiveLanes: 8}
	b := Stats{Instructions: 5, AtomicPushes: 3, Launches: 1}
	a.Add(&b)
	if a.Instructions != 15 || a.AtomicPushes != 3 || a.Launches != 1 {
		t.Errorf("Add result: %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
	if u := a.LaneUtilization(16); u != 0.5 {
		t.Errorf("utilization = %v", u)
	}
	var zero Stats
	if zero.LaneUtilization(16) != 0 {
		t.Error("zero stats utilization")
	}
}
