package spmd

import (
	"reflect"
	"testing"

	"repro/internal/vec"
)

// chunk runs one launch round that advances every checkpointed quantity:
// array contents (int and float), modeled cycles, stats, cache tags, and the
// engine's iteration span bookkeeping.
func chunk(t *testing.T, e *Engine, a, sum *Array, f *Array, step int32) {
	t.Helper()
	m := vec.FullMask(16)
	err := e.Launch(2, func(tc *TaskCtx) {
		base := int32(tc.Index * 16)
		idx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(base), m, 16)
		v := gatherI(tc, a, idx, m, false)
		v = vec.Bin(vec.OpAdd, v, vec.Splat(step), m, tc.Width)
		tc.Op(vec.ClassALU, false)
		scatterI(tc, a, idx, v, m)
		fv := gatherF(tc, f, idx, m, false)
		tc.Op(vec.ClassBlend, false)
		scatterF(tc, f, idx, fv, m)
		tc.AtomicAddScalar(sum, int32(tc.Index), step, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.IterTick("loop", int64(step), 16, 64)
	e.IterDone("loop")
}

type engineState struct {
	cycles float64
	stats  Stats
	a, sum []int32
	f      []float32
}

func captureState(e *Engine, a, sum, f *Array) engineState {
	return engineState{
		cycles: e.TimeCycles(),
		stats:  e.Stats,
		a:      append([]int32(nil), a.I...),
		sum:    append([]int32(nil), sum.I...),
		f:      append([]float32(nil), f.F...),
	}
}

// TestCheckpointRestoreRoundTrip pins the recovery contract at the engine
// level: restoring a checkpoint and re-executing the same work must land in a
// state bit-identical — arrays, modeled cycles, full statistics — to a run
// that never deviated.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	for _, mode := range []Exec{ExecLive, ExecDeferred, ExecParallel} {
		run := func(disturb bool) engineState {
			e := newModeEngine(2, mode)
			a := e.AllocI("a", 32)
			sum := e.AllocI("sum", 2)
			f := e.AllocF("f", 32)
			chunk(t, e, a, sum, f, 1)

			var cp Checkpoint
			e.Checkpoint(&cp)
			if !cp.Valid() {
				t.Fatal("checkpoint not valid after Checkpoint")
			}

			if disturb {
				// Divergent work: different step, plus direct corruption.
				chunk(t, e, a, sum, f, 9)
				chunk(t, e, a, sum, f, 5)
				a.I[3] ^= 1 << 20
				e.Restore(&cp)
			}
			chunk(t, e, a, sum, f, 2)
			chunk(t, e, a, sum, f, 3)
			return captureState(e, a, sum, f)
		}
		clean := run(false)
		recovered := run(true)
		if clean.cycles != recovered.cycles {
			t.Errorf("mode %d: cycles diverge: clean %v, recovered %v", mode, clean.cycles, recovered.cycles)
		}
		if !reflect.DeepEqual(clean.stats, recovered.stats) {
			t.Errorf("mode %d: stats diverge:\nclean     %+v\nrecovered %+v", mode, clean.stats, recovered.stats)
		}
		if !reflect.DeepEqual(clean.a, recovered.a) || !reflect.DeepEqual(clean.sum, recovered.sum) ||
			!reflect.DeepEqual(clean.f, recovered.f) {
			t.Errorf("mode %d: array contents diverge after restore + re-execution", mode)
		}
	}
}

// TestCheckpointArrayAccessors covers the dense id-indexed views used by
// invariant validators for last-checkpoint comparisons.
func TestCheckpointArrayAccessors(t *testing.T) {
	e := newTestEngine(1)
	a := e.AllocI("a", 8)
	f := e.AllocF("f", 4)
	for i := range a.I {
		a.I[i] = int32(i * 3)
	}
	for i := range f.F {
		f.F[i] = float32(i) / 2
	}
	var cp Checkpoint
	if cp.Valid() {
		t.Error("zero checkpoint reports valid")
	}
	e.Checkpoint(&cp)
	if got := cp.ArrayI(a.ID()); !reflect.DeepEqual(got, a.I) {
		t.Errorf("ArrayI(%d) = %v, want %v", a.ID(), got, a.I)
	}
	if got := cp.ArrayF(f.ID()); !reflect.DeepEqual(got, f.F) {
		t.Errorf("ArrayF(%d) = %v, want %v", f.ID(), got, f.F)
	}
	if cp.ArrayI(f.ID()) != nil || cp.ArrayF(a.ID()) != nil {
		t.Error("typed accessor returned data for an array of the other type")
	}
	if cp.ArrayI(99) != nil || cp.ArrayI(-1) != nil {
		t.Error("out-of-range id returned data")
	}
	// Snapshot is a copy, not an alias.
	a.I[0] = 42
	if cp.ArrayI(a.ID())[0] == 42 {
		t.Error("checkpoint aliases live array storage")
	}
	cp.Invalidate()
	if cp.Valid() {
		t.Error("checkpoint valid after Invalidate")
	}
}

// TestCheckpointSteadyStateAllocationFree pins the hot-path cost contract:
// once a Checkpoint's buffers have grown to working size, re-checkpointing
// and restoring allocate nothing, so a checkpointing run's allocation profile
// matches a non-checkpointing one after the first snapshot.
func TestCheckpointSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	e := newModeEngine(2, ExecDeferred)
	a := e.AllocI("a", 256)
	f := e.AllocF("f", 256)
	_ = a
	_ = f
	var cp Checkpoint
	e.Checkpoint(&cp) // warmup: grow all snapshot buffers
	if allocs := testing.AllocsPerRun(100, func() {
		e.Checkpoint(&cp)
		e.Restore(&cp)
	}); allocs != 0 {
		t.Errorf("steady-state checkpoint+restore allocates %.1f objects, want 0", allocs)
	}
}
