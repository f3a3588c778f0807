package spmd

import (
	"reflect"
	"testing"

	"repro/internal/machine"
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

			if e.HasCheckpoint() {
				t.Fatal("engine holds a checkpoint before Checkpoint")
			}
			e.Checkpoint()
			if !e.HasCheckpoint() {
				t.Fatal("engine holds no checkpoint after Checkpoint")
			}

			if disturb {
				// Divergent work: different step, plus direct corruption.
				chunk(t, e, a, sum, f, 9)
				chunk(t, e, a, sum, f, 5)
				a.I[3] ^= 1 << 20
				e.Restore()
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

// TestCheckpointArrayAccessors covers the per-array views used by invariant
// validators for last-checkpoint comparisons.
func TestCheckpointArrayAccessors(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(1, mode)
		a := e.AllocI("a", 8)
		f := e.AllocF("f", 4)
		shared := []int32{7, 8, 9}
		b := e.BindI("b", shared)
		for i := range a.I {
			a.I[i] = int32(i * 3)
		}
		for i := range f.F {
			f.F[i] = float32(i) / 2
		}
		if e.CheckpointI(a) != nil || e.CheckpointF(f) != nil {
			t.Error("accessor returned data before any Checkpoint")
		}
		e.Checkpoint()
		if got := e.CheckpointI(a); !reflect.DeepEqual(got, a.I) {
			t.Errorf("CheckpointI(a) = %v, want %v", got, a.I)
		}
		if got := e.CheckpointF(f); !reflect.DeepEqual(got, f.F) {
			t.Errorf("CheckpointF(f) = %v, want %v", got, f.F)
		}
		if e.CheckpointI(f) != nil || e.CheckpointF(a) != nil {
			t.Error("typed accessor returned data for an array of the other type")
		}
		if e.CheckpointI(b) != nil {
			t.Error("accessor returned data for a bound array")
		}
		// Snapshot is a copy, not an alias.
		a.I[0] = 42
		if e.CheckpointI(a)[0] == 42 {
			t.Error("checkpoint aliases live array storage")
		}
		// Restore rewinds allocated arrays and never writes a bound one.
		shared[1] = -1
		e.Restore()
		if a.I[0] != 0 {
			t.Errorf("Restore left a.I[0] = %d, want 0", a.I[0])
		}
		if shared[1] != -1 {
			t.Error("Restore wrote to a bound array's caller-owned slice")
		}
		e.DropCheckpoint()
		if e.HasCheckpoint() || e.CheckpointI(a) != nil {
			t.Error("checkpoint still visible after DropCheckpoint")
		}
	})
}

// TestCheckpointSurvivesResetAllAsBuffersOnly pins what a pooled engine
// carries from one run to the next: ResetAll drops the recovery point (the
// accessors go nil although the buffers still hold the previous run's data),
// and an id that was an allocated array last run and is a bound one now
// reports nil even after the next Checkpoint.
func TestCheckpointSurvivesResetAllAsBuffersOnly(t *testing.T) {
	e := newModeEngine(2, ExecDeferred)
	a := e.AllocI("a", 64)
	a.FillI(0x41)
	e.Checkpoint()

	e.ResetAll(vec.TargetAVX512x16, 2)
	if e.HasCheckpoint() {
		t.Fatal("recovery point survived ResetAll")
	}
	b := e.BindI("b", make([]int32, 64)) // reissues a's id
	c := e.AllocI("c", 16)
	if b.ID() != a.ID() {
		t.Fatalf("dense ids did not restart: b has id %d, a had %d", b.ID(), a.ID())
	}
	if e.CheckpointI(b) != nil || e.CheckpointI(c) != nil {
		t.Fatal("accessor surfaced the previous run's data after ResetAll")
	}
	e.Checkpoint()
	if e.CheckpointI(b) != nil {
		t.Error("bound array reports checkpoint contents (a stale buffer of the same id)")
	}
	if got := e.CheckpointI(c); len(got) != 16 {
		t.Errorf("CheckpointI(c) has %d elements, want 16", len(got))
	}
}

// TestCheckpointSteadyStateAllocationFree pins the hot-path cost contract:
// once the recovery point's buffers have grown to working size,
// re-checkpointing and restoring allocate nothing — so a checkpointing run's
// allocation profile matches a non-checkpointing one after the first snapshot
// — and they keep that size across ResetAll: a second run on the engine whose
// array population fits the first one's allocates nothing from its very first
// checkpoint.
func TestCheckpointSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	e := newModeEngine(2, ExecDeferred)
	e.AllocI("a", 256)
	e.AllocF("f", 256)
	e.Checkpoint() // warmup: grow all snapshot buffers
	if allocs := testing.AllocsPerRun(100, func() {
		e.Checkpoint()
		e.Restore()
	}); allocs != 0 {
		t.Errorf("steady-state checkpoint+restore allocates %.1f objects, want 0", allocs)
	}

	e.ResetAll(vec.TargetAVX512x16, 2)
	e.BindI("g", make([]int32, 4096)) // bound: needs no buffer at any size
	e.AllocF("f2", 200)
	e.AllocI("a2", 100)
	if allocs := testing.AllocsPerRun(100, func() {
		e.Checkpoint()
		e.Restore()
	}); allocs != 0 {
		t.Errorf("checkpoint+restore after ResetAll allocates %.1f objects, want 0", allocs)
	}
}

// TestRestoreReleasesScratchTakenAfter pins that Restore hands back the
// scratch slabs taken after the snapshot (a worklist's growth replacement):
// the re-execution's allocation gets the same slab, cleared, at the same
// synthetic address, and the slabs taken before the snapshot keep their
// contents.
func TestRestoreReleasesScratchTakenAfter(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 1)
	kept := e.AllocScratchI("kept", 8)
	kept.I[3] = 7
	e.Checkpoint()
	grown := e.AllocScratchI("grown", 32)
	grown.I[31] = 9
	e.Restore()
	again := e.AllocScratchI("grown", 32)
	if &again.I[0] != &grown.I[0] || again.Base != grown.Base {
		t.Fatalf("re-allocation after Restore got another slab or address (base %#x, was %#x)", again.Base, grown.Base)
	}
	if again.I[31] != 0 {
		t.Fatalf("re-allocated slab holds %d from before the rollback", again.I[31])
	}
	if kept.I[3] != 7 {
		t.Fatalf("slab taken before the snapshot lost its contents: %d", kept.I[3])
	}
}
