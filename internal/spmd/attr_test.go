package spmd

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// phaseCycles indexes an attribution's per-phase totals by phase name.
func phaseCycles(a obs.Attribution) map[string]float64 {
	m := map[string]float64{}
	for i := range a.Phases {
		m[a.Phases[i].Phase] = a.Phases[i].Total()
	}
	return m
}

func TestProfileAttributesPhases(t *testing.T) {
	e := New(machine.Intel8(), vec.TargetAVX512x16, 2)
	e.Launch(2, func(tc *TaskCtx) {
		tc.MarkPhase("light")
		tc.OpN(vec.ClassALU, false, 10)
		tc.Barrier()
		tc.MarkPhase("heavy")
		tc.OpN(vec.ClassALU, false, 100000)
	})
	a := e.Attribution()
	if !sort.SliceIsSorted(a.Phases, func(i, j int) bool { return a.Phases[i].Phase < a.Phases[j].Phase }) {
		t.Errorf("phases not in sorted-name order: %+v", a.Phases)
	}
	got := phaseCycles(a)
	if got["light"] <= 0 {
		t.Fatalf("light phase carries no cycles: %v", got)
	}
	if got["heavy"] <= got["light"] {
		t.Errorf("heavy phase should carry more cycles: %v", got)
	}
	if a.Total() != e.TimeCycles() {
		t.Errorf("attribution total %v != clock %v", a.Total(), e.TimeCycles())
	}
}

// TestProfileIdenticalAcrossModes: the per-phase cycle attribution must be
// bit-identical whether tasks run live, deferred-cooperative or on real
// goroutines. Deferred and parallel tasks log their phase marks and the merge
// boundary replays them in task order; without that replay every segment's
// cost would land in whichever phase the host last marked.
func TestProfileIdenticalAcrossModes(t *testing.T) {
	run := func(mode Exec) obs.Attribution {
		e := New(machine.Intel8(), vec.TargetAVX512x16, 4)
		e.Exec = mode
		acc := e.AllocI("acc", 64)
		err := e.Launch(4, func(tc *TaskCtx) {
			tc.MarkPhase("init")
			tc.OpN(vec.ClassALU, false, 50+tc.Index)
			tc.Barrier()
			tc.MarkPhase("relax")
			tc.OpN(vec.ClassGather, false, 2000)
			tc.AtomicAddScalar(acc, int32(tc.Index), 1, false)
			tc.Barrier()
			tc.MarkPhase("compact")
			tc.OpN(vec.ClassALU, false, 10*(tc.Index+1))
		})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		return e.Attribution()
	}
	ref := run(ExecLive)
	got := phaseCycles(ref)
	for _, ph := range []string{"init", "relax", "compact"} {
		if got[ph] <= 0 {
			t.Errorf("live: phase %q carries no cycles: %v", ph, got)
		}
	}
	for _, mode := range []Exec{ExecDeferred, ExecParallel} {
		if a := run(mode); !reflect.DeepEqual(a, ref) {
			t.Errorf("mode %d attribution diverges from live:\n got %+v\nlive %+v", mode, a, ref)
		}
	}
}
