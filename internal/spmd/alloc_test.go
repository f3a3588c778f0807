package spmd

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// allocSink is a minimal PushTarget for exercising the staging hot path
// without importing the worklist package (which would cycle).
type allocSink struct {
	arr  *Array
	tail int32
	id   int32
}

func newAllocSink(e *Engine, capacity int) *allocSink {
	return &allocSink{arr: e.AllocI("sink", capacity), id: e.RegisterPushTarget()}
}

func (s *allocSink) PushID() int32 { return s.id }

func (s *allocSink) Materialize(items []int32) (*Array, int32, error) {
	start := s.tail
	copy(s.arr.I[start:], items)
	s.tail += int32(len(items))
	return s.arr, start, nil
}

// TestDeferredHotPathAllocationFree pins the tentpole property: once shadow
// buffers, logs, traces and batches have grown to working size, the per-lane
// deferred hot path — gather, scatter, per-lane atomics, push staging —
// performs zero heap allocations. A regression here means a map, a fresh
// buffer, or an interface box crept back into the inner loop.
func TestDeferredHotPathAllocationFree(t *testing.T) {
	e := newModeEngine(1, ExecDeferred)
	a := e.AllocI("a", 64)
	f := e.AllocF("f", 64)
	sink := newAllocSink(e, 1)
	tc := e.newTasks(1, ExecDeferred)[0]
	m := vec.FullMask(16)
	idx := vec.Iota()
	val := vec.Splat(7)

	work := func() {
		var pv vec.Vec
		var pf vec.FVec
		tc.GatherIP(a, &idx, m, false, &pv)
		tc.ScatterIP(a, &idx, &pv, m)
		tc.GatherFP(f, &idx, m, false, &pf)
		tc.ScatterFP(f, &idx, &pf, m)
		tc.LoadVecIP(a, 0, m, &pv)
		tc.AtomicAddLanesP(a, &idx, &val, m, false)
		tc.AtomicAddFLanesP(f, &idx, &pf, m)
		tc.AtomicMinLanesP(a, &idx, &val, m)
		tc.AtomicCASLanesP(a, &idx, &val, &val, m)
		b := tc.Batch(sink)
		off := b.StageMasked(val, m, tc.Width)
		tc.NoteStaged(b, off, int32(m.PopCount()))
	}
	// Grow every buffer past what the measured runs will need, then reset to
	// the (capacity-preserving) segment-start state.
	for i := 0; i < 300; i++ {
		work()
	}
	tc.def.reset()
	if allocs := testing.AllocsPerRun(200, work); allocs != 0 {
		t.Errorf("deferred hot path allocates %.1f objects per op sequence, want 0", allocs)
	}
}

// TestStageFreeHotPathAllocationFree holds the stage-free cooperative segment
// (MarkStageFree: probe now, charge the stall at the probe) to the same
// zero-allocation bar, and pins what the funnel leaves there: no trace words,
// nothing on an access-stall class for AccPlain accesses (scatter and
// atomics), whose stall row is zero, and the load lanes' stalls already in
// the task's class buckets before any merge.
func TestStageFreeHotPathAllocationFree(t *testing.T) {
	e := newModeEngine(1, ExecDeferred)
	a := e.AllocI("a", 64)
	f := e.AllocF("f", 64)
	tc := e.newTasks(1, ExecDeferred)[0]
	m := vec.FullMask(16)
	idx := vec.Iota()
	val := vec.Splat(7)
	var pv vec.Vec
	var pf vec.FVec

	loads := func() {
		tc.GatherIP(a, &idx, m, false, &pv)
		tc.GatherFP(f, &idx, m, false, &pf)
		tc.LoadVecIP(a, 0, m, &pv)
	}
	stores := func() {
		tc.ScatterIP(a, &idx, &pv, m)
		tc.ScatterFP(f, &idx, &pf, m)
		tc.AtomicAddLanesP(a, &idx, &val, m, false)
		tc.AtomicAddFLanesP(f, &idx, &pf, m)
		tc.AtomicMinLanesP(a, &idx, &val, m)
		tc.AtomicCASLanesP(a, &idx, &val, &val, m)
	}
	accessStalls := func() float64 {
		var s float64
		for _, c := range accCostClass {
			s += tc.stl[c]
		}
		return s
	}
	tc.MarkStageFree()
	stores()
	if s := accessStalls(); s != 0 {
		t.Errorf("AccPlain accesses charged %v access-stall cycles, want 0", s)
	}
	if n := len(tc.def.ops); n == 0 {
		t.Error("stores logged no ops")
	}
	if e.Mem.Accesses == 0 {
		t.Error("stage-free stores did not probe the hierarchy")
	}
	loads()
	if tc.stl[accCostClass[tc.gatherKind()]] == 0 || tc.stl[accCostClass[machine.AccLoad]] == 0 {
		t.Errorf("load stalls not held in the task's buckets before the merge: %v", tc.stl)
	}
	if len(tc.def.acc) != 0 {
		t.Error("stage-free segment recorded trace words")
	}

	work := func() { loads(); stores() }
	for i := 0; i < 300; i++ {
		work()
	}
	tc.def.reset()
	tc.MarkStageFree()
	if allocs := testing.AllocsPerRun(200, work); allocs != 0 {
		t.Errorf("stage-free hot path allocates %.1f objects per op sequence, want 0", allocs)
	}
}

// TestTracingAddsNoAllocations pins both halves of the observability
// overhead contract at the launch level. The tc-level hot path is
// allocation-free (previous test); here a full launch round — launch spans
// on both clocks, iteration span + metrics row, swap instant — must cost
// exactly the same number of objects with observability attached as
// without: with it disabled the hooks bail on a nil check, and with it
// enabled every event lands in the pre-sized buffers (a full buffer drops
// and counts, never grows). The round uses the goroutine-free
// LaunchNoBarrier inline path so the per-round allocation count is
// deterministic; barrier-span recording is a plain ring write covered by
// the obs package's own zero-alloc test.
func TestTracingAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	measure := func(traced bool) float64 {
		e := newModeEngine(4, ExecDeferred)
		if traced {
			e.Trace = obs.NewTracer(1 << 14)
			e.Metrics = obs.NewMetrics(1 << 8)
		}
		a := e.AllocI("a", 64)
		m := vec.FullMask(16)
		body := func(tc *TaskCtx) {
			idx := vec.Iota()
			v := gatherI(tc, a, idx, m, false)
			scatterI(tc, a, idx, v, m)
			tc.OpN(vec.ClassALU, false, 8)
		}
		round := func() {
			if err := e.LaunchNoBarrier(4, body); err != nil {
				t.Fatal(err)
			}
			e.IterTick("loop", 1, 16, 64)
			e.IterDone("loop")
			e.NoteSwap(16)
		}
		for i := 0; i < 50; i++ {
			round()
		}
		allocs := testing.AllocsPerRun(100, round)
		if traced && e.Trace.Len() == 0 {
			t.Error("tracer recorded nothing")
		}
		return allocs
	}
	base := measure(false)
	traced := measure(true)
	if traced > base {
		t.Errorf("tracing adds allocations: %.1f per round traced vs %.1f untraced",
			traced, base)
	}
}

// TestAttributionAddsNoAllocations pins the attribution overhead contract:
// a launch round whose task bodies mark phases must cost exactly the same
// number of objects per round as one whose bodies never mark. At steady
// state a mark is a map hit moving the int32 cursor (deferred bodies append
// to the pooled, capacity-retaining phase log), a charge is an indexed add
// into a fixed-size array, and the boundary refold touches only
// pre-registered slots — nothing on the path may allocate. Both variants
// pay the host-side Engine.MarkPhase (whose failure-context pointer store
// predates attribution and boxes one string per call), so the measured
// difference isolates the per-task attribution path.
func TestAttributionAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	measure := func(marked bool) float64 {
		e := newModeEngine(4, ExecDeferred)
		a := e.AllocI("a", 64)
		m := vec.FullMask(16)
		body := func(tc *TaskCtx) {
			if marked {
				tc.MarkPhase("gather")
			}
			idx := vec.Iota()
			v := gatherI(tc, a, idx, m, false)
			if marked {
				tc.MarkPhase("scatter")
			}
			scatterI(tc, a, idx, v, m)
			tc.OpN(vec.ClassALU, false, 8)
		}
		round := func() {
			e.MarkPhase("host")
			if err := e.LaunchNoBarrier(4, body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			round()
		}
		allocs := testing.AllocsPerRun(100, round)
		attr := e.Attribution()
		if got, want := attr.Total(), e.TimeCycles(); got != want {
			t.Errorf("marked=%v: attribution total %v != cycles %v", marked, got, want)
		}
		return allocs
	}
	base := measure(false)
	marked := measure(true)
	if marked > base {
		t.Errorf("attribution adds allocations: %.1f per round marked vs %.1f unmarked",
			marked, base)
	}
}

// TestPoolReuseAcrossLaunches drives many launches through one engine so
// deferred contexts, shadows and batches are recycled from the pool, and
// checks the results stay bit-identical to live execution and across repeated
// runs. Launches alternate which half of the array they write while always
// reading all of it, so a stale shadow epoch or a leftover batch from a
// previous launch would surface as a wrong value.
//
// The repeated-run comparison doubles as the determinism guard for the
// former map-based implementation: the deferred structures are now slices
// traversed in insertion order (shadows by array id, batches by first-use
// order), and the remaining map iteration in the codebase — kernel array
// footprints (module.go) — folds commutatively.
func TestPoolReuseAcrossLaunches(t *testing.T) {
	run := func(mode Exec) (float64, Stats, []int32) {
		e := newModeEngine(4, mode)
		a := e.AllocI("a", 128)
		sum := e.AllocI("sum", 4)
		m := vec.FullMask(16)
		for launch := 0; launch < 6; launch++ {
			half := int32(launch%2) * 64
			err := e.Launch(4, func(tc *TaskCtx) {
				base := int32(tc.Index * 16)
				// Read the task's stripe of both halves into a shared checksum.
				for _, start := range [2]int32{base, 64 + base} {
					idx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(start), m, 16)
					v := gatherI(tc, a, idx, m, false)
					tc.Op(vec.ClassReduce, false)
					tc.AtomicAddScalar(sum, int32(tc.Index), vec.ReduceAdd(v, m, 16), false)
				}
				tc.Barrier()
				// Write this launch's half, each task a disjoint 16-wide stripe.
				widx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(half+base), m, 16)
				v := gatherI(tc, a, widx, m, false)
				v = vec.Bin(vec.OpAdd, v, vec.Splat(int32(launch+1)), m, tc.Width)
				tc.Op(vec.ClassALU, false)
				scatterI(tc, a, widx, v, m)
			})
			if err != nil {
				t.Fatalf("mode %d launch %d: %v", mode, launch, err)
			}
			// Host-side mutation between launches: a shadow entry surviving the
			// launch boundary (a missed epoch bump) would mask these values in
			// the next launch's gathers and diverge from live execution.
			for j := range a.I {
				a.I[j] += int32(j % 3)
			}
		}
		out := append(append([]int32(nil), a.I...), sum.I...)
		return e.TimeCycles(), e.Stats, out
	}

	cyc, stats, out := run(ExecLive)
	for _, mode := range []Exec{ExecDeferred, ExecParallel} {
		for trial := 0; trial < 2; trial++ {
			c, s, o := run(mode)
			if c != cyc {
				t.Errorf("mode %d trial %d: cycles %v != live %v", mode, trial, c, cyc)
			}
			if s != stats {
				t.Errorf("mode %d trial %d: stats diverge:\n%v\n%v", mode, trial, &s, &stats)
			}
			if !reflect.DeepEqual(o, out) {
				t.Errorf("mode %d trial %d: outputs diverge from live", mode, trial)
			}
		}
	}
}

// TestBarrierHandoffAllocationFree pins the cost of the cooperative
// scheduler's task handoff on a reused engine: a 16-task launch allocates
// the same number of objects with 8 barriers as with 1 (a barrier is a
// coroutine switch, not an allocation), and a whole launch stays below
// 13.6 KB, which a goroutine and two channels per task plus a fresh TaskCtx
// per task reach (coroutines and the engine's reused task buffer take about
// 5.8 KB).
func TestBarrierHandoffAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	// A collection would empty the deferred-context pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mode := range []Exec{ExecLive, ExecDeferred} {
		e := newModeEngine(16, mode)
		launch := func(barriers int) func() {
			body := func(tc *TaskCtx) {
				for i := 0; i < barriers; i++ {
					tc.Barrier()
				}
			}
			return func() {
				if err := e.Launch(16, body); err != nil {
					t.Fatal(err)
				}
			}
		}
		one, eight := launch(1), launch(8)
		one()
		eight()
		if a1, a8 := testing.AllocsPerRun(50, one), testing.AllocsPerRun(50, eight); a8 != a1 {
			t.Errorf("mode %d: %.1f objects per launch with 8 barriers, %.1f with 1; barriers must not allocate", mode, a8, a1)
		}
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			eight()
		}
		runtime.ReadMemStats(&m1)
		if b := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; b >= 13600 {
			t.Errorf("mode %d: %.0f bytes per 16-task launch, want < 13.6 KB", mode, b)
		}
	}
}
