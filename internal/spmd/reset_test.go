package spmd

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/fault"
	"repro/internal/vec"
)

// scatterSentinels runs one deferred launch that writes sentinel into every
// element of a freshly allocated n-element array and returns the array.
func scatterSentinels(t *testing.T, e *Engine, name string, sentinel int32) *Array {
	t.Helper()
	a := e.AllocI(name, 16)
	m := vec.FullMask(16)
	err := e.LaunchNoBarrier(1, func(tc *TaskCtx) {
		scatterI(tc, a, vec.Iota(), vec.Splat(sentinel), m)
	})
	if err != nil {
		t.Fatalf("sentinel launch: %v", err)
	}
	return a
}

// TestResetAllIsolatesRuns is the request-pool regression test: two
// consecutive runs on one engine must be fully isolated. Without the
// generation bump in ResetAll, the second run's first deferred launch would
// reach a pooled shadow buffer still keyed to the first run's arrays and
// panic on the foreign-array check (or worse, serve the first run's pending
// values); with it, the second run sees pristine state.
func TestResetAllIsolatesRuns(t *testing.T) {
	e := newModeEngine(1, ExecDeferred)

	// Run 1 ("tenant A"): fill an array with sentinels through the deferred
	// write path so the pooled context's shadow table learns its layout.
	a1 := scatterSentinels(t, e, "tenantA", 0x41414141)
	for i, v := range a1.I {
		if v != 0x41414141 {
			t.Fatalf("run 1: a1[%d] = %#x, want sentinel", i, v)
		}
	}
	if e.nArrays == 0 {
		t.Fatal("run 1 registered no arrays")
	}
	footprint := e.Addr.Footprint()

	e.ResetAll(vec.TargetAVX512x16, 1)

	if e.nArrays != 0 || len(e.arrays) != 0 || e.nPush != 0 {
		t.Fatalf("ResetAll left registry state: nArrays=%d len=%d nPush=%d",
			e.nArrays, len(e.arrays), e.nPush)
	}
	if e.Addr.Footprint() != 0 {
		t.Fatalf("ResetAll left address-space footprint %d (was %d)",
			e.Addr.Footprint(), footprint)
	}
	if e.TimeCycles() != 0 || e.Stats != (Stats{}) {
		t.Fatal("ResetAll left clock or statistics")
	}

	// Run 2 ("tenant B"): same-shape allocation receives the same dense id
	// as tenant A's array. A gather before any write must observe zeros —
	// never tenant A's sentinels — and must not panic.
	a2 := e.AllocI("tenantB", 16)
	if a2.id != 0 {
		t.Fatalf("dense ids did not restart: a2.id = %d, want 0", a2.id)
	}
	var got vec.Vec
	m := vec.FullMask(16)
	err := e.LaunchNoBarrier(1, func(tc *TaskCtx) {
		got = gatherI(tc, a2, vec.Iota(), m, false)
	})
	if err != nil {
		t.Fatalf("run 2 launch: %v", err)
	}
	for lane := 0; lane < 16; lane++ {
		if got[lane] != 0 {
			t.Fatalf("run 2 observed prior tenant's data: lane %d = %#x", lane, got[lane])
		}
	}
	// The first run's output snapshot must be untouched by the reuse.
	for i, v := range a1.I {
		if v != 0x41414141 {
			t.Fatalf("run 1 output mutated by reuse: a1[%d] = %#x", i, v)
		}
	}
}

// TestResetAllClearsRunConfig pins that attachments and budgets from one
// request can't leak into the next: a budget, injector and SMT setting
// configured for run 1 are gone after ResetAll.
func TestResetAllClearsRunConfig(t *testing.T) {
	e := newModeEngine(2, ExecDeferred)
	e.Budget = fault.Budget{MaxIters: 3, MaxCycles: 12, StallWindow: 2}
	e.Inject = fault.NewInjector(7, fault.Config{Transient: 1})
	e.NoSMT = true
	e.AddCycles(1e6)

	e.ResetAll(vec.TargetAVX512x16, 2)

	if e.Budget.Enabled() {
		t.Error("budget survived ResetAll")
	}
	if e.Inject != nil {
		t.Error("injector survived ResetAll")
	}
	if e.NoSMT {
		t.Error("NoSMT survived ResetAll")
	}
	if e.TimeCycles() != 0 {
		t.Error("modeled clock survived ResetAll")
	}
}

// TestResetAllEpochWrap exercises the PR-3 epoch-wrap boundary on the reuse
// path: a pooled shadow whose epoch sits at the uint32 maximum wraps during
// the next run's segment clears. The wrap rewrites all stamps, so no element
// written under an ancient epoch may alias a future one — a reused engine
// must keep returning committed values, not stale pending writes.
func TestResetAllEpochWrap(t *testing.T) {
	e := newModeEngine(1, ExecDeferred)

	// Prime the pool with a context whose shadows exist, then push its
	// epochs to the wrap boundary. Under -race sync.Pool drops Puts at
	// random, so re-prime until the pooled context comes back.
	var d *deferredCtx
	for i := 0; i < 50 && (d == nil || len(d.shadows) == 0); i++ {
		scatterSentinels(t, e, fmt.Sprintf("prime%d", i), 7)
		d = e.getDeferredCtx()
	}
	if len(d.shadows) == 0 {
		t.Fatal("pooled context has no shadows to age")
	}
	for _, sh := range d.shadows {
		if sh == nil {
			continue
		}
		// Simulate a shadow one clear away from wrapping, with every stamp
		// claiming validity under the current epoch — the most adversarial
		// aliasing setup the wrap handling must defuse.
		sh.epoch = math.MaxUint32
		for i := range sh.sv {
			sh.sv[i] = uint64(math.MaxUint32) << 32
		}
	}
	d.reset() // segment clear at the boundary: wraps to epoch 1, stamps rewritten
	for _, sh := range d.shadows {
		if sh == nil {
			continue
		}
		if sh.epoch != 1 {
			t.Fatalf("epoch after wrap = %d, want 1", sh.epoch)
		}
		for i, w := range sh.sv {
			if uint32(w>>32) == sh.epoch {
				t.Fatalf("stamp[%d] aliases the post-wrap epoch: stale write resurfaces", i)
			}
		}
	}
	defPool.Put(d)

	// Full reuse cycle across the wrapped pool: reset the engine and run a
	// fresh tenant; the recycled (wrapped, then generation-dropped) context
	// must serve clean reads.
	e.ResetAll(vec.TargetAVX512x16, 1)
	a := e.AllocI("fresh", 16)
	m := vec.FullMask(16)
	var got vec.Vec
	err := e.LaunchNoBarrier(1, func(tc *TaskCtx) {
		scatterI(tc, a, vec.Iota(), vec.Splat(9), m)
		got = gatherI(tc, a, vec.Iota(), m, false)
	})
	if err != nil {
		t.Fatalf("post-wrap launch: %v", err)
	}
	for lane := 0; lane < 16; lane++ {
		if got[lane] != 9 {
			t.Fatalf("post-wrap read lane %d = %d, want 9", lane, got[lane])
		}
	}
	for i, v := range a.I {
		if v != 9 {
			t.Fatalf("post-wrap commit a[%d] = %d, want 9", i, v)
		}
	}
}

// TestResetAllKeepsLayoutFreeCapacity pins the economics of engine pooling:
// op-log and access-trace capacity survives ResetAll (only the dense-id-keyed
// shadow and batch tables drop), so a reused engine's second run does not
// regrow every buffer from zero.
func TestResetAllKeepsLayoutFreeCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; retention economics are untestable here")
	}
	// A collection between Put and Get empties the pool and reads as lost
	// capacity (~2 % of runs under -count); the property is about ResetAll.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := newModeEngine(1, ExecDeferred)
	scatterSentinels(t, e, "grow", 1)
	d := e.getDeferredCtx()
	opsCap, accCap := cap(d.ops), cap(d.acc)
	if opsCap == 0 || accCap == 0 {
		t.Fatalf("priming run grew nothing: ops cap %d, acc cap %d", opsCap, accCap)
	}
	defPool.Put(d)

	e.ResetAll(vec.TargetAVX512x16, 1)
	d = e.getDeferredCtx()
	if len(d.shadows) != 0 {
		t.Errorf("shadow table survived generation bump: len %d", len(d.shadows))
	}
	if cap(d.ops) != opsCap || cap(d.acc) != accCap {
		t.Errorf("layout-free capacity dropped: ops %d->%d, acc %d->%d",
			opsCap, cap(d.ops), accCap, cap(d.acc))
	}
	defPool.Put(d)
}
