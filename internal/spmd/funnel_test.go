package spmd

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/vec"
)

// funnelOp is one vector memory access to be charged: indexed lanes of one
// kind (run == false) or a unit-stride run from start (run == true).
type funnelOp struct {
	arr   int
	run   bool
	idx   vec.Vec
	start int32
	m     vec.Mask
	kind  machine.AccessKind
}

// countingPager is a deterministic spmd.Pager: the first touch of each 4 KiB
// page faults.
type countingPager struct{ seen map[int64]bool }

func (p *countingPager) Touch(addr int64) (float64, bool) {
	if pg := addr >> 12; !p.seen[pg] {
		p.seen[pg] = true
		return 250, true
	}
	return 0, false
}

// funnelRig is one engine with a single task positioned inside a segment of
// the configuration under test.
type funnelRig struct {
	e    *Engine
	tc   *TaskCtx
	arrs []*Array
}

func newFunnelRig(mode Exec, stageFree, paged bool) *funnelRig {
	e := newModeEngine(1, mode)
	if paged {
		e.Pager = &countingPager{seen: map[int64]bool{}}
	}
	e.setActiveThreads(1)
	r := &funnelRig{e: e, arrs: []*Array{
		e.AllocI("small", 48),     // a few lines: L1-resident, heavy run folding
		e.AllocI("big", 1<<15),    // 128 KiB: misses past L1 and L2 sets
		e.AllocF("rank", 5000),    // odd length, float-typed
		e.AllocI("edge", 1<<13+7), // 32 KiB+: L1 capacity evictions
	}}
	r.tc = e.newTasks(1, mode)[0]
	if stageFree {
		r.tc.MarkStageFree()
	}
	return r
}

// viaFunnel charges op through the code under test.
func (r *funnelRig) viaFunnel(o *funnelOp) {
	if o.run {
		r.tc.chargeRun("vload", r.arrs[o.arr], o.start, o.m)
		return
	}
	r.tc.chargeLanes("gather", r.arrs[o.arr], &o.idx, o.m, o.kind)
}

// viaNoteAccess charges op the way every primitive did before the funnel
// existed and scalar ops still do: one checkLane + noteAccess per active
// lane, ascending.
func (r *funnelRig) viaNoteAccess(o *funnelOp) {
	tc, a := r.tc, r.arrs[o.arr]
	for i := 0; i < tc.Width; i++ {
		if !o.m.Bit(i) {
			continue
		}
		if o.run {
			kind := machine.AccStream
			if i == 0 {
				kind = machine.AccLoad
			}
			tc.checkLane("vload", a, i, o.start+int32(i))
			tc.noteAccess(a.Addr(o.start+int32(i)), kind)
			continue
		}
		tc.checkLane("gather", a, i, o.idx[i])
		tc.noteAccess(a.Addr(o.idx[i]), o.kind)
	}
}

// charged is everything a charge can move.
type charged struct {
	Mode    uint8
	Acc     []int64 // trace words, run-length folding included
	Held    costVec // per-class stalls already charged before the merge boundary
	Stalls  costVec // per-class stalls once the segment's trace has replayed
	Mem     machine.MemCounters
	Faults  int64
	FaultNS float64
}

// settle snapshots the recorded trace and the stalls the task holds, then
// replays the trace exactly as the merge boundary would, so deferred and live
// rigs are compared on the same terms: per-class stalls and cache-model
// counters.
func (r *funnelRig) settle() charged {
	c := charged{Held: r.tc.stl}
	if d := r.tc.def; d != nil {
		c.Mode = d.mode
		c.Acc = append([]int64{}, d.acc...)
		r.e.replayAccesses(r.tc)
		d.acc = d.acc[:0]
	}
	c.Stalls = r.tc.stl
	c.Mem = r.e.Mem.Counters()
	c.Faults, c.FaultNS = r.tc.st.PageFaults, r.e.faultNS
	return c
}

// settled is the part of a charge that no costing mode may change.
func (c charged) settled() charged {
	return charged{Stalls: c.Stalls, Mem: c.Mem, Faults: c.Faults, FaultNS: c.FaultNS}
}

// checkTiming holds a mode to when it charges: a recording segment holds no
// stall before its trace replays; every other mode charges at the probe,
// records no trace and leaves the replay nothing to add.
func checkTiming(t *testing.T, seed int64, c charged) {
	t.Helper()
	if c.Mode == segRecording {
		if c.Held != (costVec{}) {
			t.Fatalf("seed %d: recording segment charged stalls before the merge: %v", seed, c.Held)
		}
		return
	}
	if len(c.Acc) != 0 || c.Held != c.Stalls {
		t.Fatalf("seed %d: mode %d recorded %d trace words; held %v before the merge, %v after", seed, c.Mode, len(c.Acc), c.Held, c.Stalls)
	}
}

// catchBounds runs f and returns the typed bounds error it unwound with.
func catchBounds(f func()) (be *fault.BoundsError) {
	defer func() {
		if p := recover(); p != nil {
			tf, ok := p.(taskFailure)
			if !ok || !errors.As(tf.err, &be) {
				panic(p)
			}
		}
	}()
	f()
	return nil
}

func randFunnelOp(r *rand.Rand, arrs []*Array, width int) funnelOp {
	o := funnelOp{arr: r.Intn(len(arrs)), kind: machine.AccessKind(r.Intn(4))}
	n := int32(arrs[o.arr].Len())
	switch r.Intn(4) {
	case 0:
		o.m = vec.FullMask(width)
	case 1:
		o.m = vec.Mask(r.Uint32()) & vec.FullMask(width) & vec.Mask(r.Uint32())
	default:
		o.m = vec.Mask(r.Uint32()) & vec.FullMask(width)
	}
	if r.Intn(4) == 0 {
		o.run = true
		o.start = r.Int31n(n - int32(width))
		return o
	}
	base := r.Int31n(n)
	for i := range o.idx {
		switch {
		case !o.m.Bit(i):
			o.idx[i] = r.Int31() - 1<<30 // inactive lanes may hold anything
		case r.Intn(3) == 0:
			o.idx[i] = r.Int31n(n) // scattered: misses
		default:
			o.idx[i] = (base + r.Int31n(24)) % n // clustered: same-line folding
		}
	}
	return o
}

// TestChargeFunnelMatchesNoteAccess is the direct oracle for the accounting
// funnel. Both backends share chargeLanes/chargeRun, so the interp-vs-compiled
// differentials can no longer see a mischarge; this test can: random access
// batches go through the funnel on one engine and through per-lane
// checkLane+noteAccess on an identically built twin, in every costing
// configuration, and everything a charge can move must match — trace words
// (folding included), the stalls held before the merge, per-class stalls bit
// for bit, cache-model hit counters, pager counters — as must the typed error
// and the flushed state when a lane is out of bounds. A third, live rig fed
// the same batches pins the costing modes to each other: stalls, counters and
// page faults after the merge equal the live ones in every row.
func TestChargeFunnelMatchesNoteAccess(t *testing.T) {
	configs := []struct {
		name             string
		mode             Exec
		stageFree, paged bool
		wantMode         uint8
	}{
		{"live", ExecLive, false, false, 0},
		{"stage-free-cooperative", ExecDeferred, true, false, segImmediate},
		{"recording-cooperative", ExecDeferred, false, false, segRecording},
		{"recording-parallel", ExecParallel, true, false, segRecording}, // mark ignored
		{"live-paged", ExecLive, false, true, 0},
		{"stage-free-paged", ExecDeferred, true, true, segImmediate},
		{"recording-paged", ExecDeferred, false, true, segRecording},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got := newFunnelRig(cfg.mode, cfg.stageFree, cfg.paged)
				want := newFunnelRig(cfg.mode, cfg.stageFree, cfg.paged)
				live := newFunnelRig(ExecLive, false, cfg.paged)
				if got.e.stallTab[machine.AccLoad][machine.L1] == 0 {
					t.Fatal("stall table not built; the comparison would be vacuous")
				}
				if d := got.tc.def; d != nil && !cfg.stageFree {
					// An op with no active lane is no access: it must leave the
					// segment undecided, so a later MarkStageFree still takes.
					got.viaFunnel(&funnelOp{run: seed%2 == 0})
					if d.mode != segUndecided {
						t.Fatalf("seed %d: empty-mask op moved the segment to mode %d", seed, d.mode)
					}
				}
				for n := 0; n < 150; n++ {
					o := randFunnelOp(rng, got.arrs, got.tc.Width)
					got.viaFunnel(&o)
					want.viaNoteAccess(&o)
					live.viaFunnel(&o)
				}
				g, w, l := got.settle(), want.settle(), live.settle()
				if g.Mode != cfg.wantMode {
					t.Fatalf("seed %d: segment mode %d, want %d", seed, g.Mode, cfg.wantMode)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d: funnel diverges from per-lane noteAccess\n got %+v\nwant %+v", seed, g, w)
				}
				checkTiming(t, seed, g)
				if !reflect.DeepEqual(g.settled(), l.settled()) {
					t.Fatalf("seed %d: merged charge diverges from the live rig\n got %+v\nlive %+v", seed, g.settled(), l.settled())
				}
				if g.Stalls == (costVec{}) || g.Mem.Hits[machine.L1] == 0 || g.Mem.Hits[machine.L1] == g.Mem.Accesses {
					t.Fatalf("seed %d: workload charged nothing or never missed: %+v", seed, g)
				}

				// The violation starts a new segment: a segment end zeroes the
				// stall buckets (aggregateSegment), and the modes agree on the
				// sum a segment charges, not on sums continued across a merge.
				for _, r := range []*funnelRig{got, want, live} {
					r.tc.stl = costVec{}
				}

				// A violation at lane k: same typed error, and lanes below k
				// charged (hoisted accumulators flushed) exactly as the
				// reference charged them before unwinding.
				o := randFunnelOp(rng, got.arrs, got.tc.Width)
				k := 3 + rng.Intn(got.tc.Width-3)
				o.m |= 1 << uint(k)
				bad := int32(got.arrs[o.arr].Len()) + rng.Int31n(9)
				if rng.Intn(2) == 0 {
					bad = -1 - rng.Int31n(9)
				}
				wantBE := fault.BoundsError{Op: "gather", Array: got.arrs[o.arr].Name, Lane: k, Index: bad, Len: got.arrs[o.arr].Len()}
				if o.run {
					// A run goes out of bounds at its first lane past the end.
					o.start = int32(got.arrs[o.arr].Len()) - int32(k)
					o.m = o.m&vec.Mask(1<<uint(k)-1) | 1<<uint(k)
					wantBE.Op, wantBE.Index = "vload", o.start+int32(k)
				} else {
					o.idx[k] = bad
					for i := 0; i < k; i++ {
						if o.m.Bit(i) {
							o.idx[i] = rng.Int31n(int32(got.arrs[o.arr].Len()))
						}
					}
				}
				gbe := catchBounds(func() { got.viaFunnel(&o) })
				wbe := catchBounds(func() { want.viaNoteAccess(&o) })
				catchBounds(func() { live.viaFunnel(&o) })
				if gbe == nil || wbe == nil || *gbe != *wbe || *gbe != wantBE {
					t.Fatalf("seed %d: bounds errors: funnel %+v, reference %+v, want %+v", seed, gbe, wbe, wantBE)
				}
				g, w, l = got.settle(), want.settle(), live.settle()
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d: state after a lane-%d violation diverges\n got %+v\nwant %+v", seed, k, g, w)
				}
				checkTiming(t, seed, g)
				if !reflect.DeepEqual(g.settled(), l.settled()) {
					t.Fatalf("seed %d: merged charge after a lane-%d violation diverges from the live rig\n got %+v\nlive %+v", seed, k, g.settled(), l.settled())
				}
			}
		})
	}
}
