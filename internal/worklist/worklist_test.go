package worklist

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/fault"

	"repro/internal/machine"
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

func TestInitAndHostOps(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 16)
		if w.Cap() != 16 || w.Size() != 0 {
			t.Fatalf("fresh worklist: cap=%d size=%d", w.Cap(), w.Size())
		}
		w.InitSequence(5)
		if w.Size() != 5 || w.Items.I[4] != 4 {
			t.Errorf("InitSequence: %v", w.Slice())
		}
		w.InitWith(9, 8, 7)
		got := w.Slice()
		if len(got) != 3 || got[0] != 9 || got[2] != 7 {
			t.Errorf("InitWith: %v", got)
		}
		w.PushHost(6)
		if w.Size() != 4 || w.Slice()[3] != 6 {
			t.Errorf("PushHost: %v", w.Slice())
		}
		w.Clear()
		if w.Size() != 0 {
			t.Error("Clear failed")
		}
	})
}

func TestInitOverflowTypedError(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 2)
		err := w.InitSequence(5)
		if !errors.Is(err, fault.ErrWorklistOverflow) {
			t.Fatalf("InitSequence overflow returned %v", err)
		}
		var oe *fault.OverflowError
		if !errors.As(err, &oe) || oe.Worklist != "wl" || oe.Push != 5 || oe.Cap != 2 {
			t.Errorf("overflow detail = %+v", oe)
		}
		if err := w.InitWith(1, 2, 3); !errors.Is(err, fault.ErrWorklistOverflow) {
			t.Errorf("InitWith overflow returned %v", err)
		}
		if err := w.InitWith(1, 2); err != nil {
			t.Errorf("in-capacity InitWith failed: %v", err)
		}
	})
}

func TestInitOverflowDebugPanics(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		DebugPanics = true
		defer func() {
			DebugPanics = false
			if recover() == nil {
				t.Fatal("expected panic under DebugPanics")
			}
		}()
		e := newEngine(mode)
		w := New(e, "wl", 2)
		w.InitSequence(5)
	})
}

func TestGrowOnOverflow(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 4)
		w.Grow = true
		if err := w.InitSequence(3); err != nil {
			t.Fatal(err)
		}
		for i := int32(3); i < 40; i++ {
			if err := w.PushHost(i); err != nil {
				t.Fatalf("grow-enabled PushHost(%d) failed: %v", i, err)
			}
		}
		if w.Cap() < 40 || w.Size() != 40 {
			t.Fatalf("cap=%d size=%d after growth", w.Cap(), w.Size())
		}
		for i, v := range w.Slice() {
			if v != int32(i) {
				t.Fatalf("item %d = %d after growth", i, v)
			}
		}
	})
}

func TestGrowOnTaskPush(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 4)
		w.Grow = true
		err := e.Launch(2, func(tc *spmd.TaskCtx) {
			for round := 0; round < 4; round++ {
				w.PushCoop(tc, vec.Iota(), vec.FullMask(16))
			}
		})
		if err != nil {
			t.Fatalf("grow-enabled push failed: %v", err)
		}
		if w.Size() != 2*4*16 {
			t.Errorf("size = %d, want %d", w.Size(), 2*4*16)
		}
	})
}

func TestInjectedOverflow(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		e.Inject = fault.NewInjector(5, fault.Config{Overflow: 1.0})
		w := New(e, "wl", 1024)
		w.Grow = true // injection must fire even on growable lists
		err := e.Launch(1, func(tc *spmd.TaskCtx) {
			w.PushCoop(tc, vec.Iota(), vec.FullMask(16))
		})
		var oe *fault.OverflowError
		if !errors.As(err, &oe) || !oe.Injected {
			t.Fatalf("injected overflow surfaced as %v", err)
		}
		if len(e.Inject.Trace()) == 0 {
			t.Error("injector left no trace")
		}
	})
}

// collectPushed verifies no-loss/no-duplication: every pushed value appears
// exactly once regardless of push strategy and task interleaving.
func collectPushed(t *testing.T, mode spmd.Exec, push func(w *WL, tc *spmd.TaskCtx, val vec.Vec, m vec.Mask)) []int32 {
	t.Helper()
	e := newEngine(mode)
	w := New(e, "wl", 1024)
	e.Launch(4, func(tc *spmd.TaskCtx) {
		for round := 0; round < 4; round++ {
			base := int32(tc.Index*100 + round*16)
			val := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(base), vec.FullMask(16), 16)
			// Irregular masks exercise packing.
			m := vec.Mask(0x5A5A) & vec.FullMask(16)
			push(w, tc, val, m)
		}
	})
	out := append([]int32(nil), w.Slice()...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func expectedPushed() []int32 {
	var want []int32
	for task := 0; task < 4; task++ {
		for round := 0; round < 4; round++ {
			base := int32(task*100 + round*16)
			for lane := 0; lane < 16; lane++ {
				if vec.Mask(0x5A5A).Bit(lane) {
					want = append(want, base+int32(lane))
				}
			}
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

func TestPushLanesNoLossNoDup(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		got := collectPushed(t, mode, func(w *WL, tc *spmd.TaskCtx, val vec.Vec, m vec.Mask) {
			w.PushLanes(tc, val, m)
		})
		want := expectedPushed()
		if len(got) != len(want) {
			t.Fatalf("pushed %d items, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestPushCoopNoLossNoDup(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		got := collectPushed(t, mode, func(w *WL, tc *spmd.TaskCtx, val vec.Vec, m vec.Mask) {
			w.PushCoop(tc, val, m)
		})
		want := expectedPushed()
		if len(got) != len(want) {
			t.Fatalf("pushed %d items, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestCoopReducesAtomics(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		run := func(coop bool) int64 {
			e := newEngine(mode)
			w := New(e, "wl", 4096)
			e.Launch(4, func(tc *spmd.TaskCtx) {
				for round := 0; round < 8; round++ {
					val := vec.Iota()
					m := vec.FullMask(16)
					if coop {
						w.PushCoop(tc, val, m)
					} else {
						w.PushLanes(tc, val, m)
					}
				}
			})
			return e.Stats.AtomicPushes
		}
		unopt := run(false)
		coop := run(true)
		if unopt != 4*8*16 {
			t.Errorf("unoptimized pushes = %d, want %d", unopt, 4*8*16)
		}
		if coop != 4*8 {
			t.Errorf("coop pushes = %d, want %d (one per vector)", coop, 4*8)
		}
		if unopt/coop != 16 {
			t.Errorf("reduction factor = %d, want 16 (SIMD width)", unopt/coop)
		}
	})
}

func TestReserveWriteReserved(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 256)
		e.Launch(2, func(tc *spmd.TaskCtx) {
			// Each task knows it will push exactly 24 items: one atomic each.
			pos := w.Reserve(tc, 24)
			for round := 0; round < 3; round++ {
				base := int32(tc.Index*1000 + round*8)
				val := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(base), vec.FullMask(8), 8)
				pos += w.WriteReserved(tc, pos, val, vec.FullMask(8))
			}
		})
		if w.Size() != 48 {
			t.Fatalf("size = %d", w.Size())
		}
		if e.Stats.AtomicPushes != 2 {
			t.Errorf("pushes = %d, want 2 (one per task)", e.Stats.AtomicPushes)
		}
		seen := map[int32]bool{}
		for _, x := range w.Slice() {
			if seen[x] {
				t.Fatalf("duplicate item %d", x)
			}
			seen[x] = true
		}
	})
}

func TestReserveZeroNoAtomic(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 8)
		e.Launch(1, func(tc *spmd.TaskCtx) {
			if pos := w.Reserve(tc, 0); pos != 0 {
				t.Errorf("Reserve(0) = %d", pos)
			}
		})
		if e.Stats.AtomicPushes != 0 {
			t.Error("Reserve(0) issued an atomic")
		}
	})
}

func TestPushEmptyMaskNoAtomic(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 8)
		e.Launch(1, func(tc *spmd.TaskCtx) {
			w.PushCoop(tc, vec.Iota(), 0)
			w.PushLanes(tc, vec.Iota(), 0)
		})
		if e.Stats.AtomicPushes != 0 || w.Size() != 0 {
			t.Error("empty-mask push had effects")
		}
	})
}

func TestOverflowTypedError(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 4)
		err := e.Launch(1, func(tc *spmd.TaskCtx) {
			w.PushCoop(tc, vec.Iota(), vec.FullMask(16))
		})
		if !errors.Is(err, fault.ErrWorklistOverflow) {
			t.Fatalf("overflow push returned %v", err)
		}
		var oe *fault.OverflowError
		if !errors.As(err, &oe) || oe.Push != 16 || oe.Cap != 4 {
			t.Errorf("overflow detail = %+v", oe)
		}
	})
}

func TestGetGathersItems(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 16)
		w.InitWith(40, 41, 42, 43)
		var got vec.Vec
		e.Launch(1, func(tc *spmd.TaskCtx) {
			got = w.Get(tc, vec.Iota(), vec.FullMask(4), vec.Splat(-1))
		})
		if got[0] != 40 || got[3] != 43 {
			t.Errorf("Get = %v", got[:4])
		}
	})
}

func TestSizeCounted(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		w := New(e, "wl", 8)
		w.InitSequence(3)
		var n int32
		e.Launch(1, func(tc *spmd.TaskCtx) { n = w.SizeCounted(tc) })
		if n != 3 {
			t.Errorf("SizeCounted = %d", n)
		}
		if e.Stats.ScalarOps == 0 {
			t.Error("SizeCounted not cost-accounted")
		}
	})
}

func TestPairSwap(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		p := NewPair(e, "bfs", 32)
		p.In.InitSequence(4)
		p.Out.InitSequence(7)
		in, out := p.In, p.Out
		p.Swap()
		if p.In != out || p.Out != in {
			t.Fatal("Swap did not exchange")
		}
		if p.Out.Size() != 0 {
			t.Error("Swap must clear the new out list")
		}
		if p.In.Size() != 7 {
			t.Error("Swap must preserve the new in list")
		}
	})
}
