package spmd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/vec"
)

func newTestEngine(tasks int, mode Exec) *Engine {
	e := New(machine.Intel8(), vec.TargetAVX512x16, tasks)
	e.Exec = mode
	return e
}

// eachExec runs body as one subtest per scheduler the unit tests cover: live
// (the engine default) and parallel.
func eachExec(t *testing.T, body func(t *testing.T, mode Exec)) {
	for _, m := range []struct {
		name string
		mode Exec
	}{{"live", ExecLive}, {"parallel", ExecParallel}} {
		t.Run(m.name, func(t *testing.T) { body(t, m.mode) })
	}
}

func TestLaunchRunsAllTasks(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(8, mode)
		seen := make([]bool, 8)
		e.Launch(8, func(tc *TaskCtx) {
			if tc.Count != 8 {
				t.Errorf("taskCount = %d", tc.Count)
			}
			if tc.Width != 16 {
				t.Errorf("programCount = %d", tc.Width)
			}
			seen[tc.Index] = true
		})
		for i, s := range seen {
			if !s {
				t.Errorf("task %d did not run", i)
			}
		}
		if e.Stats.Launches != 1 {
			t.Errorf("Launches = %d", e.Stats.Launches)
		}
	})
}

func TestLaunchDefaultTaskCount(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(0, mode) // machine default: 16
		var n atomic.Int32
		e.Launch(0, func(tc *TaskCtx) { n.Add(1) })
		if n.Load() != 16 {
			t.Errorf("default tasks = %d, want 16", n.Load())
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(4, mode)
		phase := make([]int, 4)
		e.Launch(4, func(tc *TaskCtx) {
			phase[tc.Index] = 1
			tc.Barrier()
			// After the barrier every task must observe every phase-1 write.
			for i, p := range phase {
				if p != 1 {
					t.Errorf("task %d saw phase[%d]=%d before barrier release", tc.Index, i, p)
				}
			}
			tc.Barrier()
			phase[tc.Index] = 2
		})
		if e.Stats.Barriers != 2 {
			t.Errorf("Barriers = %d, want 2", e.Stats.Barriers)
		}
	})
}

func TestUnevenBarrierCounts(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		// Tasks that finish early must not deadlock tasks still iterating.
		e := newTestEngine(4, mode)
		total := 0
		e.Launch(4, func(tc *TaskCtx) {
			for i := 0; i <= tc.Index; i++ {
				tc.Barrier()
			}
			total++
		})
		if total != 4 {
			t.Errorf("only %d tasks completed", total)
		}
	})
}

func TestDeterministicTimeAndStats(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		run := func() (float64, Stats) {
			e := newTestEngine(8, mode)
			a := e.AllocI("data", 1024)
			e.Launch(8, func(tc *TaskCtx) {
				idx := vec.Iota()
				m := vec.FullMask(tc.Width)
				for it := 0; it < 10; it++ {
					v := gatherI(tc, a, idx, m, true)
					v = vec.Bin(vec.OpAdd, v, vec.Splat(1), m, tc.Width)
					tc.Op(vec.ClassALU, false)
					scatterI(tc, a, idx, v, m)
					tc.Barrier()
				}
			})
			return e.TimeNS(), e.Stats
		}
		t1, s1 := run()
		t2, s2 := run()
		if t1 != t2 {
			t.Errorf("modeled time not deterministic: %v vs %v", t1, t2)
		}
		if s1 != s2 {
			t.Errorf("stats not deterministic:\n%v\n%v", &s1, &s2)
		}
	})
}

func TestLaunchEmptyCost(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(16, mode)
		e.TaskSys = Pthread
		e.LaunchEmpty(16)
		wantNS := Pthread.LaunchCostNS(16, true)
		if got := e.TimeNS(); got != wantNS {
			t.Errorf("empty launch time = %v ns, want %v", got, wantNS)
		}
	})
}

func TestTaskSystemOrdering(t *testing.T) {
	// Table II: pthread slowest, cilk fastest for empty launches.
	n := 16
	if !(Cilk.LaunchCostNS(n, true) < OpenMP.LaunchCostNS(n, true)) {
		t.Error("cilk should beat openmp on empty launches")
	}
	if !(OpenMP.LaunchCostNS(n, true) < Pthread.LaunchCostNS(n, true)) {
		t.Error("openmp should beat pthread on empty launches")
	}
	// Table III: with real work, openmp has the lowest total overhead.
	for _, ts := range TaskSystems() {
		if ts.Name == "openmp" {
			continue
		}
		if OpenMP.LaunchCostNS(n, false) >= ts.LaunchCostNS(n, false) {
			t.Errorf("openmp real-launch cost should beat %s", ts.Name)
		}
	}
}

func TestTaskSystemByName(t *testing.T) {
	for _, name := range []string{"pthread", "pthread_fs", "cilk", "openmp", "tbb"} {
		ts, err := TaskSystemByName(name)
		if err != nil || ts.Name != name {
			t.Errorf("TaskSystemByName(%q) = %v, %v", name, ts, err)
		}
	}
	if _, err := TaskSystemByName("fibers"); err == nil {
		t.Error("unknown task system accepted")
	}
}

func TestMultiTaskingSpeedsUpComputeBound(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		// The same total compute split over 8 tasks on 8 cores must be ~8x
		// faster than on 1 task.
		timeFor := func(tasks int) float64 {
			e := newTestEngine(tasks, mode)
			e.NoSMT = true
			perTask := 8000 / tasks
			e.Launch(tasks, func(tc *TaskCtx) {
				tc.OpN(vec.ClassALU, false, perTask)
			})
			return e.Machine.CyclesToNS(e.TimeCycles()) - Pthread.LaunchCostNS(tasks, false)
		}
		t1 := timeFor(1)
		t8 := timeFor(8)
		if ratio := t1 / t8; ratio < 7.5 || ratio > 8.5 {
			t.Errorf("8-task speedup = %v, want ~8", ratio)
		}
	})
}

func TestSMTSharesIssueBandwidth(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		// 16 compute-bound tasks on 8 cores (2-way SMT) should take about as
		// long as 8 tasks doing the same per-task work: no SMT benefit.
		perTask := 4000
		run := func(tasks int) float64 {
			e := newTestEngine(tasks, mode)
			e.Launch(tasks, func(tc *TaskCtx) { tc.OpN(vec.ClassALU, false, perTask) })
			return e.TimeCycles() - e.Machine.NSToCycles(Pthread.LaunchCostNS(tasks, false))
		}
		t8 := run(8)
		t16 := run(16)
		// 16 tasks do twice the total work on the same 8 cores.
		if ratio := t16 / t8; ratio < 1.8 || ratio > 2.2 {
			t.Errorf("compute-bound SMT ratio = %v, want ~2 (shared issue)", ratio)
		}
	})
}

func TestContendedAtomicsSerialize(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		// A launch where every task hammers the shared counter must be bounded
		// below by total_atomics * AtomicCycles regardless of task count.
		e := newTestEngine(8, mode)
		e.NoSMT = true
		ctr := e.AllocI("ctr", 1)
		const perTask = 500
		e.Launch(8, func(tc *TaskCtx) {
			for i := 0; i < perTask; i++ {
				tc.AtomicAddScalar(ctr, 0, 1, true)
			}
		})
		if ctr.I[0] != 8*perTask {
			t.Fatalf("counter = %d", ctr.I[0])
		}
		if e.Stats.AtomicPushes != 8*perTask {
			t.Errorf("AtomicPushes = %d", e.Stats.AtomicPushes)
		}
		floor := float64(8*perTask) * e.Machine.AtomicCycles
		if e.TimeCycles() < floor {
			t.Errorf("time %v below serialization floor %v", e.TimeCycles(), floor)
		}
	})
}

func TestUncontendedAtomicsScale(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		// Per-lane atomics on distinct addresses must not impose the global
		// serialization floor: 8 tasks should be much faster than the floor.
		e := newTestEngine(8, mode)
		e.NoSMT = true
		a := e.AllocI("deg", 8*16)
		const iters = 200
		e.Launch(8, func(tc *TaskCtx) {
			base := int32(tc.Index * 16)
			idx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(base), vec.FullMask(16), 16)
			for i := 0; i < iters; i++ {
				atomicAddLanes(tc, a, idx, vec.Splat(1), vec.FullMask(16), false)
			}
		})
		total := float64(8*iters*16) * e.Machine.AtomicCycles
		if e.TimeCycles() > total/4 {
			t.Errorf("distributed atomics too slow: %v vs serial-total %v", e.TimeCycles(), total)
		}
	})
}

func TestPanicBecomesTypedError(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(4, mode)
		err := e.Launch(4, func(tc *TaskCtx) {
			tc.Barrier()
			if tc.Index == 2 {
				panic("boom")
			}
			tc.Barrier()
		})
		if err == nil {
			t.Fatal("expected panicking launch to return an error")
		}
		if !errors.Is(err, fault.ErrKernelPanic) {
			t.Errorf("error %v does not match ErrKernelPanic", err)
		}
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("error %T is not a PanicError", err)
		}
		if pe.Task != 2 || pe.Value != "boom" {
			t.Errorf("PanicError detail = task %d value %v", pe.Task, pe.Value)
		}
	})
}

func TestFailReturnsTypedError(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(4, mode)
		e.MarkPhase("bfs-test")
		e.MarkIteration(7)
		boom := &fault.BoundsError{Op: "gather", Array: "lvl", Lane: 3, Index: 99, Len: 10}
		err := e.Launch(4, func(tc *TaskCtx) {
			tc.Barrier()
			if tc.Index == 1 {
				tc.Fail(boom)
			}
			tc.Barrier()
		})
		if !errors.Is(err, fault.ErrOutOfBounds) {
			t.Fatalf("error %v does not match ErrOutOfBounds", err)
		}
		var be *fault.BoundsError
		if !errors.As(err, &be) || be.Lane != 3 {
			t.Error("bounds detail lost through Launch")
		}
		for _, want := range []string{"task 1", "bfs-test", "iteration 7"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing context %q", err, want)
			}
		}
	})
}

// TestFailDrainsParkedTasks fails task 5 while the other 15 are parked at a
// barrier: the launch must return the typed error, unwind every parked body
// (its defers run, nothing past the barrier executes) and leave no goroutine
// or coroutine behind, and the engine must launch again afterwards.
func TestFailDrainsParkedTasks(t *testing.T) {
	for _, m := range []struct {
		name string
		mode Exec
	}{{"live", ExecLive}, {"cooperative", ExecDeferred}, {"parallel", ExecParallel}} {
		t.Run(m.name, func(t *testing.T) {
			e := newTestEngine(16, m.mode)
			boom := errors.New("task 5 gives up")
			var unwound, passed atomic.Int32
			before := runtime.NumGoroutine()
			err := e.Launch(16, func(tc *TaskCtx) {
				defer unwound.Add(1)
				tc.Barrier()
				if tc.Index == 5 {
					tc.Fail(boom)
				}
				tc.Barrier()
				passed.Add(1)
			})
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), "task 5") {
				t.Fatalf("launch error = %v, want task 5's typed failure", err)
			}
			if u, p := unwound.Load(), passed.Load(); u != 16 || p != 0 {
				t.Errorf("%d of 16 bodies unwound, %d ran past the failed barrier; want 16 and 0", u, p)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("goroutines: %d before the launch, %d after", before, after)
			}
			if err := e.Launch(16, func(tc *TaskCtx) { tc.Barrier() }); err != nil {
				t.Errorf("launch after a drained failure: %v", err)
			}
		})
	}
}

func TestGatherOOBFailsLaunch(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(1, mode)
		a := e.AllocI("lvl", 8)
		err := e.Launch(1, func(tc *TaskCtx) {
			gatherI(tc, a, vec.Splat(42), vec.FullMask(4), false)
		})
		var be *fault.BoundsError
		if !errors.As(err, &be) {
			t.Fatalf("gather OOB returned %v, want BoundsError", err)
		}
		if be.Array != "lvl" || be.Index != 42 || be.Len != 8 {
			t.Errorf("detail = %+v", be)
		}
	})
}

func TestInjectedGatherFault(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		run := func() (error, string) {
			e := newTestEngine(2, mode)
			e.Inject = fault.NewInjector(11, fault.Config{GatherIndex: 0.05})
			a := e.AllocI("dist", 64)
			err := e.Launch(2, func(tc *TaskCtx) {
				for round := 0; round < 40; round++ {
					gatherI(tc, a, vec.Iota(), vec.FullMask(16), true)
				}
			})
			return err, e.Inject.TraceString()
		}
		err1, trace1 := run()
		err2, trace2 := run()
		if !errors.Is(err1, fault.ErrOutOfBounds) {
			t.Fatalf("injected fault surfaced as %v", err1)
		}
		if err2 == nil || err1.Error() != err2.Error() || trace1 != trace2 {
			t.Error("same seed did not reproduce the same failure trace")
		}
		if trace1 == "" {
			t.Error("injector left no trace")
		}
	})
}

func TestBudgetStopsLaunch(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(2, mode)
		e.Budget = fault.Budget{MaxCycles: 1}
		e.AddCycles(10)
		err := e.Launch(2, func(tc *TaskCtx) { t.Error("body ran past budget") })
		if !errors.Is(err, fault.ErrBudgetExceeded) {
			t.Errorf("over-budget launch returned %v", err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e2 := newTestEngine(2, mode)
		e2.Budget = fault.Budget{Ctx: ctx}
		if err := e2.Launch(2, func(tc *TaskCtx) {}); !errors.Is(err, fault.ErrBudgetExceeded) {
			t.Errorf("cancelled-context launch returned %v", err)
		}
	})
}

func TestResetTime(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(2, mode)
		e.Launch(2, func(tc *TaskCtx) { tc.OpN(vec.ClassALU, false, 100) })
		if e.TimeNS() == 0 {
			t.Fatal("no time accumulated")
		}
		e.ResetTime()
		if e.TimeNS() != 0 || e.Stats.Instructions != 0 {
			t.Error("ResetTime did not clear state")
		}
	})
}

func TestAllocAndBind(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(1, mode)
		a := e.AllocI("a", 10)
		b := e.AllocF("b", 10)
		c := e.BindI("c", []int32{1, 2, 3})
		if a.Len() != 10 || b.Len() != 10 || c.Len() != 3 {
			t.Error("lengths wrong")
		}
		if a.Base == b.Base || b.Base == c.Base {
			t.Error("arrays share base addresses")
		}
		if c.Addr(1)-c.Addr(0) != 4 {
			t.Error("element addressing wrong")
		}
		a.FillI(7)
		if a.I[9] != 7 {
			t.Error("FillI")
		}
		b.FillF(1.5)
		if b.F[0] != 1.5 {
			t.Error("FillF")
		}
		if !strings.Contains(a.String(), "a[10]i32") {
			t.Errorf("Array.String = %q", a.String())
		}
	})
}

// TestAllocStopsAtTagRange: the cache model's tags are int32 line numbers,
// so the address space refuses an array that would reach a line past 2^31-1
// (two lines would share a tag and a miss would read as a hit), and an array
// ending exactly at the limit probes like any other. The cursor is moved with
// Rewind, so no host memory stands behind the synthetic range.
func TestAllocStopsAtTagRange(t *testing.T) {
	e := newModeEngine(1, ExecLive)
	limit := int64(1) << 31 << e.Mem.LineShift()
	page := int64(e.Machine.PageSize)
	e.Addr.Rewind(limit - page)
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "31 bits") {
				t.Errorf("an allocation crossing the tag range: recovered %v, want the address-space panic", p)
			}
		}()
		e.AllocI("over", int(page/4)+1)
	}()
	top := e.AllocI("top", int(page/4))
	if top.Base != limit-page {
		t.Fatalf("base %#x after the refused allocation, want %#x", top.Base, limit-page)
	}
	last := int32(top.Len() - 16) // the last line: 16 int32 lanes
	idx := vec.Bin(vec.OpAdd, vec.Iota(), vec.Splat(last), vec.FullMask(16), 16)
	var dst vec.Vec
	err := e.Launch(1, func(tc *TaskCtx) {
		tc.GatherIP(top, &idx, vec.FullMask(16), false, &dst)
		tc.GatherIP(top, &idx, vec.FullMask(16), false, &dst)
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := e.Mem.Hits; h[machine.Mem] != 1 || h[machine.L1] != 31 || e.Mem.Accesses != 32 {
		t.Errorf("two gathers of the top line: hits %v of %d accesses, want one miss to memory and 31 L1 hits", h, e.Mem.Accesses)
	}
}

func TestHWThreadPinning(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(16, mode)
		// First 8 tasks on distinct cores, next 8 reuse them (second SMT way).
		for i := 0; i < 8; i++ {
			if e.coreOf(e.hwThreadOf(i)) != i {
				t.Errorf("task %d core = %d", i, e.coreOf(e.hwThreadOf(i)))
			}
			if e.coreOf(e.hwThreadOf(i+8)) != i {
				t.Errorf("task %d core = %d", i+8, e.coreOf(e.hwThreadOf(i+8)))
			}
		}
		e.NoSMT = true
		if e.hwThreadOf(8) != 0 {
			t.Error("NoSMT should wrap tasks onto cores")
		}
	})
}

func TestGPUTransferAccounting(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := New(machine.QuadroP5000(), vec.TargetGPU32, 64)
		e.AddTransferBytes(12 << 30)
		if e.TimeNS() < 0.9e9 {
			t.Errorf("transfer time = %v", e.TimeNS())
		}
		cpu := newTestEngine(1, mode)
		cpu.AddTransferBytes(12 << 30)
		if cpu.TimeNS() != 0 {
			t.Error("CPU transfer must be free")
		}
	})
}

func TestPinStride(t *testing.T) {
	eachExec(t, func(t *testing.T, mode Exec) {
		e := newTestEngine(4, mode)
		e.NoSMT = true // 8 cores -> 8 logical CPUs in this mode
		e.PinStride = 2
		// The artifact's example: stride 2 interleaves across the CPU list.
		want := []int{0, 2, 4, 6, 1, 3, 5, 7}
		for i, w := range want {
			if got := e.hwThreadOf(i); got != w {
				t.Errorf("task %d -> cpu %d, want %d", i, got, w)
			}
		}
		e.PinStride = 1
		if e.hwThreadOf(3) != 3 {
			t.Error("stride 1 must be identity placement")
		}
	})
}
