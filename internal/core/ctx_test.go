package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// countingCtx is a fake context whose Err flips to Canceled after n checks —
// a deterministic stand-in for "the client hung up mid-kernel". Counting the
// checks also proves the engine polls the context from inside the run, not
// just at attempt boundaries.
type countingCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
	done  chan struct{}
	once  sync.Once
}

func newCountingCtx(n int64) *countingCtx {
	return &countingCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.n {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{} { return c.done }

// TestCancelDuringIteration is the satellite regression for mid-kernel
// cancellation: a context that goes done after a fixed number of budget polls
// stops a PageRank run inside its pipe loop — the run had already burned
// modeled cycles — with a typed deadline BudgetError, and the degradation
// chain is abandoned rather than falling back (nobody is left to serve).
func TestCancelDuringIteration(t *testing.T) {
	b := mustKernel(t, "pr")
	g := graph.Random(300, 2400, 16, 5)
	g.SortAdjacency()

	// Baseline: how many polls does an undisturbed run make?
	probe := newCountingCtx(1 << 60)
	if _, err := RunResilientVerifiedCtx(probe, b, g, Config{}); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	polls := probe.calls.Load()
	if polls < 8 {
		t.Fatalf("undisturbed run polled the context only %d times; cannot cancel mid-run", polls)
	}

	// Cancel halfway through the polls the run would make.
	ctx := newCountingCtx(polls / 2)
	res, err := RunResilientVerifiedCtx(ctx, b, g, Config{})
	if err == nil {
		t.Fatalf("run served (path %s) despite mid-kernel cancellation", res.Path)
	}
	if !errors.Is(err, fault.ErrBudgetExceeded) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation surfaced as %v, want deadline BudgetError wrapping Canceled", err)
	}
	var be *fault.BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Errorf("error %v lacks the deadline resource", err)
	}
	// Only the interrupted vector attempt may appear; no fallback ran after
	// the caller was gone.
	if len(res.History) != 1 || res.History[0].Path != "vector" {
		t.Fatalf("history after cancellation = %+v, want the one vector attempt", res.History)
	}
	if res.History[0].Cycles <= 0 {
		t.Errorf("interrupted attempt recorded no modeled cycles; cancellation did not land mid-run")
	}
	if res.Output != nil {
		t.Error("cancelled run still produced output")
	}
}

// TestCancelConfigCtxPrecedence pins that an explicit Budget.Ctx in the
// config wins over the call context, so callers can decouple the chain gate
// from the per-run watchdog.
func TestCancelConfigCtxPrecedence(t *testing.T) {
	b := mustKernel(t, "bfs-wl")
	g := graph.Road(8, 8, 4, 1)

	inner, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunResilientVerifiedCtx(context.Background(), b, g, Config{Budget: fault.Budget{Ctx: inner}})
	// The vector attempts die on the cancelled budget ctx, but the chain ctx
	// is live, so the scalar ladder serves.
	if err != nil {
		t.Fatalf("live chain ctx did not rescue a dead budget ctx: %v", err)
	}
	if !res.Degraded() {
		t.Fatalf("vector path served under a cancelled budget ctx (path %s)", res.Path)
	}
	if err := res.Output.Verify(b, g, 0); err != nil {
		t.Errorf("degraded result incorrect: %v", err)
	}
}

// TestConcurrentBudgets is the satellite race test: many engines run in
// parallel, each with its own deadline, iteration cap and stall window. Under
// -race this pins that per-request budgets, injectors and engines share no
// state. Every run must either serve a verified result or fail typed.
func TestConcurrentBudgets(t *testing.T) {
	names := []string{"bfs-wl", "sssp-nf", "pr", "cc"}
	base := graph.Random(200, 1400, 16, 11)
	base.SortAdjacency()

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := kernels.ByName(names[w%len(names)])
			if err != nil {
				errs[w] = err
				return
			}
			g := PrepareGraph(b, base)
			cfg := Config{Src: int32(w % 50)}
			ctx := context.Background()
			switch w % 4 {
			case 0: // tight iteration cap — vector dies typed, fallback serves
				cfg.Budget = fault.Budget{MaxIters: 1 + w%3}
			case 1: // generous budget with stall watchdog
				cfg.Budget = fault.Budget{MaxIters: 1 << 20, StallWindow: 64}
			case 2: // per-request deadline, generous enough to finish
				c, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				ctx = c
			case 3: // transient injection — retry or fallback must absorb it
				cfg.Inject = fault.NewInjector(uint64(w), fault.Config{Transient: 0.005})
			}
			res, err := RunResilientVerifiedCtx(ctx, b, g, cfg)
			if err != nil {
				if !typed(err) {
					errs[w] = err
				}
				return
			}
			if verr := res.Output.Verify(b, g, cfg.Src); verr != nil {
				errs[w] = verr
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// TestEngineReuseNeedsSameMachine: an engine built for another machine model
// must not be reused; the run falls back to a fresh engine and verifies.
func TestEngineReuseNeedsSameMachine(t *testing.T) {
	pooled := spmd.New(machine.Intel8(), vec.TargetAVX512x16, 4)
	b := mustKernel(t, "bfs-wl")
	res, err := RunVerified(b, graph.Random(250, 1800, 16, 3), Config{Machine: machine.ARM64(), Engine: pooled})
	if err != nil {
		t.Fatalf("mismatched-machine run: %v", err)
	}
	if res.Engine == pooled {
		t.Error("engine pooled for another machine model was reused")
	}
}

// TestPooledEngineSequenceMatchesFresh runs bfs, sssp and cc tenant after
// tenant on one engine, on graphs of size large, small, large: each run takes
// the worklist storage of the one before, smaller than it needs, then larger.
// Every run must match the same run on a fresh engine in outputs, Stats,
// recovery counters and modeled cycles, with and without rollbacks.
func TestPooledEngineSequenceMatchesFresh(t *testing.T) {
	m := machine.Intel8()
	sizes := []*graph.CSR{graph.RMAT(9, 8, 63, 5), graph.Random(40, 160, 63, 6), graph.RMAT(9, 8, 63, 7)}
	recovery := map[string]func() Config{
		"plain": func() Config { return Config{} },
		"rollbacks": func() Config {
			return Config{CheckpointEvery: 1, MaxRollbacks: 200, Inject: fault.NewInjector(42, fault.Config{Transient: 0.15})}
		},
	}
	for _, exec := range []HostExec{HostLive, HostCooperative, HostParallel} {
		for name, base := range recovery {
			var pooled *spmd.Engine
			for step, raw := range sizes {
				for _, k := range []string{"bfs-wl", "sssp-nf", "cc"} {
					b := mustKernel(t, k)
					g := PrepareGraph(b, raw)
					cfg := base()
					cfg.Machine, cfg.HostExec, cfg.Src = m, exec, g.MaxDegreeNode()
					want := snapshot(Run(b, g, cfg))
					cfg = base()
					cfg.Machine, cfg.HostExec, cfg.Src, cfg.Engine = m, exec, g.MaxDegreeNode(), pooled
					res, err := Run(b, g, cfg)
					got := snapshot(res, err)
					if err == nil {
						if pooled != nil && res.Engine != pooled {
							t.Fatalf("exec %d %s step %d %s: the engine was not reused", exec, name, step, k)
						}
						pooled = res.Engine
					}
					if err := want.diff(got, fAll, nil); err != nil {
						t.Errorf("exec %d %s step %d %s: pooled run diverges from fresh: %v", exec, name, step, k, err)
					}
				}
			}
		}
	}
}
