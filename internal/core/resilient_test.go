package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/baselines"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// typed reports whether err belongs to the fault taxonomy.
func typed(err error) bool {
	for _, s := range []error{
		fault.ErrOutOfBounds, fault.ErrWorklistOverflow, fault.ErrNonConvergence,
		fault.ErrCorruptGraph, fault.ErrBudgetExceeded, fault.ErrKernelPanic,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// The headline acceptance test: with 1% fault injection on gather indices,
// every benchmark either returns a typed error on its vector attempts or
// succeeds, the degradation chain always serves a correct result, no panic
// escapes, and the same seed reproduces the same failure trace.
func TestInjectionCampaignAllBenchmarks(t *testing.T) {
	base := graph.Random(200, 1200, 16, 9)
	base.SortAdjacency()
	for _, b := range kernels.AllWithExtensions() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			g := PrepareGraph(b, base)
			run := func() (string, *kernels.ResilientResult, error) {
				inj := fault.NewInjector(77, fault.Config{GatherIndex: 0.01})
				res, err := RunResilient(b, g, Config{Inject: inj})
				return inj.TraceString(), res, err
			}
			trace1, r1, err := run()
			if err != nil {
				t.Fatalf("degradation chain exhausted: %v", err)
			}
			for _, aerr := range r1.Attempts {
				if !typed(aerr) {
					t.Errorf("attempt error outside the taxonomy: %v", aerr)
				}
			}
			if err := r1.Output.Verify(b, g, 0); err != nil {
				t.Errorf("served result (path %s) incorrect: %v", r1.Path, err)
			}

			trace2, r2, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if trace1 != trace2 || r1.Path != r2.Path || len(r1.Attempts) != len(r2.Attempts) {
				t.Fatalf("seed 77 not reproducible: path %s/%s, %d/%d attempts",
					r1.Path, r2.Path, len(r1.Attempts), len(r2.Attempts))
			}
			for i := range r1.Attempts {
				if r1.Attempts[i].Error() != r2.Attempts[i].Error() {
					t.Errorf("attempt %d differs across identical seeds:\n%v\nvs\n%v",
						i, r1.Attempts[i], r2.Attempts[i])
				}
			}
		})
	}
}

// With certain injection the vector path must fail with a typed error and
// the fallback must serve output identical to the scalar baseline run
// directly.
func TestFallbackMatchesScalarBaseline(t *testing.T) {
	b := mustKernel(t, "bfs-wl")
	g := graph.Random(150, 900, 8, 4)
	g.SortAdjacency()

	cfg := Config{Inject: fault.NewInjector(3, fault.Config{GatherIndex: 1.0})}
	res, err := RunResilient(b, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatalf("vector path served despite certain injection (path %s)", res.Path)
	}
	if len(res.Attempts) < 2 {
		t.Errorf("vector attempt not retried: %d attempts", len(res.Attempts))
	}
	for _, aerr := range res.Attempts[:2] {
		if !errors.Is(aerr, fault.ErrOutOfBounds) {
			t.Errorf("injected gather fault surfaced as %v", aerr)
		}
	}

	var fw *baselines.Framework
	for _, f := range baselines.Frameworks() {
		if f.Supports(b.Name) {
			fw = f
			break
		}
	}
	if fw == nil {
		t.Fatal("no baseline framework supports bfs-wl")
	}
	if res.Path != fw.Name {
		t.Fatalf("served by %s, want first supporting framework %s", res.Path, fw.Name)
	}
	cfgd := cfg.withDefaults()
	direct, err := fw.Run(b.Name, g, cfgd.Machine, cfgd.Tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Output.GetI("lvl"), direct.OutI["lvl"]
	if len(got) != len(want) {
		t.Fatalf("fallback lvl has %d entries, direct run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback lvl[%d] = %d, direct baseline %d", i, got[i], want[i])
		}
	}
}

func TestBudgetThroughConfig(t *testing.T) {
	b := mustKernel(t, "bfs-wl")
	g := graph.Road(8, 8, 4, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(b, g, Config{Budget: fault.Budget{Ctx: ctx}}); !errors.Is(err, fault.ErrBudgetExceeded) {
		t.Errorf("cancelled run returned %v", err)
	}

	if _, err := Run(b, g, Config{Budget: fault.Budget{MaxIters: 2}}); !errors.Is(err, fault.ErrBudgetExceeded) {
		t.Errorf("iteration-capped run returned %v", err)
	}

	// A generous budget must not disturb a healthy run.
	res, err := RunVerified(b, g, Config{Budget: fault.Budget{MaxIters: 1 << 20, StallWindow: 64}})
	if err != nil || res == nil {
		t.Errorf("healthy run under generous budget failed: %v", err)
	}
}
