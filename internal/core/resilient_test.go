package core

import (
	"context"
	"errors"
	"testing"

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
			for _, aerr := range r1.Errors() {
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
			e1, e2 := r1.Errors(), r2.Errors()
			if trace1 != trace2 || r1.Path != r2.Path || len(e1) != len(e2) {
				t.Fatalf("seed 77 not reproducible: path %s/%s, %d/%d attempts",
					r1.Path, r2.Path, len(e1), len(e2))
			}
			for i := range e1 {
				if e1[i].Error() != e2[i].Error() {
					t.Errorf("attempt %d differs across identical seeds:\n%v\nvs\n%v",
						i, e1[i], e2[i])
				}
			}
		})
	}
}

// With certain injection the vector path must fail with a typed error on
// both attempts and the reference must serve, bit-equal to the benchmark's
// serial Reference run directly.
func TestFallbackMatchesReference(t *testing.T) {
	b := mustKernel(t, "bfs-wl")
	g := graph.Random(150, 900, 8, 4)
	g.SortAdjacency()

	cfg := Config{Inject: fault.NewInjector(3, fault.Config{GatherIndex: 1.0})}
	res, err := RunResilient(b, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != "reference" || !res.Degraded() {
		t.Fatalf("served by %s despite certain injection, want reference", res.Path)
	}
	errs := res.Errors()
	if len(errs) != 2 {
		t.Errorf("vector attempt not retried: %d failed attempts", len(errs))
	}
	for _, aerr := range errs {
		if !errors.Is(aerr, fault.ErrOutOfBounds) {
			t.Errorf("injected gather fault surfaced as %v", aerr)
		}
	}

	direct := b.Reference(g, runParams(b, g, cfg), 0)
	got, want := res.Output.GetI("lvl"), direct.GetI("lvl")
	if len(got) != len(want) {
		t.Fatalf("served lvl has %d entries, direct reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("served lvl[%d] = %d, direct reference %d", i, got[i], want[i])
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
