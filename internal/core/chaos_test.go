package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
)

// chaosSeeds returns the injection seeds for the chaos sweep. The default is
// sized for the regular test run; `make chaos` (EGACS_CHAOS=full) runs the
// nightly-sized sweep.
func chaosSeeds() []uint64 {
	if os.Getenv("EGACS_CHAOS") == "full" {
		seeds := make([]uint64, 20)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds
	}
	return []uint64{1, 2}
}

// chaosTyped reports whether every error in the chain down from err is part
// of the typed fault taxonomy (or a verification rejection, which is the
// resilience layer's own typed outcome).
func chaosTyped(err error) bool {
	for _, sentinel := range []error{
		fault.ErrOutOfBounds, fault.ErrWorklistOverflow, fault.ErrNonConvergence,
		fault.ErrCorruptGraph, fault.ErrBudgetExceeded, fault.ErrKernelPanic,
		fault.ErrInvariantViolation, fault.ErrTransientFault,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// TestChaos is the chaos gate of the failure model: every benchmark, under
// every corruption class the injector offers (transient machine-checks,
// silent bit flips, forced worklist overflows, corrupted memory indices) at
// escalating rates, driven through RunResilientVerified with checkpointing
// and invariant verification on, must end in exactly one of two states —
// a verified output, or a typed error after exhausting the ladder. Panics and
// silently corrupt results are the two forbidden outcomes; the test fails on
// either (a panic aborts the run, a bad output fails verification here).
//
// The default sweep is CI-sized; `make chaos` (EGACS_CHAOS=full) widens the
// seed list for the nightly-style job.
func TestChaos(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos sweep is not short")
	}
	g0 := recoveryGraph()
	rates := []fault.Config{
		{Transient: 0.3},
		{BitFlip: 0.3},
		{Transient: 0.1, BitFlip: 0.1},
		{Overflow: 0.02, Transient: 0.2},
		{GatherIndex: 0.001, BitFlip: 0.2}, // forces live mode mid-sweep
		{Transient: 0.9, BitFlip: 0.5},     // near-certain degradation
	}
	for _, b := range kernels.All() {
		g := PrepareGraph(b, g0)
		for ri, rate := range rates {
			for _, seed := range chaosSeeds() {
				// The budget is part of the failure model under test: a flip
				// that corrupts loop-control state (e.g. sssp distances) can
				// legitimately drive a pipe loop toward unbounded iteration,
				// and the typed budget/watchdog errors are the designed
				// backstop. Without it a chaos case can spin for minutes.
				cfg := Config{
					Tasks:            4,
					HostExec:         HostParallel,
					CheckpointEvery:  2,
					MaxRollbacks:     5,
					VerifyInvariants: true,
					Budget:           fault.Budget{MaxIters: 5000, StallWindow: 128},
					Inject:           fault.NewInjector(seed, rate),
				}
				res, err := RunResilientVerified(b, g, cfg)
				if err != nil {
					if !chaosTyped(err) {
						t.Errorf("%s rate#%d seed %d: untyped failure: %v", b.Name, ri, seed, err)
					}
					continue
				}
				if res.Output == nil {
					t.Errorf("%s rate#%d seed %d: nil output without error", b.Name, ri, seed)
					continue
				}
				if verr := res.Output.Verify(b, g, cfg.Src); verr != nil {
					t.Errorf("%s rate#%d seed %d: silent corruption served via %q: %v",
						b.Name, ri, seed, res.Path, verr)
				}
				// Every recorded failure along the way must itself be typed:
				// a taxonomy fault or the verified-vector wrapper's output
				// rejection. Anything else is an escape from the failure
				// model.
				for _, a := range res.Errors() {
					if !chaosTyped(a) && !strings.Contains(a.Error(), "output verification") {
						t.Errorf("%s rate#%d seed %d: untyped attempt error: %v", b.Name, ri, seed, a)
					}
				}
			}
		}
	}
}
