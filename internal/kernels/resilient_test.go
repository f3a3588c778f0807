package kernels

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Every benchmark's serial Reference must satisfy its own verifier — the
// last link of the degradation chain has to produce accepted results.
func TestReferencePassesVerify(t *testing.T) {
	g := graph.Random(200, 1200, 16, 7)
	g.SortAdjacency()
	sym := g.Symmetrize()
	for _, b := range AllWithExtensions() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Reference == nil {
				t.Fatal("benchmark has no Reference")
			}
			in := g
			if b.NeedsSymmetric {
				in = sym
			}
			params := map[string]int32{}
			if b.Params != nil {
				for k, v := range b.Params(in) {
					params[k] = v
				}
			}
			out := b.Reference(in, params, 0)
			if err := out.Verify(b, in, 0); err != nil {
				t.Errorf("reference output rejected: %v", err)
			}
		})
	}
}

func TestRunResilientChain(t *testing.T) {
	b, err := ByName("bfs-wl")
	if err != nil {
		t.Fatal(err)
	}
	g := path4()
	boom := errors.New("vector blew up")
	ok := &RunOutput{I: map[string][]int32{"lvl": RefBFS(g, 0)}}

	calls := 0
	failN := func(n int) func() (*RunOutput, Cost, error) {
		calls = 0
		return func() (*RunOutput, Cost, error) {
			calls++
			if calls <= n {
				return nil, Cost{Cycles: 100}, fmt.Errorf("attempt %d: %w", calls, boom)
			}
			return ok, Cost{Cycles: 1000}, nil
		}
	}

	res, err := RunResilient(context.Background(), b, g, nil, 0, failN(0))
	if err != nil || res.Path != "vector" || len(res.Errors()) != 0 {
		t.Errorf("clean run: path=%s attempts=%d err=%v", res.Path, len(res.Errors()), err)
	}

	res, err = RunResilient(context.Background(), b, g, nil, 0, failN(1))
	if err != nil || res.Path != "vector-retry" || len(res.Errors()) != 1 {
		t.Errorf("retry run: path=%s attempts=%d err=%v", res.Path, len(res.Errors()), err)
	}
	if res.Degraded() {
		t.Error("retry path reported as degraded")
	}

	res, err = RunResilient(context.Background(), b, g, nil, 0, failN(99))
	if err != nil || res.Path != "reference" || !res.Degraded() {
		t.Errorf("reference run: path=%s err=%v", res.Path, err)
	}
	if len(res.Errors()) != 2 {
		t.Errorf("reference run recorded %d failed attempts, want 2", len(res.Errors()))
	}
	if err := res.Output.Verify(b, g, 0); err != nil {
		t.Errorf("reference output rejected: %v", err)
	}

	noRef := &Benchmark{Name: "stub"}
	if _, err := RunResilient(context.Background(), noRef, g, nil, 0, failN(99)); !errors.Is(err, boom) {
		t.Errorf("exhausted chain error %v does not wrap the cause", err)
	}
}

// TestResilientHistory checks the per-attempt execution history: every path
// tried appears in order with its error, modeled cycles, wall time, and
// recovery counters — including failed vector attempts that absorbed
// rollbacks before giving up.
func TestResilientHistory(t *testing.T) {
	b, err := ByName("bfs-wl")
	if err != nil {
		t.Fatal(err)
	}
	g := path4()
	boom := errors.New("vector blew up")
	ok := &RunOutput{I: map[string][]int32{"lvl": RefBFS(g, 0)}}
	failCost := Cost{Cycles: 500, Recovery: RecoveryCounts{Checkpoints: 2, Rollbacks: 3, BadCheckpoints: 1, WastedCycles: 120}}
	okCost := Cost{Cycles: 900, Recovery: RecoveryCounts{Checkpoints: 4, Rollbacks: 1, WastedCycles: 40}}

	cases := []struct {
		name      string
		failFirst int // vector attempts that fail before one succeeds
		wantPaths []string
		wantErrs  []bool // per history entry: entry has a non-nil error
	}{
		{"first-try", 0, []string{"vector"}, []bool{false}},
		{"retry-serves", 1, []string{"vector", "vector-retry"}, []bool{true, false}},
		{"reference-serves", 99, []string{"vector", "vector-retry", "reference"}, []bool{true, true, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			vector := func() (*RunOutput, Cost, error) {
				calls++
				if calls <= tc.failFirst {
					return nil, failCost, fmt.Errorf("attempt %d: %w", calls, boom)
				}
				return ok, okCost, nil
			}
			res, err := RunResilient(context.Background(), b, g, nil, 0, vector)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.History) != len(tc.wantPaths) {
				t.Fatalf("history has %d entries, want %d: %+v", len(res.History), len(tc.wantPaths), res.History)
			}
			for i, a := range res.History {
				if a.Path != tc.wantPaths[i] {
					t.Errorf("history[%d].Path = %q, want %q", i, a.Path, tc.wantPaths[i])
				}
				if (a.Err != nil) != tc.wantErrs[i] {
					t.Errorf("history[%d].Err = %v, want error=%v", i, a.Err, tc.wantErrs[i])
				}
				if a.WallNS < 0 {
					t.Errorf("history[%d].WallNS = %d, want >= 0", i, a.WallNS)
				}
				vectorAttempt := a.Path == "vector" || a.Path == "vector-retry"
				wantCost := Cost{}
				if vectorAttempt {
					wantCost = okCost
					if a.Err != nil {
						wantCost = failCost
					}
				}
				if a.Cycles != wantCost.Cycles {
					t.Errorf("history[%d].Cycles = %v, want %v", i, a.Cycles, wantCost.Cycles)
				}
				if a.Recovery != wantCost.Recovery {
					t.Errorf("history[%d].Recovery = %+v, want %+v", i, a.Recovery, wantCost.Recovery)
				}
			}
			// Errors (failed-only view) must agree with the history errors.
			nFail := 0
			for _, e := range tc.wantErrs {
				if e {
					nFail++
				}
			}
			if len(res.Errors()) != nFail {
				t.Errorf("Errors has %d entries, want %d", len(res.Errors()), nFail)
			}
			// Totals aggregate over every attempt's recovery counters.
			tot := res.TotalRecovery()
			wantTot := RecoveryCounts{}
			for _, a := range res.History {
				wantTot.Checkpoints += a.Recovery.Checkpoints
				wantTot.Rollbacks += a.Recovery.Rollbacks
				wantTot.BadCheckpoints += a.Recovery.BadCheckpoints
				wantTot.WastedCycles += a.Recovery.WastedCycles
			}
			if tot != wantTot {
				t.Errorf("TotalRecovery() = %+v, want %+v", tot, wantTot)
			}
		})
	}
}

// TestRunResilientCtxGate checks the between-attempt cancellation gate: once
// the caller context is done, no further path runs — there is nobody left to
// serve — and the chain returns a typed deadline BudgetError wrapping the
// context's cause.
func TestRunResilientCtxGate(t *testing.T) {
	b, err := ByName("bfs-wl")
	if err != nil {
		t.Fatal(err)
	}
	g := path4()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	vectorRan := false
	vector := func() (*RunOutput, Cost, error) {
		vectorRan = true
		return nil, Cost{}, errors.New("should never run")
	}

	res, err := RunResilient(ctx, b, g, nil, 0, vector)
	if vectorRan {
		t.Error("cancelled chain still ran the vector path")
	}
	if !errors.Is(err, fault.ErrBudgetExceeded) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled chain error %v is not a deadline BudgetError wrapping Canceled", err)
	}
	var be *fault.BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Errorf("cancelled chain error %v lacks deadline resource", err)
	}
	if res == nil || len(res.History) != 0 || res.Output != nil {
		t.Errorf("cancelled chain produced history/output: %+v", res)
	}

	// Cancellation mid-chain: the vector attempt runs (and fails), then the
	// cancel lands before the retry or the reference is tried.
	ctx2, cancel2 := context.WithCancel(context.Background())
	vector2 := func() (*RunOutput, Cost, error) {
		cancel2()
		return nil, Cost{Cycles: 10}, errors.New("died while client hung up")
	}
	res, err = RunResilient(ctx2, b, g, nil, 0, vector2)
	if !errors.Is(err, fault.ErrBudgetExceeded) {
		t.Errorf("mid-chain cancellation error %v not typed", err)
	}
	if len(res.History) != 1 || res.History[0].Path != "vector" {
		t.Errorf("history should hold the one vector attempt: %+v", res.History)
	}
}

// TestRunResilientScalarOnly checks the overload-degradation entry: a nil
// vector func serves straight from the reference, in one attempt.
func TestRunResilientScalarOnly(t *testing.T) {
	b, err := ByName("bfs-wl")
	if err != nil {
		t.Fatal(err)
	}
	g := path4()
	res, err := RunResilient(context.Background(), b, g, nil, 0, nil)
	if err != nil || res.Path != "reference" || !res.Degraded() {
		t.Errorf("scalar-only run: path=%s err=%v", res.Path, err)
	}
	if len(res.History) != 1 || res.History[0].Path != "reference" {
		t.Errorf("scalar-only run history %+v, want one reference attempt", res.History)
	}
	if err := res.Output.Verify(b, g, 0); err != nil {
		t.Errorf("scalar-only output rejected: %v", err)
	}
}
