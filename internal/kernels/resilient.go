package kernels

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// RunOutput is one run's output arrays, keyed by the program's array names
// ("lvl", "dist", "comp", "rank", ...). The vector engine and the serial
// references both report through it, so degradation is transparent to result
// consumers.
type RunOutput struct {
	I map[string][]int32
	F map[string][]float32
}

// GetI returns an int array by name (nil when absent), matching the
// Benchmark.Verify accessor shape.
func (o *RunOutput) GetI(name string) []int32 { return o.I[name] }

// GetF returns a float array by name (nil when absent).
func (o *RunOutput) GetF(name string) []float32 { return o.F[name] }

// Verify checks the output against the benchmark's serial reference.
func (o *RunOutput) Verify(b *Benchmark, g *graph.CSR, src int32) error {
	if b.Verify == nil {
		return nil
	}
	return b.Verify(g, o.GetI, o.GetF, src)
}

// RecoveryCounts reports checkpoint/rollback activity of one vector attempt,
// mirroring codegen.RecoveryStats without importing that package.
type RecoveryCounts struct {
	// Checkpoints is the number of verified checkpoints taken.
	Checkpoints int
	// Rollbacks is the number of rollback re-executions performed.
	Rollbacks int
	// BadCheckpoints counts checkpoint attempts rejected by invariant
	// validation (detected silent corruption).
	BadCheckpoints int
	// WastedCycles is the modeled work discarded by rollbacks.
	WastedCycles float64
}

// Cost quantifies what one vector attempt consumed — modeled cycles
// (including work later discarded by rollbacks) and its recovery activity.
// Reported even for failed attempts, so degradation cost is measurable.
type Cost struct {
	Cycles   float64
	Recovery RecoveryCounts
	// Backend names the kernel backend a vector attempt executed on
	// ("interp" or "compiled").
	Backend string
}

// Attempt is one entry of a resilient run's execution history: every path
// tried (including the one that served), its error (nil for the serving
// attempt), its modeled cycles where the path models time (vector attempts;
// the reference reports zero), host wall time, and the attempt's
// checkpoint/rollback counters.
type Attempt struct {
	Path     string
	Err      error
	Cycles   float64
	WallNS   int64
	Recovery RecoveryCounts
	// Backend is the kernel backend of a vector attempt ("interp" or
	// "compiled"); empty for the reference.
	Backend string
}

// ResilientResult reports which path of the degradation chain served a
// resilient run, with every attempt it made.
type ResilientResult struct {
	Output *RunOutput
	// Path is "vector", "vector-retry" or "reference".
	Path string
	// History records every attempt in order — failed and serving alike —
	// with per-attempt error, modeled cycles, wall time and recovery counters.
	History []Attempt
}

// Errors returns the error of each failed attempt, in order; empty when the
// first vector attempt succeeded.
func (r *ResilientResult) Errors() []error {
	var errs []error
	for _, a := range r.History {
		if a.Err != nil {
			errs = append(errs, a.Err)
		}
	}
	return errs
}

// Degraded reports whether the reference, not the vector engine, served the
// result.
func (r *ResilientResult) Degraded() bool {
	return r.Path != "vector" && r.Path != "vector-retry"
}

// ServingBackend returns the kernel backend of the attempt that served the
// result ("interp" or "compiled"); empty when the reference served.
func (r *ResilientResult) ServingBackend() string {
	for i := len(r.History) - 1; i >= 0; i-- {
		if a := r.History[i]; a.Err == nil && a.Path == r.Path {
			return a.Backend
		}
	}
	return ""
}

// TotalRecovery sums the recovery counters across all attempts.
func (r *ResilientResult) TotalRecovery() RecoveryCounts {
	var t RecoveryCounts
	for _, a := range r.History {
		t.Checkpoints += a.Recovery.Checkpoints
		t.Rollbacks += a.Recovery.Rollbacks
		t.BadCheckpoints += a.Recovery.BadCheckpoints
		t.WastedCycles += a.Recovery.WastedCycles
	}
	return t
}

// RunResilient executes a benchmark with graceful degradation: the vector
// attempt — which may itself absorb faults via checkpoint rollback before
// failing — is retried once on failure (injected faults draw fresh variates
// and may clear), and then the benchmark's serial Reference serves the
// result. Every attempt is recorded in History with its cost. An error
// returns only when both vector attempts failed and the benchmark declares
// no Reference.
//
// ctx gates the chain between attempts: once it is done (a caller deadline
// expired, or the client behind a request disconnected) no further path is
// tried — there is nobody left to serve — and the run returns a typed
// deadline BudgetError alongside the history so far. Mid-kernel cancellation
// is the budget layer's job: callers that want a run stopped inside a pipe
// loop arm fault.Budget.Ctx, which the loop guards check every iteration.
// A nil ctx disables the gate.
//
// A nil vector func skips the vector attempts entirely and serves from the
// reference — the overload-degradation path of the serving layer.
func RunResilient(ctx context.Context, b *Benchmark, g *graph.CSR, params map[string]int32, src int32,
	vector func() (*RunOutput, Cost, error)) (*ResilientResult, error) {
	res := &ResilientResult{}
	record := func(path string, err error, cost Cost, start time.Time) {
		res.History = append(res.History, Attempt{
			Path: path, Err: err, Cycles: cost.Cycles,
			WallNS: time.Since(start).Nanoseconds(), Recovery: cost.Recovery,
			Backend: cost.Backend,
		})
	}
	cancelled := func() error {
		if ctx == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("kernels: %s: degradation chain abandoned: %w",
				b.Name, &fault.BudgetError{Resource: "deadline", Cause: err})
		}
		return nil
	}
	if vector != nil {
		for attempt := 0; attempt < 2; attempt++ {
			if cerr := cancelled(); cerr != nil {
				return res, cerr
			}
			path := "vector"
			if attempt > 0 {
				path = "vector-retry"
			}
			start := time.Now()
			out, cost, err := vector()
			record(path, err, cost, start)
			if err == nil {
				res.Output = out
				res.Path = path
				return res, nil
			}
		}
	}
	if b.Reference != nil {
		if cerr := cancelled(); cerr != nil {
			return res, cerr
		}
		start := time.Now()
		res.Output = b.Reference(g, params, src)
		record("reference", nil, Cost{}, start)
		res.Path = "reference"
		return res, nil
	}
	return res, fmt.Errorf("kernels: %s: all execution paths failed: %w",
		b.Name, errors.Join(res.Errors()...))
}

// refPri reproduces the InitHash priority initialization of the compiled MIS
// program, so serial references agree with the vector kernels on priorities.
func refPri(n int) []int32 {
	pri := make([]int32, n)
	for i := range pri {
		u := uint32(i) * 2654435761
		u ^= u >> 15
		u *= 2246822519
		u ^= u >> 13
		pri[i] = int32(u) & 0x7fffffff
	}
	return pri
}
