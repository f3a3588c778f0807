package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// RunResilient executes a benchmark with graceful degradation: the vector
// engine first (which, with Config.CheckpointEvery set, absorbs recoverable
// faults via checkpoint rollback before giving up; retried once since
// injected faults are drawn per-site and may clear), then the benchmark's
// serial reference. The result reports which path served and every attempt
// with its error and cost (modeled cycles, wall time, checkpoint/rollback
// counters).
//
// The graph must already be prepared (see PrepareGraph). Budget and injector
// settings in cfg apply to the vector attempts only — the reference exists
// precisely to survive them.
func RunResilient(b *kernels.Benchmark, g *graph.CSR, cfg Config) (*kernels.ResilientResult, error) {
	return RunResilientCtx(context.Background(), b, g, cfg)
}

// RunResilientVerified is RunResilient with the vector output additionally
// checked against the benchmark's serial reference before it may serve:
// corruption that slipped past the invariant validators fails the attempt and
// degrades to the reference instead of serving silently wrong results.
// This is the chaos-testing entry point — every run ends in a verified output
// or a typed error.
func RunResilientVerified(b *kernels.Benchmark, g *graph.CSR, cfg Config) (*kernels.ResilientResult, error) {
	return RunResilientVerifiedCtx(context.Background(), b, g, cfg)
}

// RunResilientCtx is RunResilient under a caller context: unless the config
// already carries its own budget context, ctx becomes the run's wall-clock
// budget (fault.Budget.Ctx), which the pipe-loop guards check every
// iteration — so a caller deadline or a disconnected client stops a run
// mid-kernel with a typed deadline error, not at the next attempt boundary.
// The degradation chain also stops between attempts once ctx is done. This
// is the serving layer's per-request entry point.
func RunResilientCtx(ctx context.Context, b *kernels.Benchmark, g *graph.CSR, cfg Config) (*kernels.ResilientResult, error) {
	return runResilient(ctx, b, g, cfg, false, true)
}

// RunResilientVerifiedCtx is RunResilientVerified under a caller context
// (see RunResilientCtx).
func RunResilientVerifiedCtx(ctx context.Context, b *kernels.Benchmark, g *graph.CSR, cfg Config) (*kernels.ResilientResult, error) {
	return runResilient(ctx, b, g, cfg, true, true)
}

// RunReference serves the benchmark from its serial reference alone, without
// compiling the program or touching an engine. This is the overload
// degradation path of the serving layer: the reference is native Go with no
// machine model behind it, an order of magnitude or more cheaper in host time
// than a simulated vector run, and it is the oracle every vector output is
// verified against, so a saturated server sheds load by serving it rather
// than rejecting.
func RunReference(ctx context.Context, b *kernels.Benchmark, g *graph.CSR, cfg Config) (*kernels.ResilientResult, error) {
	return runResilient(ctx, b, g, cfg, false, false)
}

func runResilient(ctx context.Context, b *kernels.Benchmark, g *graph.CSR, cfg Config, verified, withVector bool) (*kernels.ResilientResult, error) {
	cfg = cfg.withDefaults()
	if ctx != nil && cfg.Budget.Ctx == nil {
		cfg.Budget.Ctx = ctx
	}
	var vector func() (*kernels.RunOutput, kernels.Cost, error)
	if withVector {
		vector = func() (*kernels.RunOutput, kernels.Cost, error) {
			res, err := run(b, g, cfg)
			cost := costOf(res)
			if err != nil {
				return nil, cost, err
			}
			out := outputOf(b, res)
			if verified {
				if verr := out.Verify(b, g, res.Instance.Params["src"]); verr != nil {
					return nil, cost, fmt.Errorf("output verification: %w", verr)
				}
			}
			return out, cost, nil
		}
	}
	return kernels.RunResilient(ctx, b, g, runParams(b, g, cfg), cfg.Src, vector)
}

// costOf maps a (possibly partial) run result to the attempt cost RunResilient
// records. A nil result (compile/bind failure) costs zero.
func costOf(res *Result) kernels.Cost {
	if res == nil {
		return kernels.Cost{}
	}
	return kernels.Cost{
		Cycles:  res.Engine.TimeCycles(),
		Backend: res.Backend,
		Recovery: kernels.RecoveryCounts{
			Checkpoints:    res.Recovery.Checkpoints,
			Rollbacks:      res.Recovery.Rollbacks,
			BadCheckpoints: res.Recovery.BadCheckpoints,
			WastedCycles:   res.Recovery.WastedCycles,
		},
	}
}

// outputOf collects a run's declared output arrays into a RunOutput.
func outputOf(b *kernels.Benchmark, res *Result) *kernels.RunOutput {
	out := &kernels.RunOutput{I: map[string][]int32{}, F: map[string][]float32{}}
	for _, d := range b.Prog.Arrays {
		if a := res.Instance.ArrayI(d.Name); a != nil {
			out.I[d.Name] = a
		} else if f := res.Instance.ArrayF(d.Name); f != nil {
			out.F[d.Name] = f
		}
	}
	return out
}
