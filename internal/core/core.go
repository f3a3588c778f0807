// Package core is the EGACS compiler driver and public entry point: it takes
// a benchmark (an IrGL IR program), applies the selected optimization passes,
// compiles it through the backend, binds it to a machine model and a graph,
// runs it, and reports modeled time plus execution statistics.
//
// Typical use:
//
//	bench, _ := kernels.ByName("bfs-wl")
//	g := graph.Road(320, 320, 64, 1)
//	res, err := core.Run(bench, g, core.Config{})        // all defaults
//	fmt.Println(res.TimeMS, res.Stats.Instructions)
package core

import (
	"errors"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/compiled"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// HostExec selects how the engine executes SPMD tasks on the host machine.
// All choices produce identical modeled times; they differ in wall-clock
// speed and in which diagnostics they support.
type HostExec int

const (
	// HostAuto (the zero value) keeps the engine's default, which honors
	// the EGACS_HOST_EXEC environment variable ("parallel", "cooperative",
	// "live") and is the live scheduler when unset — so library callers
	// and calibrated tests see unchanged modeled numbers unless they opt
	// in.
	HostAuto HostExec = iota
	// HostParallel runs tasks concurrently on real goroutines with
	// deferred effects (spmd.ExecParallel). The cmd binaries default to
	// it via -host-parallel.
	HostParallel
	// HostCooperative runs the deferred-effect cooperative reference
	// scheduler (spmd.ExecDeferred) — serial, bit-identical to
	// HostParallel.
	HostCooperative
	// HostLive runs the legacy live cooperative scheduler
	// (spmd.ExecLive) with immediate effects.
	HostLive
)

// Layout selects the graph layout policy for a run. Independent of layout,
// outputs are bit-identical for every eligible kernel: SELL only permutes the
// order topology-driven sweeps visit vertices, it never renumbers them, and
// order-sensitive benchmarks (float accumulation: pr, pr-delta) are pinned to
// CSR by policy.
type Layout int

const (
	// LayoutCSR (the zero value) is the CSR-only build — the calibrated
	// paper setup — so library callers and golden tests see unchanged
	// behavior unless they opt in.
	LayoutCSR Layout = iota
	// LayoutSell attaches a SELL-C-σ layout whenever the compiled module
	// has a dense edge-loop path and the benchmark is order-insensitive.
	LayoutSell
	// LayoutAuto is LayoutSell additionally gated on the machine model:
	// the layout is attached only where a unit-stride column load beats a
	// gather (machine.Config.UnitStrideBenefit > 1 at L1).
	LayoutAuto
)

// String returns the CLI spelling of the layout knob.
func (l Layout) String() string {
	switch l {
	case LayoutSell:
		return "sell"
	case LayoutAuto:
		return "auto"
	default:
		return "csr"
	}
}

// ParseLayout parses a -layout flag value; "default" is an alias of csr.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "default", "csr":
		return LayoutCSR, nil
	case "sell":
		return LayoutSell, nil
	case "auto":
		return LayoutAuto, nil
	}
	return LayoutCSR, fmt.Errorf("core: unknown layout %q (want csr, sell or auto)", s)
}

// Backend selects which kernel execution backend runs the program's tasks.
// Both backends drive the same TaskCtx/worklist primitives in the same order,
// so modeled time, statistics, outputs, traces and fault-injection draws are
// bit-identical; they differ only in host wall-clock speed.
type Backend int

const (
	// BackendAuto (the zero value) uses the generated-Go backend whenever it
	// covers the program (post-optimization fingerprint, every kernel, the
	// target width) and silently falls back to the interpreter otherwise —
	// custom programs, non-generated widths and non-default optimization
	// configurations keep working unchanged (the typed
	// compiled.ErrBackendUnsupported never escapes Run; Result.Backend
	// reports which backend ran).
	BackendAuto Backend = iota
	// BackendInterp pins the closure-tree interpreter (the differential
	// oracle).
	BackendInterp
)

// String returns the CLI spelling of the backend knob.
func (b Backend) String() string {
	if b == BackendInterp {
		return "interp"
	}
	return "auto"
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "interp":
		return BackendInterp, nil
	}
	return BackendAuto, fmt.Errorf("core: unknown backend %q (want auto or interp)", s)
}

// resolveExec maps the config knob to an engine mode. Programs marked
// LiveAtomics need cross-task atomic visibility within a segment and always
// run live; fault injection is downgraded engine-side (see
// spmd.Engine.DeferredExec). envDefault is the engine's EGACS_HOST_EXEC
// resolution, kept when the knob is HostAuto.
func resolveExec(h HostExec, prog *ir.Program, envDefault spmd.Exec) spmd.Exec {
	if prog.LiveAtomics {
		return spmd.ExecLive
	}
	switch h {
	case HostParallel:
		return spmd.ExecParallel
	case HostCooperative:
		return spmd.ExecDeferred
	case HostLive:
		return spmd.ExecLive
	default:
		return envDefault
	}
}

// Config selects machine, target, tasking and optimization settings for one
// run. The zero value gives the paper's default EGACS setup on the Intel
// machine: avx512-i32x16, 16 pinned pthread tasks, all optimizations.
type Config struct {
	// Machine is the hardware model (default Intel8).
	Machine *machine.Config
	// Target is the ISA/width (default the machine's preferred target).
	Target vec.Target
	// Tasks is the launch width (default the machine's default task count).
	Tasks int
	// NoSMT pins at most one task per core.
	NoSMT bool
	// TaskSys selects the tasking runtime (default pinned pthread).
	TaskSys *spmd.TaskSystem
	// Opts selects compiler optimizations (default all: the "EGACS"
	// configuration; use opt.None() for the plain SIMD build).
	Opts *opt.Options
	// Src is the source node for BFS/SSSP (default 0).
	Src int32
	// Params overrides program parameters (e.g. "delta").
	Params map[string]int32
	// Pager, when set, attaches the virtual-memory simulator.
	Pager spmd.Pager
	// ProfileKernels enables per-kernel phase attribution in every
	// execution mode; read the result via Result.Engine.Profile() or
	// WriteProfile.
	ProfileKernels bool
	// Trace attaches a span tracer recording kernel launches, barriers,
	// per-task segments, pipe-loop iterations and worklist swaps on the
	// modeled and host clocks; export with Tracer.Export or WriteFile.
	Trace *obs.Tracer
	// Metrics attaches a per-iteration metrics ring (frontier size, lane
	// utilization, cache hits, ...); export with Metrics.WriteJSONL.
	Metrics *obs.Metrics
	// Budget bounds the run (iteration cap, modeled-cycle cap, stall
	// watchdog, wall-clock deadline). The zero value disables all limits.
	Budget fault.Budget
	// Inject attaches a deterministic fault injector to the run's engine.
	Inject *fault.Injector
	// HostExec selects the execution strategy (parallel host execution by
	// default; see the HostExec constants). Fault injection and
	// LiveAtomics programs fall back to the live cooperative scheduler;
	// profiling, tracing and metrics work in every mode.
	HostExec HostExec
	// CheckpointEvery, when positive, snapshots engine-visible state at
	// top-level pipe-loop heads every that many iterations and rolls back to
	// the last checkpoint on a recoverable typed fault instead of failing the
	// run. The graph's arrays are inputs, not state: no checkpoint copies
	// them and no rollback writes them, so g may be shared with concurrent
	// runs. Recovery is ignored when a Pager is attached (residency state is
	// not checkpointed). Zero disables checkpointing.
	CheckpointEvery int
	// MaxRollbacks bounds re-executions per checkpoint before the fault
	// escalates (default 3 when zero). Only meaningful with CheckpointEvery.
	MaxRollbacks int
	// VerifyInvariants runs the kernel's invariant validators (see
	// kernels.InvariantFor) against live state before each checkpoint, so
	// silently corrupted state is detected, rejected and rolled back rather
	// than becoming a recovery point. Only meaningful with CheckpointEvery.
	VerifyInvariants bool
	// Backend selects the kernel execution backend (default auto: generated
	// Go where available, interpreter otherwise; see the Backend constants).
	Backend Backend
	// Layout selects the graph layout policy (default CSR; see the Layout
	// constants). SELL-C-σ construction is untimed preparation, like graph
	// loading.
	Layout Layout
	// SellC is the SELL slice height C (default: the target's vector
	// width, the only value the dense path engages for).
	SellC int
	// SellSigma is the SELL sort-window σ (default graph.DefaultSigma;
	// negative sorts the whole graph as one window).
	SellSigma int
	// Sell, when non-nil, is a prebuilt SELL layout of the (prepared)
	// input graph, used instead of building one — the bench harness path,
	// which amortizes construction across repetitions. Only consulted when
	// the layout policy selects SELL; mismatched layouts fail AttachSell.
	Sell *graph.SellCS
	// Engine, when non-nil and built for the same machine model, is reset
	// (spmd.Engine.ResetAll) and reused for this run instead of allocating a
	// fresh engine — the request-pool path of the serving layer. A machine
	// mismatch falls back to a fresh engine. The reset costs what the
	// engine's earlier runs touched, not what the machine model holds, and
	// the engine keeps the buffers of its recovery point, so this run's
	// checkpoints (CheckpointEvery) copy into them instead of allocating.
	// Output arrays of earlier runs on the engine remain valid snapshots;
	// the reset guarantees this run can observe nothing of them or of the
	// earlier recovery point.
	Engine *spmd.Engine
}

func (c Config) withDefaults() Config {
	if c.Machine == nil {
		c.Machine = machine.Intel8()
	}
	if c.Target == (vec.Target{}) {
		c.Target = c.Machine.PreferredTarget
	}
	if c.Tasks == 0 {
		c.Tasks = c.Machine.DefaultTasks
	}
	if c.TaskSys == nil {
		ts := spmd.Pthread
		c.TaskSys = &ts
	}
	if c.Opts == nil {
		o := opt.All()
		c.Opts = &o
	}
	return c
}

// Result reports one run.
type Result struct {
	// TimeMS is the modeled execution time in milliseconds (algorithm
	// only; graph loading and output writing excluded, as in the paper).
	TimeMS float64
	// Stats are the engine's dynamic counters.
	Stats spmd.Stats
	// Engine and Instance allow output inspection and re-runs.
	Engine   *spmd.Engine
	Instance *codegen.Instance
	// Recovery reports checkpoint/rollback activity when Config.CheckpointEvery
	// was set (zero otherwise). Kept outside Stats so recovered runs stay
	// bit-identical to undisturbed ones.
	Recovery codegen.RecoveryStats
	// Backend is the kernel backend the run actually used: "compiled" only
	// when the generated-Go backend covered the program, "interp" otherwise
	// (including every BackendAuto run that degraded).
	Backend string
	// Layout is the layout the run actually used: "sell" only when a
	// SELL-C-σ layout was attached (policy enabled, module has a dense
	// path, benchmark order-insensitive), "csr" otherwise.
	Layout string
	// Sell is the attached SELL layout, nil under CSR. Its PaddingRatio
	// and Overhead describe the space cost of vectorizability; the
	// columns the run actually pushed through the dense path are in
	// Stats.SellColumns.
	Sell *graph.SellCS
}

// PrepareGraph returns the input in the form the benchmark requires:
// symmetrized (deduplicated, sorted) for undirected algorithms, the input
// unchanged otherwise. Graph preparation is untimed, like graph loading.
func PrepareGraph(b *kernels.Benchmark, g *graph.CSR) *graph.CSR {
	if b.NeedsSymmetric {
		return g.Symmetrize()
	}
	return g
}

// runParams resolves the effective parameter map: src, then benchmark
// defaults for the input, then explicit overrides.
func runParams(b *kernels.Benchmark, g *graph.CSR, cfg Config) map[string]int32 {
	params := map[string]int32{"src": cfg.Src}
	if b.Params != nil {
		for k, v := range b.Params(g) {
			params[k] = v
		}
	}
	for k, v := range cfg.Params {
		params[k] = v
	}
	return params
}

// SellParams resolves the effective SELL slice height and sort window for a
// defaulted config: C defaults to the target's vector width (the only height
// the dense path engages for), σ to graph.DefaultSigma, and a negative
// SellSigma selects the full-graph window.
func (c Config) SellParams() (sellC, sigma int32) {
	sellC = int32(c.SellC)
	if sellC == 0 {
		sellC = int32(c.Target.Width)
	}
	sigma = int32(c.SellSigma)
	if c.SellSigma == 0 {
		sigma = graph.DefaultSigma
	}
	return sellC, sigma
}

// wantSell decides whether the layout policy attaches a SELL layout to this
// run: the knob must be on, the benchmark order-insensitive (float
// accumulators stay bit-identical to the paper's CSR runs), and the module
// must have compiled a dense path at all. LayoutAuto additionally applies
// the static per-kernel minimum — only DenseSweep kernels, whose edge loops
// run at full occupancy every round, come out ahead under SELL (iterative
// frontier kernels lose more to reordered convergence than the column loads
// recover) — and consults the machine model: SELL pays off only where a
// unit-stride column load is cheaper than a W-lane gather.
func wantSell(b *kernels.Benchmark, mod *codegen.Module, cfg Config) bool {
	if b.OrderSensitive || !mod.HasSellPath() {
		return false
	}
	switch cfg.Layout {
	case LayoutSell:
		return true
	case LayoutAuto:
		return b.DenseSweep && cfg.Machine.UnitStrideBenefit(cfg.Target.Width, machine.L1) > 1
	}
	return false
}

// sellFor returns the SELL layout to attach, building one (untimed, like
// graph loading) unless the config carries a prebuilt layout. The build
// routes rows at or above the neighbor-processing broadcast threshold into
// fallback slices (the row-sweep CSR path already handles hubs at full lane
// occupancy) and cost-balances slices across the launch's task count so the
// degree sort cannot concentrate every hub into the first task's chunk range.
func sellFor(g *graph.CSR, cfg Config) (*graph.SellCS, error) {
	if cfg.Sell != nil {
		return cfg.Sell, nil
	}
	sellC, sigma := cfg.SellParams()
	// Materialize every row whose slice still fits in half a task's fair
	// share of edges (so LPT dealing can balance the slices), but never
	// below the row-sweep broadcast threshold: rows past the cap run the
	// CSR neighbor-processing path at full occupancy anyway.
	heavyCap := int64(g.NumEdges()) / (2 * int64(cfg.Tasks) * int64(sellC))
	if floor := int64(codegen.BigDegreeFactor * cfg.Target.Width); heavyCap < floor {
		heavyCap = floor
	}
	return graph.BuildSellCSDealt(g, sellC, sigma, int32(cfg.Tasks), int32(heavyCap))
}

// Run compiles the benchmark under cfg and executes it on g. The graph must
// already be prepared (see PrepareGraph).
func Run(b *kernels.Benchmark, g *graph.CSR, cfg Config) (*Result, error) {
	res, err := run(b, g, cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run is Run on an already-defaulted config, returning the partial Result
// alongside the error when the failure happened during execution (so callers
// like RunResilient can account the cost and recovery counters of failed
// attempts). Compile/bind failures return a nil Result.
func run(b *kernels.Benchmark, g *graph.CSR, cfg Config) (*Result, error) {
	if b.Check != nil {
		if err := b.Check(g); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	prog, err := opt.Apply(b.Prog, *cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.Name, err)
	}
	mod, err := codegen.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.Name, err)
	}

	var e *spmd.Engine
	if cfg.Engine != nil && cfg.Engine.Machine == cfg.Machine {
		e = cfg.Engine
		e.ResetAll(cfg.Target, cfg.Tasks)
	} else {
		e = spmd.New(cfg.Machine, cfg.Target, cfg.Tasks)
	}
	e.TaskSys = *cfg.TaskSys
	e.NoSMT = cfg.NoSMT
	e.Pager = cfg.Pager
	e.Budget = cfg.Budget
	e.Inject = cfg.Inject
	e.Exec = resolveExec(cfg.HostExec, prog, e.Exec)
	if cfg.ProfileKernels {
		e.EnableProfiling()
	}
	e.Trace = cfg.Trace
	e.Metrics = cfg.Metrics

	inst, err := mod.Bind(e, g, runParams(b, g, cfg))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.Name, err)
	}
	backend := "interp"
	if cfg.Backend != BackendInterp {
		// An uncovered combination (custom program, non-generated width,
		// non-default opt configuration) degrades to the interpreter rather
		// than failing the run — the two backends are bit-identical, only
		// wall-clock differs.
		switch err := inst.EnableCompiled(); {
		case err == nil:
			backend = "compiled"
		case !errors.Is(err, compiled.ErrBackendUnsupported):
			return nil, fmt.Errorf("core: %s: %w", b.Name, err)
		}
	}
	if wantSell(b, mod, cfg) {
		sell, err := sellFor(g, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", b.Name, err)
		}
		if err := inst.AttachSell(sell); err != nil {
			return nil, fmt.Errorf("core: %s: %w", b.Name, err)
		}
	}
	if cfg.CheckpointEvery > 0 && cfg.Pager == nil {
		rec := &codegen.Recovery{Every: cfg.CheckpointEvery, MaxRollbacks: cfg.MaxRollbacks}
		if cfg.VerifyInvariants {
			if inv := kernels.InvariantFor(b.Name); inv != nil {
				rec.Verify = func(v *codegen.StateView) error { return inv(v) }
			}
		}
		inst.Recovery = rec
	}
	runErr := inst.Run()
	res := &Result{
		TimeMS:   e.TimeMS(),
		Stats:    e.Stats,
		Engine:   e,
		Instance: inst,
		Backend:  backend,
		Layout:   "csr",
		Sell:     inst.Sell(),
	}
	if res.Sell != nil {
		res.Layout = "sell"
	}
	if inst.Recovery != nil {
		res.Recovery = inst.Recovery.Stats
	}
	if runErr != nil {
		return res, fmt.Errorf("core: %s: %w", b.Name, runErr)
	}
	return res, nil
}

// Verify checks a run's outputs against the benchmark's serial reference.
func Verify(b *kernels.Benchmark, g *graph.CSR, res *Result) error {
	if b.Verify == nil {
		return nil
	}
	src := res.Instance.Params["src"]
	return b.Verify(g, res.Instance.ArrayI, res.Instance.ArrayF, src)
}

// RunVerified is Run followed by Verify.
func RunVerified(b *kernels.Benchmark, g *graph.CSR, cfg Config) (*Result, error) {
	res, err := Run(b, g, cfg)
	if err != nil {
		return nil, err
	}
	if err := Verify(b, g, res); err != nil {
		return nil, fmt.Errorf("core: %s on %s (%v): %w", b.Name, g.Name, cfg.Target, err)
	}
	return res, nil
}

// SerialConfig returns the serial-build configuration the paper derives by
// marking all variables uniform and setting task and program counts to 1 and
// recompiling — the launch-per-iteration pipe structure is retained, only
// parallelism and optimizations are gone.
func SerialConfig(m *machine.Config) Config {
	none := opt.None()
	return Config{
		Machine: m,
		Target:  vec.TargetScalar,
		Tasks:   1,
		NoSMT:   true,
		Opts:    &none,
	}
}
