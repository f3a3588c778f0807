// Command egacs compiles and runs one EGACS benchmark on one input graph
// under a configurable machine model, ISA target, tasking system and
// optimization set, printing the modeled execution time, dynamic statistics
// and verification result.
//
// Examples:
//
//	egacs -bench bfs-wl -input road -scale bench
//	egacs -bench sssp-nf -input rmat -machine amd -opts io+cc+np
//	egacs -bench pr -graph web.el -target avx2-i32x8 -tasks 8
//	egacs -bench bfs-wl -input road -emit       # print generated ISPC
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

func main() {
	var (
		benchName  = flag.String("bench", "bfs-wl", "benchmark: "+fmt.Sprint(kernels.Names()))
		input      = flag.String("input", "road", "generated input family: road|rmat|random")
		scale      = flag.String("scale", "small", "generated input scale: test|small|bench|large")
		graphFile  = flag.String("graph", "", "load graph from file instead (edge list or DIMACS .gr)")
		machName   = flag.String("machine", "intel", "machine model: intel|amd|phi|gpu")
		target     = flag.String("target", "", "ISA target, e.g. avx512-i32x16 (default: machine preferred)")
		tasks      = flag.Int("tasks", 0, "task count (0 = machine default)")
		noSMT      = flag.Bool("nosmt", false, "pin one task per core")
		taskSys    = flag.String("tasksys", "pthread", "tasking system: pthread|pthread_fs|cilk|openmp|tbb")
		optStr     = flag.String("opts", "all", "optimizations: none|all|io+np+cc+fibers+fibercc")
		backendStr = flag.String("backend", "auto", "kernel backend: auto|interp (auto prefers the generated-Go backend and degrades to the interpreter for uncovered programs; output reports which ran)")
		layoutStr  = flag.String("layout", "auto", "graph layout policy: csr|sell|auto (auto attaches SELL-C-σ where the machine's gathers are slower than unit-stride loads; order-sensitive float kernels always run csr)")
		sellC      = flag.Int("sell-c", 0, "SELL slice height C (0 = vector width)")
		sellSigma  = flag.Int("sell-sigma", 0, "SELL degree-sort window σ (0 = default, negative = whole graph)")
		mutFile    = flag.String("mutations", "", "apply this edge-mutation stream (\"+ src dst [w]\" / \"- src dst\", graphgen -mutations format) to the graph before running")
		src        = flag.Int("src", -1, "source node (-1 = max-degree node)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		verify     = flag.Bool("verify", true, "check output against the serial reference")
		emit       = flag.Bool("emit", false, "print the generated ISPC source and exit")
		serial     = flag.Bool("serial", false, "run the serial build (scalar, 1 task, no opts)")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		hostPar    = flag.Bool("host-parallel", true, "run SPMD tasks concurrently on host cores (modeled time is unchanged); false selects the cooperative reference scheduler. -fault-inject forces the live scheduler; -attrib works in every mode")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON timeline (modeled + host clocks) to this file; open in Perfetto or chrome://tracing")
		attribOut  = flag.String("attrib", "", "write the per-phase per-cost-class cycle attribution as a collapsed-stack (flamegraph) profile to this file; '-' prints it (with per-class and per-phase summary tables) to stdout")
		metricsOut = flag.String("metrics", "", "write per-iteration metrics (frontier, lane utilization, cache hits, ...) as JSONL to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file after the run")

		faultProb = flag.Float64("fault-inject", 0, "per-access probability of injected gather/scatter index faults")
		flipProb  = flag.Float64("flip-inject", 0, "per-array, per-loop-window probability of silent bit flips in live state (pair with -verify-invariants to detect them)")
		transProb = flag.Float64("transient-inject", 0, "per-loop-window probability of typed transient faults (recoverable with -checkpoint-every)")
		faultSeed = flag.Uint64("fault-seed", 1, "fault injector seed (same seed reproduces the same trace)")
		maxIters  = flag.Int("max-iters", 0, "abort any pipe loop after this many iterations (0 = unlimited)")
		deadline  = flag.Duration("deadline", 0, "wall-clock deadline for the run, e.g. 30s (0 = none)")
		stallWin  = flag.Int("stall-window", 0, "identical-frontier iterations before declaring non-convergence (0 = off)")
		fallback  = flag.Bool("fallback", false, "degrade gracefully: retry the vector run once, then serve the serial reference")
		ckEvery   = flag.Int("checkpoint-every", 0, "checkpoint pipe loops every N iterations and roll back on recoverable faults (0 = off)")
		maxRB     = flag.Int("max-rollbacks", 0, "re-executions per checkpoint before the fault escalates (0 = default 3)")
		verifyInv = flag.Bool("verify-invariants", false, "validate kernel invariants before each checkpoint (detects silent corruption)")
	)
	flag.Parse()

	bench, err := kernels.ByName(*benchName)
	fail(err)

	g, err := graph.Load(*graphFile, *input, *scale, *seed)
	fail(err)
	if *mutFile != "" {
		g, err = applyMutations(g, *mutFile)
		fail(err)
	}
	g = core.PrepareGraph(bench, g)

	opts, err := opt.Parse(*optStr)
	fail(err)

	if *emit {
		prog := opt.MustApply(bench.Prog, opts)
		fmt.Print(codegen.EmitISPC(prog))
		return
	}

	m, err := machine.ByName(*machName)
	fail(err)
	ts, err := spmd.TaskSystemByName(*taskSys)
	fail(err)

	cfg := core.Config{
		Machine: m,
		Tasks:   *tasks,
		NoSMT:   *noSMT,
		TaskSys: &ts,
		Opts:    &opts,
	}
	if *serial {
		cfg = core.SerialConfig(m)
	}
	layout, err := core.ParseLayout(*layoutStr)
	fail(err)
	cfg.Layout = layout
	be, err := core.ParseBackend(*backendStr)
	fail(err)
	cfg.Backend = be
	cfg.SellC = *sellC
	cfg.SellSigma = *sellSigma
	if *hostPar {
		cfg.HostExec = core.HostParallel
	} else {
		cfg.HostExec = core.HostCooperative
	}
	if *target != "" {
		tgt, err := vec.ParseTarget(*target)
		fail(err)
		cfg.Target = tgt
	}
	if *src >= 0 {
		cfg.Src = int32(*src)
	} else {
		cfg.Src = g.MaxDegreeNode()
	}

	cfg.Budget = fault.Budget{MaxIters: *maxIters, StallWindow: *stallWin}
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		cfg.Budget.Ctx = ctx
	}
	fail(flagCompatErr(*faultProb, *traceOut, *metricsOut))
	if *faultProb > 0 || *flipProb > 0 || *transProb > 0 {
		cfg.Inject = fault.NewInjector(*faultSeed, fault.Config{
			GatherIndex:  *faultProb,
			ScatterIndex: *faultProb,
			BitFlip:      *flipProb,
			Transient:    *transProb,
		})
	}
	cfg.CheckpointEvery = *ckEvery
	cfg.MaxRollbacks = *maxRB
	cfg.VerifyInvariants = *verifyInv
	if *traceOut != "" {
		cfg.Trace = obs.NewTracer(0)
	}
	if *metricsOut != "" {
		cfg.Metrics = obs.NewMetrics(0)
	}

	if !*jsonOut {
		fmt.Printf("benchmark: %s\ninput:     %s (%d nodes, %d edges)\nmachine:   %s\n",
			bench.Name, g.Name, g.NumNodes(), g.NumEdges(), m)
		shownTasks := cfg.Tasks
		if shownTasks == 0 {
			shownTasks = m.DefaultTasks
		}
		fmt.Printf("tasks:     %d  tasksys: %s  opts: %s  src: %d\n",
			shownTasks, ts.Name, opts, cfg.Src)
	}

	if *fallback {
		runResilient(bench, g, cfg, *jsonOut, *verify, *cpuProf, *memProf, *traceOut, *metricsOut)
		return
	}

	stopCPU := startCPUProfile(*cpuProf)
	res, err := core.Run(bench, g, cfg)
	stopCPU()
	writeMemProfile(*memProf)
	if err != nil && cfg.Inject != nil && !*jsonOut {
		fmt.Fprintf(os.Stderr, "fault trace:\n%s", cfg.Inject.TraceString())
	}
	// Export before failing: the metrics rows collected up to a fault are the
	// artifact the -fault-inject + -metrics pairing exists to deliver.
	exportObs(cfg, *traceOut, *metricsOut, *jsonOut)
	fail(err)

	if *attribOut != "" {
		attr := res.Engine.Attribution()
		attr.Wasted = res.Recovery.WastedCycles
		fail(writeAttrib(&attr, *attribOut, bench.Name, *jsonOut))
	}

	if *jsonOut {
		verr := ""
		if *verify {
			if err := core.Verify(bench, g, res); err != nil {
				verr = err.Error()
			}
		}
		emitJSON(bench.Name, g, cfg, opts, res, verr)
		if verr != "" {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("\ntime:      %.3f ms (modeled)\n", res.TimeMS)
	s := res.Stats
	fmt.Printf("instrs:    %d (%d vector ops, %d scalar ops)\n",
		s.Instructions, s.VectorOps, s.ScalarOps)
	fmt.Printf("atomics:   %d (%d worklist pushes)\n", s.Atomics, s.AtomicPushes)
	fmt.Printf("launches:  %d  barriers: %d  work items: %d\n",
		s.Launches, s.Barriers, s.WorkItems)
	if w := res.Engine.Width(); w > 1 {
		fmt.Printf("lane util: %.1f%% (width %d)\n", 100*s.LaneUtilization(w), w)
	}
	if sl := res.Sell; sl != nil {
		fmt.Printf("layout:    sell (C=%d sigma=%d, %.1f%% padding, %.3fx edges, %d dense columns, %.1f%% edges on csr fallback)\n",
			sl.C, sl.Sigma, 100*sl.PaddingRatio(), sl.Overhead(), s.SellColumns,
			100*sl.FallbackRatio())
	} else {
		fmt.Printf("layout:    csr\n")
	}
	fmt.Printf("backend:   %s\n", res.Backend)
	if *ckEvery > 0 {
		fmt.Printf("recovery:  %d checkpoints, %d rollbacks (%d rejected by invariants), %.0f wasted cycles\n",
			res.Recovery.Checkpoints, res.Recovery.Rollbacks,
			res.Recovery.BadCheckpoints, res.Recovery.WastedCycles)
	}

	if *verify {
		if err := core.Verify(bench, g, res); err != nil {
			fmt.Fprintf(os.Stderr, "VERIFY FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("verify:    output matches the serial reference")
	}
}

// exportObs writes the trace and metrics files attached to the run, with a
// one-line summary each in text mode. The trace spans all attempts when the
// run degraded, which is exactly what a timeline of the process should show.
func exportObs(cfg core.Config, tracePath, metricsPath string, jsonOut bool) {
	if cfg.Trace != nil && tracePath != "" {
		fail(cfg.Trace.WriteFile(tracePath))
		if !jsonOut {
			fmt.Printf("trace:     %d events (%d dropped) -> %s\n",
				cfg.Trace.Len(), cfg.Trace.Dropped(), tracePath)
		}
	}
	if cfg.Metrics != nil && metricsPath != "" {
		fail(cfg.Metrics.WriteFile(metricsPath))
		if !jsonOut {
			fmt.Printf("metrics:   %d iteration samples -> %s\n",
				cfg.Metrics.Len(), metricsPath)
		}
	}
}

// writeAttrib renders the cycle attribution as a collapsed-stack profile
// (one "root;phase;class cycles" line per non-zero bucket, the folded format
// flamegraph tooling consumes). Path "-" writes to stdout and appends the
// human-readable per-class and per-phase summary tables.
func writeAttrib(attr *obs.Attribution, path, root string, jsonOut bool) error {
	if path == "-" {
		attr.WriteCollapsed(os.Stdout, root)
		if !jsonOut {
			fmt.Println()
			attr.WriteText(os.Stdout)
		}
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	attr.WriteCollapsed(f, root)
	if err := f.Close(); err != nil {
		return err
	}
	if !jsonOut {
		fmt.Printf("attrib:    %d phases x %d cost classes -> %s\n",
			len(attr.Phases), int(obs.NumCostClasses), path)
	}
	return nil
}

// runResilient executes with graceful degradation and reports which path
// served the result.
func runResilient(bench *kernels.Benchmark, g *graph.CSR, cfg core.Config, jsonOut, verify bool, cpuProf, memProf, tracePath, metricsPath string) {
	stopCPU := startCPUProfile(cpuProf)
	res, err := core.RunResilient(bench, g, cfg)
	stopCPU()
	writeMemProfile(memProf)
	if err != nil {
		if cfg.Inject != nil {
			fmt.Fprintf(os.Stderr, "fault trace:\n%s", cfg.Inject.TraceString())
		}
		fail(err)
	}
	exportObs(cfg, tracePath, metricsPath, jsonOut)
	verr := ""
	if verify {
		if err := res.Output.Verify(bench, g, cfg.Src); err != nil {
			verr = err.Error()
		}
	}
	if jsonOut {
		rep := resilientReport{
			Benchmark:   bench.Name,
			Graph:       g.Name,
			ServedPath:  res.Path,
			Backend:     res.ServingBackend(),
			Degraded:    res.Degraded(),
			VerifyError: verr,
			Verified:    verr == "",
		}
		for _, aerr := range res.Errors() {
			rep.Attempts = append(rep.Attempts, aerr.Error())
		}
		for _, a := range res.History {
			h := attemptReport{
				Path:         a.Path,
				Backend:      a.Backend,
				Cycles:       a.Cycles,
				WallNS:       a.WallNS,
				Checkpoints:  a.Recovery.Checkpoints,
				Rollbacks:    a.Recovery.Rollbacks,
				BadCkpts:     a.Recovery.BadCheckpoints,
				WastedCycles: a.Recovery.WastedCycles,
			}
			if a.Err != nil {
				h.Error = a.Err.Error()
			}
			rep.History = append(rep.History, h)
		}
		if cfg.Inject != nil {
			rep.FaultTrace = cfg.Inject.TraceString()
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		fail(err)
		fmt.Println(string(out))
	} else {
		for i, a := range res.History {
			status := "served"
			if a.Err != nil {
				status = a.Err.Error()
			}
			fmt.Printf("attempt %d: %-12s cycles=%.0f wall=%dus rollbacks=%d: %s\n",
				i+1, a.Path, a.Cycles, a.WallNS/1000, a.Recovery.Rollbacks, status)
		}
		if be := res.ServingBackend(); be != "" {
			fmt.Printf("served by: %s (backend=%s, degraded=%v)\n", res.Path, be, res.Degraded())
		} else {
			fmt.Printf("served by: %s (degraded=%v)\n", res.Path, res.Degraded())
		}
		if rec := res.TotalRecovery(); rec.Checkpoints > 0 || rec.Rollbacks > 0 {
			fmt.Printf("recovery:  %d checkpoints, %d rollbacks (%d rejected by invariants), %.0f wasted cycles\n",
				rec.Checkpoints, rec.Rollbacks, rec.BadCheckpoints, rec.WastedCycles)
		}
		if verr != "" {
			fmt.Fprintf(os.Stderr, "VERIFY FAILED: %v\n", verr)
		} else if verify {
			fmt.Println("verify:    output matches the serial reference")
		}
	}
	if verr != "" {
		os.Exit(1)
	}
}

// resilientReport is the -json output schema under -fallback.
type resilientReport struct {
	Benchmark   string          `json:"benchmark"`
	Graph       string          `json:"graph"`
	ServedPath  string          `json:"served_path"`
	Backend     string          `json:"backend,omitempty"`
	Degraded    bool            `json:"degraded"`
	Attempts    []string        `json:"attempt_errors,omitempty"`
	History     []attemptReport `json:"history,omitempty"`
	FaultTrace  string          `json:"fault_trace,omitempty"`
	VerifyError string          `json:"verify_error,omitempty"`
	Verified    bool            `json:"verified"`
}

// attemptReport is one entry of the degradation history: every path tried
// with its cost and recovery counters.
type attemptReport struct {
	Path         string  `json:"path"`
	Backend      string  `json:"backend,omitempty"`
	Error        string  `json:"error,omitempty"`
	Cycles       float64 `json:"cycles,omitempty"`
	WallNS       int64   `json:"wall_ns"`
	Checkpoints  int     `json:"checkpoints,omitempty"`
	Rollbacks    int     `json:"rollbacks,omitempty"`
	BadCkpts     int     `json:"bad_checkpoints,omitempty"`
	WastedCycles float64 `json:"wasted_cycles,omitempty"`
}

// runReport is the -json output schema.
type runReport struct {
	Benchmark    string  `json:"benchmark"`
	Graph        string  `json:"graph"`
	Nodes        int32   `json:"nodes"`
	Edges        int32   `json:"edges"`
	Machine      string  `json:"machine"`
	Target       string  `json:"target"`
	Tasks        int     `json:"tasks"`
	Opts         string  `json:"opts"`
	Src          int32   `json:"src"`
	TimeMS       float64 `json:"time_ms"`
	Instructions int64   `json:"instructions"`
	VectorOps    int64   `json:"vector_ops"`
	ScalarOps    int64   `json:"scalar_ops"`
	Atomics      int64   `json:"atomics"`
	AtomicPushes int64   `json:"atomic_pushes"`
	Launches     int64   `json:"launches"`
	Barriers     int64   `json:"barriers"`
	WorkItems    int64   `json:"work_items"`
	LaneUtil     float64 `json:"lane_utilization"`
	Layout       string  `json:"layout"`
	Backend      string  `json:"backend"`
	SellC        int32   `json:"sell_c,omitempty"`
	SellSigma    int32   `json:"sell_sigma,omitempty"`
	SellPadding  float64 `json:"sell_padding_ratio,omitempty"`
	SellColumns  int64   `json:"sell_columns,omitempty"`
	SellFallback float64 `json:"sell_fallback_ratio,omitempty"`
	Checkpoints  int     `json:"checkpoints,omitempty"`
	Rollbacks    int     `json:"rollbacks,omitempty"`
	BadCkpts     int     `json:"bad_checkpoints,omitempty"`
	WastedCycles float64 `json:"wasted_cycles,omitempty"`
	VerifyError  string  `json:"verify_error,omitempty"`
	Verified     bool    `json:"verified"`
}

func emitJSON(benchName string, g *graph.CSR, cfg core.Config, opts opt.Options, res *core.Result, verifyErr string) {
	st := res.Stats
	rep := runReport{
		Benchmark:    benchName,
		Graph:        g.Name,
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Machine:      res.Engine.Machine.Name,
		Target:       res.Engine.Target.String(),
		Tasks:        res.Engine.NumTasks,
		Opts:         opts.String(),
		Src:          cfg.Src,
		TimeMS:       res.TimeMS,
		Instructions: st.Instructions,
		VectorOps:    st.VectorOps,
		ScalarOps:    st.ScalarOps,
		Atomics:      st.Atomics,
		AtomicPushes: st.AtomicPushes,
		Launches:     st.Launches,
		Barriers:     st.Barriers,
		WorkItems:    st.WorkItems,
		LaneUtil:     st.LaneUtilization(res.Engine.Width()),
		Layout:       res.Layout,
		Backend:      res.Backend,
		Checkpoints:  res.Recovery.Checkpoints,
		Rollbacks:    res.Recovery.Rollbacks,
		BadCkpts:     res.Recovery.BadCheckpoints,
		WastedCycles: res.Recovery.WastedCycles,
		VerifyError:  verifyErr,
		Verified:     verifyErr == "",
	}
	if sl := res.Sell; sl != nil {
		rep.SellC = sl.C
		rep.SellSigma = sl.Sigma
		rep.SellPadding = sl.PaddingRatio()
		rep.SellColumns = st.SellColumns
		rep.SellFallback = sl.FallbackRatio()
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	fmt.Println(string(out))
}

// startCPUProfile brackets the run itself (not graph generation or
// compilation) so the profile shows where simulated execution spends host
// time. The returned stop function flushes and closes the profile; it must
// run before any os.Exit.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	fail(err)
	fail(pprof.StartCPUProfile(f))
	return func() {
		pprof.StopCPUProfile()
		fail(f.Close())
	}
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fail(err)
	runtime.GC() // materialize the live heap before the snapshot
	fail(pprof.WriteHeapProfile(f))
	fail(f.Close())
}

// applyMutations folds an edge-mutation stream into the loaded graph through
// the delta overlay — the same path the serving daemon uses — so a benchmark
// can run against the post-mutation graph. The stream's final state is what
// matters here; it is applied as one batch and compacted once.
func applyMutations(g *graph.CSR, path string) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ops, err := graph.ParseMutations(f, g.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d := graph.NewDelta(g, 0)
	if err := d.Apply(graph.Batch{Seq: 1, Ops: ops}); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	mg, err := d.Compact()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "egacs: applied %d mutations (%d edges -> %d)\n",
		len(ops), g.NumEdges(), mg.NumEdges())
	return mg, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "egacs:", err)
		os.Exit(1)
	}
}
