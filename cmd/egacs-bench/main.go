// Command egacs-bench regenerates the paper's evaluation tables and figures
// (Tables II-VI, IX, X; Figures 4-10) from the simulator. See DESIGN.md for
// the experiment-to-module map and EXPERIMENTS.md for paper-vs-measured
// comparisons.
//
// Examples:
//
//	egacs-bench -list
//	egacs-bench -exp table5
//	egacs-bench -exp all -scale bench -o results.txt
//	egacs-bench -exp fig4 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (table2..table6, table9, fig4..fig10) or 'all'")
		scale      = flag.String("scale", "small", "input scale: test|small|bench")
		quick      = flag.Bool("quick", false, "restrict to three benchmarks for a fast pass")
		backendStr = flag.String("backend", "auto", "kernel backend for simulated runs: auto|interp (modeled numbers are backend-invariant; this only changes regeneration wall time)")
		layoutStr  = flag.String("layout", "", "comparison arm of the layout experiment: sell|auto (default sell, and csr also selects sell; paper tables always run calibrated csr)")
		sellC      = flag.Int("sell-c", 0, "SELL slice height C for the layout experiment (0 = vector width)")
		sellSigma  = flag.Int("sell-sigma", 0, "SELL degree-sort window σ for the layout experiment (0 = default, negative = whole graph)")
		seed       = flag.Uint64("seed", 42, "graph generator seed")
		outFile    = flag.String("o", "", "write results to file (default stdout)")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file after the runs")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON timeline of experiment wall times to this file")
		metricsOut = flag.String("metrics", "", "write each experiment's headline numbers (registry) as JSONL to this file")
		attribOut  = flag.String("attrib", "", "write a collapsed-stack (flamegraph) cycle-attribution profile of the whole benchmark suite to this file and exit; stacks are kernel/graph;phase;cost-class, '-' prints to stdout")
	)
	flag.Parse()

	if *attribOut != "" {
		if err := writeSuiteAttrib(*attribOut, *scale, *seed, *backendStr, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var sc graph.Scale
	switch *scale {
	case "test":
		sc = graph.ScaleTest
	case "small":
		sc = graph.ScaleSmall
	case "bench":
		sc = graph.ScaleBench
	default:
		fmt.Fprintf(os.Stderr, "egacs-bench: unknown scale %q\n", *scale)
		os.Exit(1)
	}
	layout, err := core.ParseLayout(*layoutStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "egacs-bench:", err)
		os.Exit(1)
	}
	backend, err := core.ParseBackend(*backendStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "egacs-bench:", err)
		os.Exit(1)
	}
	opts := bench.Options{
		Scale: sc, Seed: *seed, Quick: *quick,
		Layout: layout, SellC: *sellC, SellSigma: *sellSigma,
		Backend: backend,
	}
	if *metricsOut != "" {
		opts.Registry = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}

	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	var todo []bench.Experiment
	if *exp == "all" {
		todo = bench.Experiments()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		todo = []bench.Experiment{e}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	for _, e := range todo {
		start := time.Now()
		var traceStart float64
		if tracer != nil {
			traceStart = tracer.HostNow()
		}
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Desc)
		for _, tb := range e.Run(opts) {
			tb.Render(out)
		}
		if tracer != nil {
			tracer.Complete(obs.ProcHost, obs.TidHost, e.ID, traceStart, tracer.HostNow()-traceStart)
		}
		fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d experiment spans -> %s\n", tracer.Len(), *traceOut)
	}
	if opts.Registry != nil {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = opts.Registry.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d observations -> %s\n", opts.Registry.Len(), *metricsOut)
	}

	writeMem(*memProf)
}

// writeSuiteAttrib runs every benchmark of the evaluation on every generated
// input family and folds the per-phase per-cost-class cycle attribution of
// each run into one collapsed-stack profile, stacks rooted at kernel/graph.
// The runs use the cooperative reference scheduler, so the profile is
// bit-reproducible across invocations and machines.
func writeSuiteAttrib(path, scale string, seed uint64, backendStr string, quick bool) error {
	var sc graph.Scale
	switch scale {
	case "test":
		sc = graph.ScaleTest
	case "small":
		sc = graph.ScaleSmall
	case "bench":
		sc = graph.ScaleBench
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	backend, err := core.ParseBackend(backendStr)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	benches := kernels.All()
	if quick {
		benches = benches[:3]
	}
	stacks := 0
	for _, b := range benches {
		for _, raw := range graph.Suite(sc, seed) {
			g := core.PrepareGraph(b, raw)
			res, err := core.Run(b, g, core.Config{Tasks: 4, HostExec: core.HostCooperative, Backend: backend})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.Name, raw.Name, err)
			}
			attr := res.Engine.Attribution()
			attr.Wasted = res.Recovery.WastedCycles
			attr.WriteCollapsed(out, b.Name+"/"+raw.Name)
			stacks += len(attr.Phases)
		}
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "attrib: %d phase stacks -> %s\n", stacks, path)
	}
	return nil
}

func writeMem(memProf string) {
	if memProf != "" {
		f, err := os.Create(memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "egacs-bench:", err)
			os.Exit(1)
		}
		f.Close()
	}
}
