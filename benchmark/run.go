package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// minPasses is the fewest measured passes a run reports a median over. The
// run keeps adding passes until -seconds is spent.
const minPasses = 11

// runResult is one workload's run: the eight end-to-end metrics (or the
// ledger), and the count of ops attempted and failed behind them.
type runResult struct {
	spec      *spec
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	passes    int
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// runWorkload generates the workload from the seed, verifies it once, and
// measures it for about seconds. With trace set it reports the per-layer
// ledger instead of the end-to-end metrics.
func runWorkload(s *spec, seed uint64, seconds float64, trace, smoke bool, outDir string, w io.Writer) (*runResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p, err := s.build(seed, dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{spec: s, metrics: map[string]float64{}}
	fmt.Fprintf(w, "\n== %s  seed %d ==\n%s\n", s.name, seed, s.why)
	for i, g := range p.graphs {
		fmt.Fprintf(w, "graph %s: %d nodes, %d edges\n", p.graphNames[i], g.NumNodes(), g.NumEdges())
	}

	// Warm-up: verify every distinct op, learn what each must read again.
	t, _, err := p.boot(nil)
	if err != nil {
		return nil, err
	}
	expect, failures := p.warmup(t)
	if lt, ok := t.(*libTarget); ok {
		fmt.Fprintf(w, "exec cooperative, backend compiled, layouts %v\n", lt.layout)
	} else {
		fmt.Fprintf(w, "exec live (EGACS_HOST_EXEC unset), backend compiled, layout csr, level normal\n")
	}
	t.close()
	res.attempted += len(p.ops)
	res.failed += len(failures)
	res.failures = failures
	if len(failures) > 0 {
		return res, nil // nothing measured on top of wrong answers
	}

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var boots []float64
	var passes []passResult
	var heaps []float64
	nPasses, passSeconds := minPasses, seconds
	if smoke {
		nPasses = 2
	}
	if trace && !smoke {
		// Half the time for passes (at least three traced and three
		// untraced), half for replaying ops layer by layer.
		nPasses, passSeconds = 6, seconds/2
	}
	start := time.Now()
	for n := 0; ; n++ {
		iter := time.Now()
		// Traced and untraced passes alternate so drift hits both alike.
		var ptr *tracer
		if n%2 == 1 {
			ptr = tr
		}
		// What the harness itself holds is not the program's live heap.
		base := liveHeapMB()
		t, setup, err := p.boot(ptr)
		if err != nil {
			return nil, err
		}
		boots = append(boots, setup)
		pr := runPass(t, p.ops, expect, ptr)
		heaps = append(heaps, liveHeapMB()-base)
		runtime.KeepAlive(t)
		t.close()
		passes = append(passes, pr)
		res.attempted += pr.ops
		res.failed += pr.failed
		for _, f := range pr.failures {
			if len(res.failures) < 10 {
				res.failures = append(res.failures, f)
			}
		}
		spent := time.Since(start).Seconds()
		if n+1 >= nPasses && (smoke || spent+time.Since(iter).Seconds() > passSeconds) {
			break
		}
	}
	res.passes = len(passes)

	// kernel-suite is exempt: its ops repeat and stand at their medians, so a
	// percentile on a class boundary there picks the class below every time.
	if err := shapeGuard(p, passes, w); err != nil && !smoke && !s.library {
		res.failures = append(res.failures, err.Error())
	}
	if trace {
		ledger, err := p.ledger(tr, passes, expect, seconds-passSeconds, smoke, w)
		if err != nil {
			return nil, err
		}
		res.metrics = ledger
		path := fmt.Sprintf("%s/%s.trace.json", outDir, s.name)
		if err := tr.writeFile(path, ledger); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %d spans -> %s\n", len(tr.spans), path)
		return res, nil
	}
	res.metrics = endToEndMetrics(boots, passes, heaps, w)
	return res, nil
}

// endToEndMetrics folds per-pass values into the reported ones. Each
// wall-clock metric is computed from one pass alone and reported as the
// quartile of the passes on the quiet side (upper for throughput, lower for
// times): on a shared host a neighbour only ever takes time away, so the
// quiet quartile estimates the program's own speed and, measured over ten
// runs of ten seeds, repeats better than the median pass (README.md, noise
// findings). The counts (allocation, live heap, modeled cycles) have no quiet
// side and are medians or exact totals.
func endToEndMetrics(boots []float64, passes []passResult, heaps []float64, w io.Writer) map[string]float64 {
	per := map[string][]float64{}
	var cycles float64
	var queryOps int
	for i := range passes {
		pr := &passes[i]
		done := float64(pr.ops - pr.failed)
		lats, _ := pr.latencies()
		if done == 0 || len(lats) == 0 {
			continue
		}
		per["ops_per_s"] = append(per["ops_per_s"], done/pr.wallS)
		per["lat_p50_ms"] = append(per["lat_p50_ms"], percentile(lats, 50))
		per["lat_p90_ms"] = append(per["lat_p90_ms"], percentile(lats, 90))
		per["lat_p99_ms"] = append(per["lat_p99_ms"], percentile(lats, 99))
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], pr.cpuMS/done)
		per["alloc_mb_per_op"] = append(per["alloc_mb_per_op"], pr.allocMB/done)
		cycles += pr.cycles
		queryOps += pr.queryOps
	}
	per["setup_s"] = boots
	per["live_heap_mb"] = heaps

	m := map[string]float64{}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %12s %12s %12s %4s\n", "per pass", "q1", "median", "q3", "n")
	for _, name := range names {
		q1, q2, q3 := quartiles(per[name])
		fmt.Fprintf(w, "%-24s %12.4f %12.4f %12.4f %4d\n", name, q1, q2, q3, len(per[name]))
		switch name {
		case "ops_per_s":
			m[name] = q3
		case "alloc_mb_per_op", "live_heap_mb":
			m[name] = q2
		case "lat_p99_ms":
			// printed, not gated: too few samples beyond it
		default:
			m[name] = q1
		}
	}
	if queryOps > 0 {
		m["modeled_mcycles_per_op"] = cycles / float64(queryOps) / 1e6
	}
	return m
}
