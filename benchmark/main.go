// Command benchmark is the host-time ledger of EGACS-Go: four closed-loop
// workloads against the public functions of each layer, every answer checked,
// eight end-to-end metrics per workload, and (-trace 1) a per-layer ledger
// from spans recorded around those public calls. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds: what one run measures for.
const defaultSeconds = 28

func main() {
	var (
		workload = flag.String("workload", "all", "kernel-suite | serve-point | serve-analytic | serve-mutate | all")
		seed     = flag.Uint64("seed", 1, "seed of every traffic generator: sources, lookups, op order, mutation streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one workload measures for")
		trace    = flag.Int("trace", 0, "1 = record spans around each public call and report the per-layer ledger instead of the end-to-end metrics")
		aa       = flag.Int("aa", 0, "N > 0: run the whole benchmark 2N times in alternation (A B A B ...) and compare the two sides against the bounds")
		smoke    = flag.Bool("smoke", false, "tiny graphs, two passes: checks the harness, measures nothing")
		outDir   = flag.String("out", "out", "directory for temporary inputs (removed at exit) and trace files")
	)
	flag.Parse()
	if err := pinEnvironment(os.Stdout, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	var todo []*spec
	for _, s := range specs(*smoke) {
		if *workload == "all" || *workload == s.name {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *aa > 0 {
		os.Exit(runAA(todo, *seed, *seconds, *aa, *smoke, *outDir, os.Stdout))
	}

	ok := true
	var lines [][]byte
	for _, s := range todo {
		res, err := runWorkload(s, *seed, *seconds, *trace == 1, *smoke, *outDir, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		lines = append(lines, report(res, *trace == 1, os.Stdout))
		ok = ok && res.correct()
	}
	// One JSON object per workload; the last line of output is always one.
	for _, l := range lines {
		fmt.Printf("%s\n", l)
	}
	if !ok {
		os.Exit(1)
	}
}

// pinEnvironment fixes what the result must not be hostage to, and records
// the rest.
func pinEnvironment(w io.Writer, seed uint64) error {
	nproc := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > nproc {
			return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: threads would time-share and nothing would repeat", n, nproc)
		}
	}
	procs := nproc
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	// internal/serve leaves HostExec at auto, so it serves on whatever this
	// variable says; unset is what a daemon started with no environment runs.
	os.Unsetenv("EGACS_HOST_EXEC")

	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  clients 1 (closed loop)\n",
		nproc, procs, runtime.Version(), commit, seed)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one workload's metrics by name with unit, direction and
// bound, and returns the result line the driver reads.
func report(res *runResult, trace bool, w io.Writer) []byte {
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metricValue{}}
	fmt.Fprintf(w, "%s: %d passes, ops_attempted %d, ops_failed %d\n", res.spec.name, res.passes, res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, d := range defs {
		v := res.metrics[d.Name]
		out.Metrics[d.Name] = metricValue{v, d.Unit}
		if trace {
			if v != 0 {
				fmt.Fprintf(w, "  %-34s %14.6g %-9s\n", d.Name, v, d.Unit)
			}
			continue
		}
		fmt.Fprintf(w, "  %-24s %14.6g %-7s %-6s is better, bound %.3f\n", d.Name, v, d.Unit, d.Better, d.Bound)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return line
}

// runAA measures the same commit against itself: the whole benchmark 2n
// times, sides alternating (A B A B ...) so drift of the host lands on both,
// the k-th A and the k-th B on the same seed. It prints, per workload and
// end-to-end metric, both medians, their relative difference and the bound,
// and returns non-zero when a difference exceeds its bound: a benchmark that
// cannot tell a commit from itself can tell nothing.
func runAA(todo []*spec, seed uint64, seconds float64, n int, smoke bool, outDir string, w io.Writer) int {
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	for rep := 0; rep < 2*n; rep++ {
		for _, s := range todo {
			res, err := runWorkload(s, seed+uint64(rep/2), seconds, false, smoke, outDir, io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: -aa: %s: %v\n", s.name, err)
				return 1
			}
			if !res.correct() {
				fmt.Fprintf(os.Stderr, "benchmark: -aa: %s: %d ops failed: %v\n", s.name, res.failed, res.failures)
				return 1
			}
			for _, d := range endToEnd {
				k := key{s.name, d.Name}
				sides[rep%2][k] = append(sides[rep%2][k], res.metrics[d.Name])
			}
			fmt.Fprintf(w, "run %d/%d side %c %s done\n", rep+1, 2*n, 'A'+rune(rep%2), s.name)
		}
	}
	code := 0
	fmt.Fprintf(w, "\n| workload | metric | median A | median B | B worse by | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, s := range todo {
		for _, d := range endToEnd {
			a, b := median(sides[0][key{s.name, d.Name}]), median(sides[1][key{s.name, d.Name}])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			// A commit does not beat itself either: the difference counts
			// in both directions.
			verdict := "ok"
			if worse > d.Bound || -worse > d.Bound {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %+.4f | %.3f | %s |\n", s.name, d.Name, a, b, worse, d.Bound, verdict)
		}
	}
	return code
}
