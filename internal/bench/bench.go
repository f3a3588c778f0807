// Package bench regenerates every table and figure of the paper's evaluation
// (Section IV): task-launch overheads (Tables II, III), lane utilization
// (Table IV), cooperative-conversion push counts (Table V), gather latency
// (Table VI), framework comparison (Fig. 4, Table X), per-optimization
// breakdown (Fig. 5), SIMD/MT attribution (Fig. 6), SIMD width and AVX
// version sweeps (Fig. 7), scalability (Fig. 8), CPU-vs-GPU (Fig. 9), SMT
// (Fig. 10) and the virtual-memory study (Table IX).
//
// Each experiment returns renderable text tables; absolute numbers come from
// the machine model, so the claims to compare against the paper are the
// shapes: orderings, ratios and crossovers (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
)

// RunBudget bounds every experiment run that does not set its own budget: a
// regression that stops a kernel from converging fails the experiment with a
// typed error instead of spinning the suite forever. The iteration cap is
// far above any legitimate run on the evaluation inputs (deep road grids
// need thousands of BFS iterations; none need a million).
var RunBudget = fault.Budget{MaxIters: 1 << 20, StallWindow: 4096}

// Table is one renderable result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options configure an experiment run.
type Options struct {
	// Scale selects input sizes (default ScaleSmall).
	Scale graph.Scale
	// Seed drives the graph generators.
	Seed uint64
	// Quick restricts the benchmark set to bfs-wl/sssp-nf/pr for fast
	// regeneration passes.
	Quick bool
	// Registry, when set, collects each experiment's headline numbers
	// (lane utilization, push reductions, geomean speedups) under
	// "<experiment>/<detail>" names (written by `egacs-bench -metrics`).
	Registry *obs.Registry
	// Layout, SellC and SellSigma configure the comparison arm of the
	// layout experiment (see LayoutExp); the paper-reproduction tables
	// always run the calibrated CSR configuration regardless.
	Layout    core.Layout
	SellC     int
	SellSigma int
	// Backend selects the kernel backend for every simulated run (default
	// auto). Modeled numbers are backend-invariant by construction — the
	// differential suite in internal/core enforces bit-identity — so this
	// only changes how long table regeneration takes; pin "interp" to
	// regenerate on the oracle.
	Backend core.Backend
}

// observe records a headline number into the attached registry; without one
// it is a no-op, so experiments sprinkle observations freely.
func (o Options) observe(name string, v float64) {
	if o.Registry != nil {
		o.Registry.Observe(name, v)
	}
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// graphs returns the three paper input families at the configured scale,
// named road/rmat/random.
func (o Options) graphs() []*graph.CSR {
	return graph.Suite(o.Scale, o.Seed)
}

// benchSet returns the benchmark list for this run.
func (o Options) benchSet() []*kernels.Benchmark {
	if !o.Quick {
		return kernels.All()
	}
	var out []*kernels.Benchmark
	for _, n := range []string{"bfs-wl", "sssp-nf", "pr"} {
		b, err := kernels.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// Experiment couples an id with its generator.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options) []*Table
}

// Experiments lists all regenerable tables and figures in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "CUDA-to-ISPC construct mapping (documentation)", Table1},
		{"table2", "empty task-launch overhead per tasking system", Table2},
		{"table3", "BFS-WL launch overhead with/without iteration outlining", Table3},
		{"table4", "SIMD lane utilization and dynamic instructions", Table4},
		{"table5", "atomic worklist pushes under cooperative conversion", Table5},
		{"table6", "scalar vs gather load-to-use latency by cache level", Table6},
		{"fig4", "framework comparison: speedup over serial (and Table X raw times)", Fig4},
		{"fig5", "effect of individual throughput optimizations", Fig5},
		{"fig6", "contributions of SIMD, multi-tasking and optimizations", Fig6},
		{"fig7", "SIMD width and AVX version sweep", Fig7},
		{"fig8", "scalability with core count", Fig8},
		{"fig9", "CPU vs GPU", Fig9},
		{"fig10", "SMT effect", Fig10},
		{"table9", "virtual memory: footprint and limited-memory slowdown", Table9},
		{"layout", "graph layouts: CSR vs SELL-C-sigma per kernel and family (extension)", LayoutExp},
		{"ablation", "design-knob ablations: NP threshold, fiber cap, SSSP delta (extension)", Ablation},
		{"ext-neon", "ARM NEON target evaluation (the paper's future work, as an extension)", NeonExt},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// --- shared helpers ---

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// runMS executes one EGACS configuration and returns modeled milliseconds.
func runMS(b *kernels.Benchmark, g *graph.CSR, cfg core.Config) float64 {
	if !cfg.Budget.Enabled() {
		cfg.Budget = RunBudget
	}
	res, err := core.Run(b, g, cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %s on %s: %v", b.Name, g.Name, err))
	}
	return res.TimeMS
}

// prep caches symmetrized graphs per benchmark.
type prepCache struct {
	sym map[string]*graph.CSR
}

func newPrepCache() *prepCache { return &prepCache{sym: map[string]*graph.CSR{}} }

func (p *prepCache) graph(b *kernels.Benchmark, g *graph.CSR) *graph.CSR {
	if !b.NeedsSymmetric {
		return g
	}
	if s, ok := p.sym[g.Name]; ok {
		return s
	}
	s := g.Symmetrize()
	p.sym[g.Name] = s
	return s
}

// serialCache memoizes serial reference times per (machine, bench, graph).
type serialCache struct {
	times map[string]float64
}

func newSerialCache() *serialCache { return &serialCache{times: map[string]float64{}} }

func (s *serialCache) ms(m *machine.Config, b *kernels.Benchmark, g *graph.CSR, src int32) float64 {
	key := m.Name + "/" + b.Name + "/" + g.Name
	if t, ok := s.times[key]; ok {
		return t
	}
	cfg := core.SerialConfig(m)
	cfg.Src = src
	t := runMS(b, g, cfg)
	s.times[key] = t
	return t
}

// shortName renders road-NxN as "road" etc. for row labels.
func shortName(g *graph.CSR) string {
	switch {
	case strings.HasPrefix(g.Name, "road"):
		return "road"
	case strings.HasPrefix(g.Name, "rmat"):
		return "rmat"
	case strings.HasPrefix(g.Name, "random"):
		return "random"
	}
	return g.Name
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
