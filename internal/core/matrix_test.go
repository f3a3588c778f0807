package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// The execution matrix is this package's one differential gate. A cell picks a
// value on every axis. Every cell is verified against the serial reference,
// and because the host axes (exec, backend, layout, recovery, engine) must
// never move a modeled number, every cell is also compared with an oracle
// cell that differs from it on one host axis (see relations).
type axis int

const (
	axKernel axis = iota
	axInput
	axOpts
	axTarget
	axTasks
	axExec
	axBackend
	axLayout
	axRecovery
	axEngine
	axSeed
	numAxes
)

// cell holds one value index per axis.
type cell [numAxes]uint8

// axes declares every axis once, by the spelling of its values (the CLI's
// where it has one). Value 0 is the axis default.
var axes = [numAxes][]string{
	axKernel:   names(len(mxKernels), func(i int) string { return mxKernels[i].Name }),
	axInput:    names(len(mxInputs), func(i int) string { return mxInputs[i].name }),
	axOpts:     {"all", "none", "io", "np", "cc", "io+cc+np", "fibers"},
	axTarget:   {"avx512-i32x16", "scalar", "avx1-i32x4", "avx1-i32x8", "avx1-i32x16", "avx2-i32x4", "avx2-i32x8", "avx2-i32x16", "avx512-i32x4", "avx512-i32x8", "gpu", "neon-i32x4"},
	axTasks:    {"4", "default"}, // default: the machine's, as serve launches
	axExec:     {"live", "cooperative", "parallel"},
	axBackend:  {"auto", "interp"},
	axLayout:   {"csr", "sell"},
	axRecovery: {"off", "transient", "bitflip", "gather"},
	axEngine:   {"fresh", "reused"},
	axSeed:     {"42", "7"}, // the injector's, when recovery is on
}

var (
	mxKernels   = kernels.AllWithExtensions()
	mxExec      = []HostExec{HostLive, HostCooperative, HostParallel}
	mxInjection = []fault.Config{{}, {Transient: 0.15}, {BitFlip: 0.3}, {GatherIndex: 0.001, BitFlip: 0.1}}
	// NEON targets run on the ARM model, everything else on Intel8; one
	// instance of each, so a reused engine matches its cell's machine.
	intel8, arm64 = machine.Intel8(), machine.ARM64()
	// mxInputs: the graph.Suite test families, the graphs the anchors were
	// pinned on, and adversarial shapes.
	mxInputs = []struct {
		name  string
		build func() *graph.CSR
	}{
		{"road", func() *graph.CSR { return graph.Suite(graph.ScaleTest, 7)[0] }},
		{"rmat", func() *graph.CSR { return graph.Suite(graph.ScaleTest, 7)[1] }},
		{"random", func() *graph.CSR { return graph.Suite(graph.ScaleTest, 7)[2] }},
		{"bridge-w64", func() *graph.CSR { return bridgeGraph(64) }}, // 64: the generators' max weight
		{"rmat-s3", func() *graph.CSR { return graph.RMAT(8, 8, 64, 3) }},
		{"rmat-s5", func() *graph.CSR { return graph.RMAT(8, 8, 16, 5) }},
		{"rmat9", func() *graph.CSR { return graph.RMAT(9, 8, 16, 4) }},
		{"random400", recoveryGraph},
		{"random250-sorted", func() *graph.CSR {
			g := graph.Random(250, 1800, 16, 3)
			g.SortAdjacency()
			return g
		}},
		{"dup-selfloop", dupLoopGraph},
		{"islands", islandsGraph},
		{"hub", hubGraph},
		{"single", func() *graph.CSR { return mustGraph(1, nil) }},
		{"edgeless", func() *graph.CSR { return mustGraph(48, nil) }},
	}
)

// Value indices the anchors and relations name.
const (
	execLive, execCoop, execPar = 0, 1, 2
	backendAuto, backendInterp  = 0, 1
	layoutCSR, layoutSell       = 0, 1
	recOff, recTransient        = 0, 1
	tasksDefault                = 1
	engFresh, engReused         = 0, 1
)

// relations declares the oracle relation of each host axis, in the order a
// cell's chain takes them: the axis, the oracle of each of its values (-1:
// none), the facets the pair must agree on, and the cells it holds in (nil:
// all), given the cell's outcome. Relations that keep the clock and every
// array come first.
var relations = []struct {
	axis   axis
	oracle []int8
	facets facet
	holds  func(c cell, o *outcome) bool
}{
	{axEngine, []int8{-1, engFresh}, fAll, nil},
	// Index corruption runs live whatever the mode asked for.
	{axExec, []int8{-1, -1, execCoop}, fAll, func(c cell, _ *outcome) bool { return mxInjection[c[axRecovery]].GatherIndex == 0 }},
	// Where the generated code does not cover the cell, auto ran the
	// interpreter: the pair would compare a run with itself.
	{axBackend, []int8{backendInterp, -1}, fAll &^ fBackend, func(_ cell, o *outcome) bool { return o.backend != "interp" }},
	{axRecovery, []int8{-1, recOff, -1, -1}, fAll &^ fRecovery, nil},
	// SELL reorders accesses, so corrupting injections land elsewhere.
	{axLayout, []int8{-1, layoutCSR}, fOutputs | fBackend, func(c cell, _ *outcome) bool { return c[axRecovery] <= recTransient }},
}

// anchors are the sub-products tier-1 always runs whole: the cells each axis
// was first pinned on, keyed by the test that runs them. A nil axis is its
// default value.
var anchors = func() map[string][numAxes][]uint8 {
	paper, all := span(len(kernels.All())), span(len(mxKernels))
	ext := all[len(paper):]
	families, four := span(3), pick(axKernel, "bfs-wl", "sssp-nf", "cc", "pr")
	return map[string][numAxes][]uint8{
		// every paper kernel, family, the weight-64 bridge and every opt set
		"TestAllBenchmarksAllOptsMatchReference": {axKernel: paper, axInput: span(4), axOpts: span(len(axes[axOpts]))},
		// every ISA and width (NEON, last, on the ARM model)
		"TestAllTargetsMatchReference": {axKernel: paper, axInput: pick(axInput, "rmat-s3"), axTarget: span(len(axes[axTarget]) - 1)},
		"TestNEONAllKernelsCorrect":    {axKernel: paper, axInput: pick(axInput, "rmat-s5"), axTarget: pick(axTarget, "neon-i32x4")},
		// the deferred modes against each other, and the LiveAtomics
		// extensions asked to run parallel
		"TestParallelMatchesCooperativeBitwise": {axKernel: paper, axInput: families, axExec: {execCoop, execPar}},
		"TestExtensionsForcedLive":              {axKernel: ext, axInput: families, axExec: {execPar}},
		// every kernel and family under every exec × backend and exec × layout
		"TestCompiledMatchesInterpBitwise": {axKernel: all, axInput: families, axExec: span(3), axBackend: span(2)},
		"TestSellMatchesCSRBitwise":        {axKernel: all, axInput: families, axExec: span(3), axLayout: span(2)},
		// the generated dense-column loops against the interpreter's
		"TestCompiledMatchesInterpUnderSell": {axKernel: all, axInput: pick(axInput, "rmat9"), axExec: {execPar}, axBackend: span(2), axLayout: {layoutSell}},
		// both backends through identical fault schedules
		"TestCompiledMatchesInterpUnderFaults": {axKernel: four, axInput: pick(axInput, "random400"), axExec: {execPar}, axBackend: span(2), axRecovery: {1, 2, 3}, axSeed: span(2)},
		// rollbacks and engine reuse in both deferred modes
		"TestRecoveryBitIdentical": {axKernel: paper, axInput: pick(axInput, "random400"), axExec: {execCoop, execPar}, axRecovery: {recOff, recTransient}, axEngine: span(2)},
		// serve's pooled engines: the machine's task count, one engine
		// per group serving tenant after tenant
		"TestEngineReuseMatchesFresh": {axKernel: four, axInput: pick(axInput, "random250-sorted"), axTasks: {tasksDefault}, axExec: span(3), axEngine: span(2)},
	}
}()

func TestAllBenchmarksAllOptsMatchReference(t *testing.T) { runAnchor(t) }
func TestAllTargetsMatchReference(t *testing.T)           { runAnchor(t) }
func TestNEONAllKernelsCorrect(t *testing.T)              { runAnchor(t) }
func TestParallelMatchesCooperativeBitwise(t *testing.T)  { runAnchor(t) }
func TestExtensionsForcedLive(t *testing.T)               { runAnchor(t) }
func TestCompiledMatchesInterpBitwise(t *testing.T)       { runAnchor(t) }
func TestSellMatchesCSRBitwise(t *testing.T)              { runAnchor(t) }
func TestCompiledMatchesInterpUnderSell(t *testing.T)     { runAnchor(t) }
func TestCompiledMatchesInterpUnderFaults(t *testing.T)   { runAnchor(t) }
func TestRecoveryBitIdentical(t *testing.T)               { runAnchor(t) }
func TestEngineReuseMatchesFresh(t *testing.T)            { runAnchor(t) }

// runAnchor runs the whole anchor named after the calling test, beside the
// other anchors. An anchor with transient cells must roll back, or its
// recovery relation would be vacuous.
func runAnchor(t *testing.T) {
	t.Parallel()
	vals, ok := anchors[t.Name()]
	if !ok {
		t.Fatalf("no anchor named %s", t.Name())
	}
	runCells(t, product(vals), slices.Contains(vals[axRecovery], recTransient))
}

// TestExecutionMatrix completes the anchors to an all-pairs covering set of
// the product and runs the cells the anchors lack; `make chaos`
// (EGACS_CHAOS=full) crosses every (kernel, input, opts, target, tasks) base
// of the whole set, anchors included, with the full product of the host axes.
func TestExecutionMatrix(t *testing.T) {
	t.Parallel()
	anchored, rest := coveringSet()
	if os.Getenv("EGACS_CHAOS") == "full" {
		runCells(t, hostProduct(append(anchored, rest...)), true)
		return
	}
	runCells(t, rest, false)
}

// mxWarm holds, per kernel, the warm-up graph prepared for the next kernel.
var mxWarm = sync.OnceValue(func() []*graph.CSR {
	raw, warm := graph.Random(900, 6000, 16, 5), make([]*graph.CSR, len(mxKernels))
	for i := range warm {
		warm[i] = PrepareGraph(mxKernels[(i+1)%len(mxKernels)], raw)
	}
	return warm
})

// runCells checks cells in one parallel subtest per (kernel, input). With
// rollsBack, some transient cell must roll back.
func runCells(t *testing.T, cells []cell, rollsBack bool) {
	slices.SortFunc(cells, func(a, b cell) int { return slices.Compare(a[:], b[:]) })
	// A reused engine has just served the next kernel on a larger graph.
	warm := mxWarm()
	var ran, rollbacks atomic.Int64
	groups := 0
	// Checked only when every group ran: a -run filter may select no
	// transient cell that rolls back.
	t.Cleanup(func() {
		if rollsBack && ran.Load() == int64(groups) && rollbacks.Load() == 0 {
			t.Error("no transient cell rolled back: injection misconfigured, the recovery relation is vacuous")
		}
	})
	// Each group is a contiguous run of cells.
	for ; len(cells) > 0; groups++ {
		n := 1
		for n < len(cells) && [2]uint8(cells[n][:2]) == [2]uint8(cells[0][:2]) {
			n++
		}
		group := cells[:n]
		cells = cells[n:]
		t.Run(axes[axKernel][group[0][axKernel]]+"/"+axes[axInput][group[0][axInput]], func(t *testing.T) {
			t.Parallel()
			r := newMatrixRunner(t, group[0], warm[group[0][axKernel]])
			for _, c := range group {
				r.check(c)
			}
			rollbacks.Add(r.rollbacks)
			ran.Add(1)
		})
	}
}

// coveringSet returns every anchor cell, then the cells that complete all
// pairs greedily: each starts from the first value pair no cell covers yet and
// fills the other axes, in order, with the value covering the most uncovered
// pairs against the axes already set.
func coveringSet() (anchored, rest []cell) {
	type pair struct{ a, va, b, vb uint8 }
	covered := map[pair]bool{}
	var cells []cell
	add := func(c cell) {
		for a := range numAxes {
			for b := range numAxes {
				covered[pair{uint8(a), c[a], uint8(b), c[b]}] = true
			}
		}
		cells = append(cells, c)
	}
	for _, vals := range anchors {
		for _, c := range product(vals) {
			add(c)
		}
	}
	anchored = cells
	cells = nil
	for i := range numAxes {
		for j := i + 1; j < numAxes; j++ {
			for vi := range uint8(len(axes[i])) {
				for vj := range uint8(len(axes[j])) {
					if covered[pair{uint8(i), vi, uint8(j), vj}] {
						continue
					}
					var c cell
					var set [numAxes]bool
					c[i], c[j], set[i], set[j] = vi, vj, true, true
					for k := range numAxes {
						for v, best := uint8(0), -1; !set[k] && v < uint8(len(axes[k])); v++ {
							gain := 0
							for f := range numAxes {
								if set[f] && !covered[pair{uint8(f), c[f], uint8(k), v}] {
									gain++
								}
							}
							if gain > best {
								c[k], best = v, gain
							}
						}
						set[k] = true
					}
					add(c)
				}
			}
		}
	}
	return anchored, cells
}

// hostProduct crosses every (kernel, input, opts, target) base of cells with
// every value of the host axes.
func hostProduct(cells []cell) []cell {
	var vals [numAxes][]uint8
	for a := axExec; a < numAxes; a++ {
		vals[a] = span(len(axes[a]))
	}
	seen := map[[axExec]uint8]bool{}
	var out []cell
	for _, c := range cells {
		if base := [axExec]uint8(c[:axExec]); !seen[base] {
			seen[base] = true
			for a := range axExec {
				vals[a] = []uint8{c[a]}
			}
			out = append(out, product(vals)...)
		}
	}
	return out
}

// product enumerates the sub-product of the given values (nil: the default).
func product(vals [numAxes][]uint8) []cell {
	cells := []cell{{}}
	for a := range numAxes {
		vs := vals[a]
		if vs == nil {
			vs = []uint8{0}
		}
		next := make([]cell, 0, len(cells)*len(vs))
		for _, c := range cells {
			for _, v := range vs {
				c[a] = v
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}

func span(n int) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = uint8(i)
	}
	return s
}

// pick returns the indices of the named values of axis a.
func pick(a axis, vals ...string) []uint8 {
	var s []uint8
	for _, v := range vals {
		s = append(s, uint8(slices.Index(axes[a], v)))
	}
	return s
}

func names(n int, name func(int) string) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = name(i)
	}
	return s
}

func (c cell) String() string {
	parts := make([]string, numAxes)
	for a := range parts {
		parts[a] = axes[a][c[a]]
	}
	if c[axRecovery] == recOff {
		parts = parts[:axSeed]
	}
	return strings.Join(parts, "/")
}

// config builds the run configuration of c, less its engine.
func (c cell) config() Config {
	opts, err1 := opt.Parse(axes[axOpts][c[axOpts]])
	tgt, err2 := vec.ParseTarget(axes[axTarget][c[axTarget]])
	backend, err3 := ParseBackend(axes[axBackend][c[axBackend]])
	layout, err4 := ParseLayout(axes[axLayout][c[axLayout]])
	seed, err5 := strconv.ParseUint(axes[axSeed][c[axSeed]], 10, 64)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		panic(err)
	}
	m := intel8
	if tgt.ISA == vec.NEON {
		m = arm64
	}
	tasks := [...]int{4, m.DefaultTasks}[c[axTasks]]
	cfg := Config{Machine: m, Target: tgt, Tasks: tasks, Opts: &opts, HostExec: mxExec[c[axExec]], Backend: backend, Layout: layout}
	if c[axRecovery] != recOff {
		cfg.CheckpointEvery, cfg.MaxRollbacks, cfg.VerifyInvariants = 1, 200, true
		cfg.Budget = fault.Budget{MaxIters: 5000, StallWindow: 128}
		cfg.Inject = fault.NewInjector(seed, mxInjection[c[axRecovery]])
	}
	return cfg
}

// matrixRunner checks the cells of one kernel on one input, memoizing the
// outcomes of the current (opts, target, tasks) base so a cell runs once.
type matrixRunner struct {
	t         *testing.T
	b, warm   *kernels.Benchmark
	g, warmG  *graph.CSR // prepared for b and warm
	outputs   []string   // reference-defined arrays; nil for worklist-free programs
	base      [axExec - axOpts]uint8
	memo      map[cell]*outcome
	checked   map[cell]bool
	pooled    map[*machine.Config]*spmd.Engine // the reused cells' engine, per machine
	rollbacks int64
}

// newMatrixRunner prepares c's input; warmG is the warm-up graph, already
// prepared for the next kernel.
func newMatrixRunner(t *testing.T, c cell, warmG *graph.CSR) *matrixRunner {
	b, warm := mxKernels[c[axKernel]], mxKernels[(int(c[axKernel])+1)%len(mxKernels)]
	g := mxInputs[c[axInput]].build()
	g.Name = axes[axInput][c[axInput]]
	r := &matrixRunner{t: t, b: b, warm: warm, g: PrepareGraph(b, g), warmG: warmG, pooled: map[*machine.Config]*spmd.Engine{}}
	if b.Prog.WLInit != ir.WLNone {
		ref := b.Reference(r.g, runParams(b, r.g, Config{}), 0)
		for name := range ref.I {
			r.outputs = append(r.outputs, name)
		}
		for name := range ref.F {
			r.outputs = append(r.outputs, name)
		}
	}
	return r
}

// check runs c and compares it with its oracle on the first relation that
// applies, then checks that oracle cell the same way: every cell is chained
// to a cell of oracle values.
func (r *matrixRunner) check(c cell) {
	if base := [axExec - axOpts]uint8(c[axOpts:axExec]); base != r.base || r.memo == nil {
		r.base, r.memo, r.checked = base, map[cell]*outcome{}, map[cell]bool{}
	}
	for c = canonical(c); !r.checked[c]; {
		r.checked[c] = true
		got := r.run(c)
		next := c
		for _, rel := range relations {
			if ov := rel.oracle[c[rel.axis]]; ov >= 0 && (rel.holds == nil || rel.holds(c, got)) {
				next[rel.axis] = uint8(ov)
				if err := r.run(canonical(next)).diff(got, rel.facets, r.outputs); err != nil {
					r.t.Errorf("%v against %v: %v", c, next, err)
				}
				break
			}
		}
		c = canonical(next)
	}
}

// canonical drops the seed of a cell that injects nothing.
func canonical(c cell) cell {
	if c[axRecovery] == recOff {
		c[axSeed] = 0
	}
	return c
}

// run executes one cell, verifies it and pins what ran.
func (r *matrixRunner) run(c cell) *outcome {
	if o, ok := r.memo[c]; ok {
		return o
	}
	t, b, g := r.t, r.b, r.g
	cfg := c.config()
	if c[axEngine] == engReused {
		cfg.Engine = r.warmEngine(c)
	}
	res, err := Run(b, g, cfg)
	o := snapshot(res, err)
	r.memo[c] = o
	// Corrupting injections may end a run in a typed error, or in output a
	// flip after the last checkpoint corrupted undetected: their contract is
	// the relations alone.
	corrupting := c[axRecovery] > recTransient
	if err != nil {
		if !corrupting || !chaosTyped(err) {
			t.Errorf("%v: %v", c, err)
		}
		return o
	}
	if !corrupting {
		if err := Verify(b, g, res); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
	if c[axRecovery] == recTransient {
		r.rollbacks += int64(res.Recovery.Rollbacks)
	}
	if cfg.Engine != nil && res.Engine != cfg.Engine {
		t.Errorf("%v: run did not reuse the supplied engine", c)
	}
	if c[axBackend] == backendInterp && res.Backend != "interp" ||
		c[axBackend] == backendAuto && c[axOpts] == 0 && c[axTarget] == 0 && res.Backend != "compiled" {
		t.Errorf("%v: backend pin not honored: ran %q", c, res.Backend)
	}
	if c[axLayout] == layoutCSR && (res.Layout != "csr" || res.Stats.SellColumns != 0) {
		t.Errorf("%v: csr cell ran layout %q with %d sell columns", c, res.Layout, res.Stats.SellColumns)
	}
	if b.OrderSensitive && res.Layout != "csr" {
		t.Errorf("%v: order-sensitive kernel not pinned to csr", c)
	}
	if axes[axInput][c[axInput]] == "rmat9" && res.Layout == "sell" && res.Stats.SellColumns == 0 {
		t.Errorf("%v: sell attached but no dense column ran", c)
	}
	if want := c[axExec] != execLive && !b.Prog.LiveAtomics && !cfg.Inject.LiveOnly(); res.Engine.DeferredExec() != want {
		t.Errorf("%v: deferred execution = %v, want %v", c, !want, want)
	}
	return o
}

// warmEngine returns the group's pooled engine for c's machine after it has
// served the next kernel on a larger graph, checkpointing and rolling back, so
// its recovery point and cache model hold another run's data when the reused
// cell resets it. The engine has also served every earlier reused cell of the
// group, and their warm-ups: tenant after tenant, as a serve pool's engine.
func (r *matrixRunner) warmEngine(c cell) *spmd.Engine {
	own := c.config()
	cfg := Config{Machine: own.Machine, Target: own.Target, Tasks: own.Tasks, HostExec: own.HostExec, Engine: r.pooled[own.Machine],
		CheckpointEvery: 1, MaxRollbacks: 200, Inject: fault.NewInjector(42, fault.Config{Transient: 0.15})}
	res, err := Run(r.warm, r.warmG, cfg)
	if err != nil {
		r.t.Fatalf("%v: warming the engine with %s: %v", c, r.warm.Name, err)
	}
	r.pooled[own.Machine] = res.Engine
	return res.Engine
}

// facet names one part of an outcome a relation compares.
type facet uint8

const (
	fClock    facet = 1 << iota // modeled time and every Stats counter
	fArrays                     // every declared array
	fOutputs                    // the reference-defined arrays only
	fRecovery                   // checkpoint and rollback counters
	fBackend                    // the backend that ran
	fLayout                     // the layout that ran
	fAll      = fClock | fArrays | fRecovery | fBackend | fLayout
)

// outcome is what a run exposes to a relation: the error that ended it, or
// its modeled clock, counters, paths and a copy of every declared array.
type outcome struct {
	err             string
	cycles, timeMS  float64
	stats           spmd.Stats
	recovery        codegen.RecoveryStats
	backend, layout string
	names           []string
	arrays          map[string][]uint32 // int32 values, float32 bit patterns
}

func snapshot(res *Result, err error) *outcome {
	if err != nil {
		return &outcome{err: err.Error()}
	}
	o := &outcome{cycles: res.Engine.TimeCycles(), timeMS: res.TimeMS, stats: res.Stats,
		recovery: res.Recovery, backend: res.Backend, layout: res.Layout, arrays: map[string][]uint32{}}
	for _, d := range res.Instance.M.Prog.Arrays {
		var bits []uint32
		for _, v := range res.Instance.ArrayI(d.Name) {
			bits = append(bits, uint32(v))
		}
		for _, v := range res.Instance.ArrayF(d.Name) {
			bits = append(bits, math.Float32bits(v))
		}
		o.names = append(o.names, d.Name)
		o.arrays[d.Name] = bits
	}
	return o
}

// diff reports where got departs from want: the error text always, then the
// facets asked for. fOutputs compares the named arrays (all when outputs is
// nil). Floats compare bit for bit: the relations demand the same
// accumulation order, not numeric closeness.
func (want *outcome) diff(got *outcome, facets facet, outputs []string) error {
	if want.err != got.err {
		return fmt.Errorf("error diverges:\nwant %s\ngot  %s", want.err, got.err)
	}
	if want.err != "" {
		return nil
	}
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if facets&fClock != 0 && (want.cycles != got.cycles || want.timeMS != got.timeMS) {
		bad("modeled time: want %v cycles (%v ms), got %v (%v ms)", want.cycles, want.timeMS, got.cycles, got.timeMS)
	}
	if facets&fClock != 0 && want.stats != got.stats {
		bad("stats:\nwant %+v\ngot  %+v", want.stats, got.stats)
	}
	if facets&fRecovery != 0 && want.recovery != got.recovery {
		bad("recovery counters: want %+v, got %+v", want.recovery, got.recovery)
	}
	if facets&fBackend != 0 && want.backend != got.backend {
		bad("backend: want %q, got %q", want.backend, got.backend)
	}
	if facets&fLayout != 0 && want.layout != got.layout {
		bad("layout: want %q, got %q", want.layout, got.layout)
	}
	if facets&(fArrays|fOutputs) != 0 {
		if facets&fArrays != 0 || outputs == nil {
			outputs = want.names
		}
		for _, name := range outputs {
			w, g := want.arrays[name], got.arrays[name]
			for i := range max(len(w), len(g)) {
				if i >= len(w) || i >= len(g) || w[i] != g[i] {
					bad("array %q diverges at [%d] (lengths %d, %d)", name, i, len(w), len(g))
					break
				}
			}
		}
	}
	return errors.Join(errs...)
}

// bridgeGraph is two 16-node rings joined by one edge of weight w: every
// spanning tree must take that edge, so mst verifies only if a weight-w edge
// can win its component's minimum-edge selection.
func bridgeGraph(w int32) *graph.CSR {
	var es []graph.Edge
	for side := int32(0); side < 2; side++ {
		for i := int32(0); i < 16; i++ {
			es = append(es, graph.Edge{Src: side*16 + i, Dst: side*16 + (i+1)%16, W: 1 + (i*7)%13})
		}
	}
	return mustGraph(32, append(es, graph.Edge{Src: 0, Dst: 16, W: w}))
}

// dupLoopGraph is a directed ring with chords in which every edge appears
// twice with different weights and every third node has a self-loop.
func dupLoopGraph() *graph.CSR {
	var es []graph.Edge
	for i := int32(0); i < 64; i++ {
		for _, d := range []int32{(i + 1) % 64, (i*7 + 3) % 64} {
			es = append(es, graph.Edge{Src: i, Dst: d, W: 1 + i%9}, graph.Edge{Src: i, Dst: d, W: 20 + i%5})
		}
		if i%3 == 0 {
			es = append(es, graph.Edge{Src: i, Dst: i, W: 4})
		}
	}
	return mustGraph(64, es)
}

// islandsGraph is a path holding the source and a ring, with isolated
// vertices around them.
func islandsGraph() *graph.CSR {
	var es []graph.Edge
	for i := int32(0); i < 12; i++ {
		es = append(es, graph.Edge{Src: 20 + i, Dst: 20 + (i+1)%12, W: 1 + i%5}, graph.Edge{Src: 20 + (i+1)%12, Dst: 20 + i, W: 1 + i%5})
		if i < 9 {
			es = append(es, graph.Edge{Src: i, Dst: i + 1, W: 1 + i%4}, graph.Edge{Src: i + 1, Dst: i, W: 1 + i%4})
		}
	}
	return mustGraph(40, es) // 10..19 and 32..39 are isolated
}

// hubGraph is a sparse random graph plus one vertex adjacent to every other,
// far above the SELL heavy-row cap, so it lands in a fallback slice.
func hubGraph() *graph.CSR {
	es := graph.Random(256, 600, 16, 9).Edges()
	for v := int32(1); v < 256; v++ {
		es = append(es, graph.Edge{Src: 0, Dst: v, W: 1 + v%16}, graph.Edge{Src: v, Dst: 0, W: 1 + v%16})
	}
	return mustGraph(256, es)
}

func mustGraph(n int32, es []graph.Edge) *graph.CSR {
	g, err := graph.FromEdges(n, es, true)
	if err != nil {
		panic(err)
	}
	return g
}
