// Host-execution benchmark: wall-clock cost of the cooperative reference
// scheduler vs. the parallel scheduler, per kernel, with modeled cycles
// recorded alongside to show they are mode-independent.
//
// `make bench` runs this with BENCH_OUT=BENCH_2.json, which makes TestMain
// write a machine-readable report after the run. The wall-clock speedup
// column is only meaningful on a multi-core runner: with GOMAXPROCS=1 the
// parallel scheduler degenerates to one goroutine per task on one core and
// speedup hovers around 1x.
package repro_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
)

// hostExecSample accumulates both modes' timings for one kernel and graph
// layout, plus the observability annotations from one instrumented (untimed)
// run. Layout "csr" rows are the calibrated paper configuration; "sell" rows
// rerun the kernel with the SELL-C-σ layout forced, so the report carries a
// per-kernel CSR-vs-SELL comparison (kernels where the layout cannot apply —
// order-sensitive float kernels, worklist-driven programs — have no sell
// row).
type hostExecSample struct {
	Kernel        string  `json:"kernel"`
	Graph         string  `json:"graph"`
	Layout        string  `json:"layout,omitempty"`
	ModeledCycles float64 `json:"modeled_cycles"`
	CoopWallNsOp  float64 `json:"cooperative_wall_ns_per_op"`
	ParWallNsOp   float64 `json:"parallel_wall_ns_per_op"`
	Speedup       float64 `json:"wall_speedup"`
	CoopAllocsOp  float64 `json:"cooperative_allocs_per_op"`
	CoopBytesOp   float64 `json:"cooperative_bytes_per_op"`
	ParAllocsOp   float64 `json:"parallel_allocs_per_op"`
	ParBytesOp    float64 `json:"parallel_bytes_per_op"`
	CoopNsVsBase  float64 `json:"cooperative_ns_ratio_vs_baseline,omitempty"`
	// Backend comparison (csr rows): the same kernel and cooperative
	// scheduler timed once with the interpreter pinned and once with the
	// generated-Go backend pinned. Both produce bit-identical modeled output
	// (the differential suite in internal/core enforces it); only wall-clock
	// differs, and backend_wall_speedup = interp/compiled.
	InterpWallNsOp   float64 `json:"interp_wall_ns_per_op,omitempty"`
	CompiledWallNsOp float64 `json:"compiled_wall_ns_per_op,omitempty"`
	BackendSpeedup   float64 `json:"backend_wall_speedup,omitempty"`
	LaneUtil         float64 `json:"lane_utilization,omitempty"`
	L1HitRate        float64 `json:"l1_hit_rate,omitempty"`
	TraceEvents      int     `json:"trace_events,omitempty"`
	MetricRows       int     `json:"metric_rows,omitempty"`
	// SELL-specific columns, set on layout "sell" rows (pointers so a
	// legitimate zero — a sweep that never went dense — still serializes,
	// as the schema validator requires).
	SellLaneUtil *float64 `json:"sell_lane_utilization,omitempty"`
	SellPadding  *float64 `json:"sell_padding_overhead,omitempty"`
	SellFallback *float64 `json:"sell_fallback_ratio,omitempty"`
	SellColumns  *int64   `json:"sell_columns,omitempty"`
	// Recovery counters from one instrumented checkpointing run under
	// transient-fault injection (untimed; the timed loops above run with
	// checkpointing off).
	Checkpoints  int     `json:"recovery_checkpoints,omitempty"`
	Rollbacks    int     `json:"recovery_rollbacks,omitempty"`
	BadCkpts     int     `json:"recovery_bad_checkpoints,omitempty"`
	WastedCycles float64 `json:"recovery_wasted_cycles,omitempty"`
	// Per-cost-class modeled-cycle totals, captured from the same engine
	// whose TimeCycles filled ModeledCycles (the cooperative timed loop's
	// last run), so the canonical class-order re-fold reproduces
	// modeled_cycles bit-exactly — the schema validator enforces it.
	CycleAttribution map[string]float64 `json:"cycle_attribution,omitempty"`
}

var hostExecResults = struct {
	sync.Mutex
	byKernel map[string]*hostExecSample
}{byKernel: map[string]*hostExecSample{}}

// hostExecReport is the BENCH_2.json schema (extended with per-layout rows
// and the per-family CSR-vs-SELL cycle deltas since BENCH_7).
type hostExecReport struct {
	SchemaVersion  int                `json:"schema_version"`
	Generated      string             `json:"generated"`
	GoVersion      string             `json:"go_version"`
	NumCPU         int                `json:"num_cpu"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Note           string             `json:"note"`
	Kernels        []hostExecSample   `json:"kernels"`
	GeomeanWall    float64            `json:"geomean_wall_speedup"`
	BackendGeomean float64            `json:"backend_wall_geomean,omitempty"`
	LayoutGeomeans map[string]float64 `json:"layout_cycles_geomean_by_family,omitempty"`
}

// layoutFamilyGeomeans holds the untimed per-family modeled-cycles sweep:
// family name -> geomean of csr_cycles/sell_cycles over the dense-sweep
// kernels (>1 means SELL is faster).
var layoutFamilyGeomeans = struct {
	sync.Mutex
	byFamily map[string]float64
}{byFamily: map[string]float64{}}

func hostExecRow(kernel, graphName, layout string) *hostExecSample {
	key := kernel + "/" + layout
	s := hostExecResults.byKernel[key]
	if s == nil {
		s = &hostExecSample{Kernel: kernel, Graph: graphName, Layout: layout}
		hostExecResults.byKernel[key] = s
	}
	return s
}

func recordHostExec(kernel, graphName, layout, mode string, cycles, nsPerOp, allocsOp, bytesOp float64, attrib map[string]float64) {
	hostExecResults.Lock()
	defer hostExecResults.Unlock()
	s := hostExecRow(kernel, graphName, layout)
	s.ModeledCycles = cycles
	switch mode {
	case "cooperative":
		s.CoopWallNsOp = nsPerOp
		s.CoopAllocsOp = allocsOp
		s.CoopBytesOp = bytesOp
		s.CycleAttribution = attrib
	case "parallel":
		s.ParWallNsOp = nsPerOp
		s.ParAllocsOp = allocsOp
		s.ParBytesOp = bytesOp
	}
}

func recordHostExecBackend(kernel, graphName, layout, backend string, nsPerOp float64) {
	hostExecResults.Lock()
	defer hostExecResults.Unlock()
	s := hostExecRow(kernel, graphName, layout)
	switch backend {
	case "interp":
		s.InterpWallNsOp = nsPerOp
	case "compiled":
		s.CompiledWallNsOp = nsPerOp
	}
}

func recordHostExecObs(kernel, graphName, layout string, laneUtil, l1Rate float64, traceEvents, metricRows int) {
	hostExecResults.Lock()
	defer hostExecResults.Unlock()
	s := hostExecRow(kernel, graphName, layout)
	s.LaneUtil = laneUtil
	s.L1HitRate = l1Rate
	s.TraceEvents = traceEvents
	s.MetricRows = metricRows
}

func recordHostExecSell(kernel, graphName string, laneUtil, padding, fallback float64, columns int64) {
	hostExecResults.Lock()
	defer hostExecResults.Unlock()
	s := hostExecRow(kernel, graphName, "sell")
	s.SellLaneUtil = &laneUtil
	s.SellPadding = &padding
	s.SellFallback = &fallback
	s.SellColumns = &columns
}

func recordHostExecRecovery(kernel, graphName, layout string, checkpoints, rollbacks, badCkpts int, wasted float64) {
	hostExecResults.Lock()
	defer hostExecResults.Unlock()
	s := hostExecRow(kernel, graphName, layout)
	s.Checkpoints = checkpoints
	s.Rollbacks = rollbacks
	s.BadCkpts = badCkpts
	s.WastedCycles = wasted
}

// loadBaseline reads the previous benchmark report (BENCH_BASELINE, default
// BENCH_2.json next to BENCH_OUT) for before/after comparison; nil when
// absent or unreadable.
func loadBaseline() map[string]hostExecSample {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		path = "BENCH_2.json"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep hostExecReport
	if json.Unmarshal(raw, &rep) != nil {
		return nil
	}
	base := make(map[string]hostExecSample, len(rep.Kernels))
	for _, s := range rep.Kernels {
		lay := s.Layout
		if lay == "" {
			lay = "csr" // pre-BENCH_7 reports carry no layout tag
		}
		base[s.Kernel+"/"+lay] = s
	}
	return base
}

// writeHostExecReport writes BENCH_OUT if any BenchmarkHostExec sub-benchmark
// ran. Called from TestMain so it fires once, after all sub-benchmarks.
func writeHostExecReport() {
	path := os.Getenv("BENCH_OUT")
	if path == "" {
		return
	}
	hostExecResults.Lock()
	defer hostExecResults.Unlock()
	if len(hostExecResults.byKernel) == 0 {
		return
	}
	rep := hostExecReport{
		SchemaVersion: obs.BenchSchemaVersion,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "modeled_cycles are identical in both modes by construction " +
			"(see DESIGN.md, Execution vs. costing); wall_speedup needs a " +
			"multi-core runner to exceed 1x",
	}
	base := loadBaseline()
	logProd := 1.0
	n := 0
	baseProd := 1.0
	nBase := 0
	beProd := 1.0
	nBe := 0
	for _, s := range hostExecResults.byKernel {
		if s.CoopWallNsOp > 0 && s.ParWallNsOp > 0 {
			s.Speedup = s.CoopWallNsOp / s.ParWallNsOp
			logProd *= s.Speedup
			n++
		}
		if s.InterpWallNsOp > 0 && s.CompiledWallNsOp > 0 {
			s.BackendSpeedup = s.InterpWallNsOp / s.CompiledWallNsOp
			beProd *= s.BackendSpeedup
			nBe++
		}
		if b, ok := base[s.Kernel+"/"+s.Layout]; ok && b.CoopWallNsOp > 0 && s.CoopWallNsOp > 0 {
			s.CoopNsVsBase = s.CoopWallNsOp / b.CoopWallNsOp
			baseProd *= s.CoopNsVsBase
			nBase++
		}
		rep.Kernels = append(rep.Kernels, *s)
	}
	sort.Slice(rep.Kernels, func(i, j int) bool {
		if rep.Kernels[i].Kernel != rep.Kernels[j].Kernel {
			return rep.Kernels[i].Kernel < rep.Kernels[j].Kernel
		}
		return rep.Kernels[i].Layout < rep.Kernels[j].Layout
	})
	if n > 0 {
		rep.GeomeanWall = math.Pow(logProd, 1/float64(n))
	}
	if nBe > 0 {
		rep.BackendGeomean = math.Pow(beProd, 1/float64(nBe))
		rep.Note += fmt.Sprintf("; interp-vs-compiled backend wall geomean (%d kernels, cooperative/csr): %.2fx",
			nBe, rep.BackendGeomean)
	}
	if nBase > 0 {
		rep.Note += fmt.Sprintf("; geomean cooperative ns/op vs baseline (%d rows): %.3fx",
			nBase, math.Pow(baseProd, 1/float64(nBase)))
	}
	layoutFamilyGeomeans.Lock()
	if len(layoutFamilyGeomeans.byFamily) > 0 {
		rep.LayoutGeomeans = layoutFamilyGeomeans.byFamily
		fams := make([]string, 0, len(rep.LayoutGeomeans))
		for f := range rep.LayoutGeomeans {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		rep.Note += "; csr/sell modeled-cycles geomean over dense-sweep kernels:"
		for _, f := range fams {
			rep.Note += fmt.Sprintf(" %s %.3fx", f, rep.LayoutGeomeans[f])
		}
		rep.Note += " (>1 = sell faster)"
	}
	layoutFamilyGeomeans.Unlock()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "BENCH_OUT:", err)
		return
	}
	// The committed report is a machine-readable artifact; gate it on the
	// same structural validator CI applies via EGACS_BENCH_FILE.
	if err := obs.ValidateBenchReport(out); err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_OUT: wrote %s but it FAILED validation: %v\n", path, err)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	writeHostExecReport()
	os.Exit(code)
}

// BenchmarkHostExec times every paper kernel end to end under the
// cooperative reference scheduler and the parallel scheduler. Modeled cycles
// are reported as a custom metric and must agree between the two modes (the
// differential test in internal/core enforces bit-identity; here they are
// recorded for the report).
func BenchmarkHostExec(b *testing.B) {
	raw := graph.RMAT(12, 8, 16, 42)
	modes := []struct {
		name string
		exec core.HostExec
	}{
		{"cooperative", core.HostCooperative},
		{"parallel", core.HostParallel},
	}
	layouts := []struct {
		name string
		lay  core.Layout
	}{
		{"csr", core.LayoutCSR},
		{"sell", core.LayoutSell},
	}
	for _, k := range kernels.All() {
		g := core.PrepareGraph(k, raw)
		for _, lt := range layouts {
			cfg := core.Config{Src: g.MaxDegreeNode(), Layout: lt.lay}
			// One instrumented run per kernel and layout, outside the timed
			// loops, annotates the report row with observability numbers. The
			// modeled timeline is mode-invariant across the deferred
			// schedulers, so one cooperative run speaks for both timed modes.
			// It also decides whether the sell arm applies at all: kernels
			// the layout policy pins to CSR (float-order-sensitive, worklist
			// programs without a dense path) get no sell row.
			icfg := cfg
			icfg.HostExec = core.HostCooperative
			icfg.Trace = obs.NewTracer(0)
			icfg.Metrics = obs.NewMetrics(0)
			res, err := core.Run(k, g, icfg)
			if err == nil && lt.name == "sell" && res.Layout != "sell" {
				break
			}
			if err == nil {
				mc := res.Engine.Mem.Counters()
				l1 := 0.0
				if mc.Accesses > 0 {
					l1 = float64(mc.Hits[machine.L1]) / float64(mc.Accesses)
				}
				recordHostExecObs(k.Name, g.Name, lt.name,
					res.Stats.LaneUtilization(res.Engine.Width()), l1,
					icfg.Trace.Len(), icfg.Metrics.Len())
				if lt.name == "sell" && res.Sell != nil {
					recordHostExecSell(k.Name, g.Name,
						res.Stats.SellLaneUtilization(res.Engine.Width()),
						res.Sell.Overhead(), res.Sell.FallbackRatio(),
						res.Stats.SellColumns)
				}
			}
			if lt.name == "csr" {
				// One instrumented recovery run per kernel (untimed):
				// checkpointing plus invariant verification under
				// transient-fault injection, so the report surfaces how many
				// checkpoints the run took and how many rollbacks the
				// injected faults cost. The timed loops below stay
				// checkpoint-free.
				rcfg := cfg
				rcfg.HostExec = core.HostCooperative
				rcfg.CheckpointEvery = 2
				rcfg.MaxRollbacks = 200
				rcfg.VerifyInvariants = true
				rcfg.Inject = fault.NewInjector(42, fault.Config{Transient: 0.05})
				if res, err := core.Run(k, g, rcfg); err == nil {
					recordHostExecRecovery(k.Name, g.Name, lt.name,
						res.Recovery.Checkpoints, res.Recovery.Rollbacks,
						res.Recovery.BadCheckpoints, res.Recovery.WastedCycles)
				}
			}
			if lt.name == "csr" {
				// Backend comparison rows: interpreter vs generated Go, both
				// under the cooperative scheduler on the calibrated CSR
				// configuration. BackendInterp pins the oracle; BackendAuto runs
				// the generated code and degrades to the interpreter only for
				// uncovered programs (Result.Backend records which one ran).
				for _, be := range []struct {
					name string
					sel  core.Backend
				}{
					{"interp", core.BackendInterp},
					{"compiled", core.BackendAuto},
				} {
					bcfg := cfg
					bcfg.HostExec = core.HostCooperative
					bcfg.Backend = be.sel
					b.Run(k.Name+"/"+lt.name+"/backend-"+be.name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							if _, err := core.Run(k, g, bcfg); err != nil {
								b.Fatal(err)
							}
						}
						nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
						recordHostExecBackend(k.Name, g.Name, lt.name, be.name, nsPerOp)
					})
				}
			}
			for _, mode := range modes {
				cfg.HostExec = mode.exec
				b.Run(k.Name+"/"+lt.name+"/"+mode.name, func(b *testing.B) {
					b.ReportAllocs()
					var cycles float64
					var last *core.Result
					var ms0, ms1 runtime.MemStats
					runtime.ReadMemStats(&ms0)
					for i := 0; i < b.N; i++ {
						res, err := core.Run(k, g, cfg)
						if err != nil {
							b.Fatal(err)
						}
						cycles = res.Engine.TimeCycles()
						last = res
					}
					runtime.ReadMemStats(&ms1)
					// Attribution must come from the same engine whose TimeCycles
					// fills the row, so the report's per-class sums re-fold to
					// modeled_cycles bit-exactly. Built after the MemStats window:
					// the report map must not perturb the allocs/op series the
					// regression gate watches.
					var attrib map[string]float64
					if mode.name == "cooperative" {
						attr := last.Engine.Attribution()
						attrib = attr.ClassMap()
					}
					b.ReportMetric(cycles, "modeled-cycles")
					nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					allocsOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
					bytesOp := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N)
					recordHostExec(k.Name, g.Name, lt.name, mode.name, cycles, nsPerOp, allocsOp, bytesOp, attrib)
				})
			}
		}
	}
	sweepLayoutFamilies(b)
}

// sweepLayoutFamilies runs the dense-sweep kernels once per graph family and
// layout (untimed, modeled cycles only) and records the per-family geomean of
// csr/sell cycles for the report note — the headline CSR-vs-SELL delta.
func sweepLayoutFamilies(b *testing.B) {
	fams := []*graph.CSR{
		graph.RMAT(12, 8, 16, 42),
		graph.Road(64, 64, 16, 42),
		graph.Random(1<<12, 8, 16, 43),
	}
	for _, raw := range fams {
		var ratios []float64
		for _, k := range kernels.All() {
			if !k.DenseSweep {
				continue
			}
			g := core.PrepareGraph(k, raw)
			var cycles [2]float64
			for i, lay := range []core.Layout{core.LayoutCSR, core.LayoutSell} {
				res, err := core.Run(k, g, core.Config{Src: g.MaxDegreeNode(), Layout: lay})
				if err != nil {
					b.Fatal(err)
				}
				cycles[i] = res.Engine.TimeCycles()
			}
			if cycles[1] > 0 {
				ratios = append(ratios, cycles[0]/cycles[1])
			}
		}
		if len(ratios) == 0 {
			continue
		}
		prod := 1.0
		for _, r := range ratios {
			prod *= r
		}
		layoutFamilyGeomeans.Lock()
		layoutFamilyGeomeans.byFamily[familyOf(raw.Name)] = math.Pow(prod, 1/float64(len(ratios)))
		layoutFamilyGeomeans.Unlock()
	}
}

// familyOf shortens generated graph names (rmat12, road-64x64, ...) to their
// family for the report's geomean map.
func familyOf(name string) string {
	for _, f := range []string{"road", "rmat", "random"} {
		if strings.HasPrefix(name, f) {
			return f
		}
	}
	return name
}
