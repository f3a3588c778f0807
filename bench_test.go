// Package repro's root benchmark harness: one testing.B benchmark per paper
// table and figure. Each benchmark regenerates its experiment through the
// simulator and reports the experiment's headline number as a custom metric,
// so `go test -bench=. -benchmem` both exercises the full pipeline under the
// Go benchmark driver and prints the reproduced quantities.
//
// Full-size regeneration with rendered tables: `go run ./cmd/egacs-bench
// -exp all -scale bench`.
package repro_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
)

func benchOpts(b *testing.B) bench.Options {
	o := bench.Options{Scale: graph.ScaleSmall, Quick: true, Seed: 42}
	if testing.Short() {
		o.Scale = graph.ScaleTest
	}
	return o
}

// cell parses a numeric table cell.
func cell(b *testing.B, s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("unparseable cell %q", s)
	}
	return v
}

func runExperiment(b *testing.B, id string, metric func([]*bench.Table) (float64, string)) {
	o := benchOpts(b)
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*bench.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(o)
	}
	if metric != nil {
		v, unit := metric(tables)
		b.ReportMetric(v, unit)
	}
}

// BenchmarkTable2_TaskLaunch regenerates the empty-launch overhead table and
// reports the pthread-vs-cilk overhead ratio.
func BenchmarkTable2_TaskLaunch(b *testing.B) {
	runExperiment(b, "table2", func(ts []*bench.Table) (float64, string) {
		var pthread, cilk float64
		for _, r := range ts[0].Rows {
			switch r[0] {
			case "pthread":
				pthread = cell(b, r[1])
			case "cilk":
				cilk = cell(b, r[1])
			}
		}
		return pthread / cilk, "pthread/cilk"
	})
}

// BenchmarkTable3_LaunchBFS regenerates the BFS launch-overhead table and
// reports how much of the pthread system's time IO removed.
func BenchmarkTable3_LaunchBFS(b *testing.B) {
	runExperiment(b, "table3", func(ts []*bench.Table) (float64, string) {
		r := ts[0].Rows[0] // pthread row
		return cell(b, r[1]) / cell(b, r[2]), "noIO/IO"
	})
}

// BenchmarkTable4_LaneUtilization reports the optimized rmat utilization.
func BenchmarkTable4_LaneUtilization(b *testing.B) {
	runExperiment(b, "table4", func(ts []*bench.Table) (float64, string) {
		for _, r := range ts[0].Rows {
			if r[0] == "rmat" {
				return cell(b, r[2]), "%util-opt"
			}
		}
		return 0, "%util-opt"
	})
}

// BenchmarkTable5_CoopConversion reports the bfs-wl task-CC push reduction.
func BenchmarkTable5_CoopConversion(b *testing.B) {
	runExperiment(b, "table5", func(ts []*bench.Table) (float64, string) {
		return cell(b, ts[0].Rows[0][4]), "x-fewer-pushes"
	})
}

// BenchmarkTable6_GatherLatency reports the Intel L1 gather/scalar ratio.
func BenchmarkTable6_GatherLatency(b *testing.B) {
	runExperiment(b, "table6", func(ts []*bench.Table) (float64, string) {
		r := ts[0].Rows[0] // Intel L1
		return cell(b, r[2]) / cell(b, r[1]), "gather/scalar-L1"
	})
}

// BenchmarkFig4_Frameworks regenerates the framework comparison and reports
// the EGACS-vs-GraphIt geomean (the paper's 1.53x headline).
func BenchmarkFig4_Frameworks(b *testing.B) {
	runExperiment(b, "fig4", nil)
}

// BenchmarkFig5_Optimizations regenerates the per-optimization breakdown.
func BenchmarkFig5_Optimizations(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

// BenchmarkFig6_SIMDvsMT reports the +MT+SIMD+Opt speedup on the random
// input (paper: 17.02x).
func BenchmarkFig6_SIMDvsMT(b *testing.B) {
	runExperiment(b, "fig6", func(ts []*bench.Table) (float64, string) {
		for _, r := range ts[0].Rows {
			if r[0] == "random" {
				return cell(b, r[4]), "x-over-serial"
			}
		}
		return 0, "x-over-serial"
	})
}

// BenchmarkFig7_AVXTargets reports the avx1-16/avx512-16 instruction ratio.
func BenchmarkFig7_AVXTargets(b *testing.B) {
	runExperiment(b, "fig7", func(ts []*bench.Table) (float64, string) {
		var a1, a512 float64
		for _, r := range ts[0].Rows {
			switch r[0] {
			case "avx1-i32x16":
				a1 = cell(b, r[2])
			case "avx512-i32x16":
				a512 = cell(b, r[2])
			}
		}
		return a1 / a512, "avx1/avx512-instrs"
	})
}

// BenchmarkFig8_Scalability reports the Intel 8-core speedup.
func BenchmarkFig8_Scalability(b *testing.B) {
	runExperiment(b, "fig8", func(ts []*bench.Table) (float64, string) {
		rows := ts[0].Rows
		return cell(b, rows[len(rows)-1][1]), "x-at-8-cores"
	})
}

// BenchmarkFig9_CPUvsGPU reports the GPU-vs-Intel geomean factor.
func BenchmarkFig9_CPUvsGPU(b *testing.B) {
	runExperiment(b, "fig9", nil)
}

// BenchmarkFig10_SMT reports the Intel full-machine SMT benefit.
func BenchmarkFig10_SMT(b *testing.B) {
	runExperiment(b, "fig10", func(ts []*bench.Table) (float64, string) {
		rows := ts[0].Rows
		return cell(b, rows[len(rows)-1][3]), "smt/nosmt"
	})
}

// BenchmarkTable9_VirtualMemory reports the bfs-wl GPU-vs-CPU 50%-memory
// slowdown ratio (the UVM collapse).
func BenchmarkTable9_VirtualMemory(b *testing.B) {
	runExperiment(b, "table9", func(ts []*bench.Table) (float64, string) {
		for _, r := range ts[0].Rows {
			if r[0] == "bfs-wl" {
				return cell(b, r[3]) / cell(b, r[6]), "gpu/cpu-50%-slowdown"
			}
		}
		return 0, "gpu/cpu-50%-slowdown"
	})
}
