package main

import (
	"repro/internal/kernels"
	"repro/internal/obs"
)

// metricDef is one named metric of the benchmark. BENCHMARK.json repeats
// these tables; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd lists what a caller of egacs / egacs-serve sees. The same eight
// names are reported on every workload. Definitions are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"modeled_mcycles_per_op", "Mcycle", "lower", 0.05},
}

// kernelFamilies are the two graph families of kernel-suite, in the order the
// per-pair layer metrics are listed.
var kernelFamilies = []string{"rmat", "road"}

// perLayer lists the ledger of the traced run: one row per public function
// (or derived difference) of each module, named <module>.<what>_<unit>.
// Every row is emitted on every workload; a layer a workload never enters
// reads 0 there (README.md says which).
func perLayer() []metricDef {
	low := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	high := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// internal/serve, around Handler().ServeHTTP, ParseQuery, Execute.
		low("serve.parse_us", "us"),
		low("serve.handler_ms", "ms"),
		low("serve.execute_ms", "ms"),
		low("serve.transport_ms", "ms"),
		low("serve.self_ms", "ms"),
		low("serve.selfcheck_ms", "ms"),
		high("serve.ok", "count"),
		low("serve.degraded", "count"),
		low("serve.compactions", "count"),
		// The write path: serve-mutate only.
		low("serve.mutate_ms", "ms"),
		low("serve.compact_ms", "ms"),
		low("serve.epoch_warm_ms", "ms"),
		low("graph.append_us", "us"),
		low("graph.fold_ms", "ms"),
		low("graph.store_compact_ms", "ms"),
		low("graph.wal_bytes", "count"),
		// internal/core and the verifier in internal/kernels.
		low("core.resilient_ms", "ms"),
		low("core.run_ms", "ms"),
		low("core.run_plain_ms", "ms"),
		low("core.checkpoint_ms", "ms"),
		low("core.verify_ms", "ms"),
		low("kernels.verify_ms", "ms"),
		low("core.chain_ms", "ms"),
		// Per-request fixed cost inside core.Run.
		low("opt.apply_us", "us"),
		low("codegen.compile_us", "us"),
		low("spmd.engine_new_us", "us"),
		low("spmd.engine_reset_us", "us"),
		low("codegen.bind_us", "us"),
		low("compiled.enable_us", "us"),
		// The kernel loop.
		low("codegen.run_ms", "ms"),
		low("codegen.run_interp_ms", "ms"),
		high("compiled.speedup", "x"),
		low("spmd.host_ns_per_cycle", "ns/cycle"),
		// Graph preparation.
		low("graph.load_ms", "ms"),
		low("graph.symmetrize_ms", "ms"),
		low("graph.sell_build_ms", "ms"),
		// The modeled clock: exact counts per op, identical across any
		// host-only change.
		low("spmd.instructions", "count"),
		low("spmd.launches", "count"),
		low("spmd.barriers", "count"),
		low("spmd.work_items", "count"),
		high("spmd.lane_utilization", "frac"),
		high("machine.l1_hit_rate", "frac"),
	}
	for c := obs.CostClass(0); c < obs.NumCostClasses; c++ {
		defs = append(defs, low("attr."+c.String()+"_mcycles", "Mcycle"))
	}
	for _, k := range kernels.Names() {
		for _, fam := range kernelFamilies {
			defs = append(defs,
				low("kernel."+k+"."+fam+".ms", "ms"),
				low("kernel."+k+"."+fam+".ns_per_cycle", "ns/cycle"))
		}
	}
	return append(defs,
		// What the independently measured parts leave of the handler's time,
		// and what recording spans costs.
		low("ledger.residual_frac", "frac"),
		low("trace.overhead_frac", "frac"))
}
