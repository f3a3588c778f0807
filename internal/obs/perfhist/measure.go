package perfhist

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// MeasureHead measures the deterministic series of the benchmark
// configuration directly from the working tree: every paper kernel on
// RMAT(12, 8, 16, 42) under the cooperative scheduler, once with the csr
// layout and once with sell forced wherever the layout policy lets it attach.
// Modeled cycles and their attribution are bit-reproducible, so comparing
// the result against the last accepted report needs no repeated sampling and
// no wall clock: any difference is a real change in the code.
//
// Allocs/op is runtime.MemStats around three back-to-back runs, after a
// warm-up run outside the window so lazily-initialized package state is not
// billed to the first sample.
func MeasureHead() (*Report, error) {
	raw := graph.RMAT(12, 8, 16, 42)
	head := &Report{GoVersion: runtime.Version(), Graph: raw.Name, Rows: map[string]Row{}}
	for _, k := range kernels.All() {
		g := core.PrepareGraph(k, raw)
		for _, lay := range []core.Layout{core.LayoutCSR, core.LayoutSell} {
			cfg := core.Config{Src: g.MaxDegreeNode(), Layout: lay, HostExec: core.HostCooperative}
			warm, err := core.Run(k, g, cfg)
			if err != nil {
				return nil, fmt.Errorf("perfhist: %s/%s: %w", k.Name, lay, err)
			}
			if warm.Layout != lay.String() {
				continue // the policy pins this kernel to csr: no sell row
			}
			const runs = 3
			var last *core.Result
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < runs; i++ {
				if last, err = core.Run(k, g, cfg); err != nil {
					return nil, fmt.Errorf("perfhist: %s/%s: %w", k.Name, lay, err)
				}
			}
			runtime.ReadMemStats(&ms1)
			attr := last.Engine.Attribution()
			row := Row{
				Kernel:        k.Name,
				Layout:        last.Layout,
				ModeledCycles: last.Engine.TimeCycles(),
				CoopAllocsOp:  float64(ms1.Mallocs-ms0.Mallocs) / runs,
				LaneUtil:      last.Stats.LaneUtilization(last.Engine.Width()),
				Attribution:   attr.ClassMap(),
			}
			head.Rows[row.Key()] = row
		}
	}
	return head, nil
}
