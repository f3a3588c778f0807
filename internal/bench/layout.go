package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// LayoutExp compares the CSR and SELL-C-σ graph layouts per kernel and input
// family (an extension beyond the paper's tables; the layout follows SlimSell,
// Besta et al.): modeled time and cycles, inner-loop lane utilization, the
// layout's padding overhead and how many columns actually took the dense
// unit-stride path. Order-sensitive float kernels are pinned to CSR by the
// policy and report a 1.00 ratio; the per-family geomean in the notes covers
// only the runs where a SELL layout attached.
func LayoutExp(o Options) []*Table {
	o = o.withDefaults()
	m := machine.Intel8()
	w := m.PreferredTarget.Width
	arm := o.Layout
	if arm == core.LayoutCSR {
		arm = core.LayoutSell // a csr-vs-csr table would compare nothing
	}
	t := &Table{
		ID:    "layout",
		Title: fmt.Sprintf("graph layouts: csr vs sell-C-sigma (arm=%s, avx512-i32x16, Intel)", arm),
		Header: []string{"input", "benchmark", "layout", "csr-ms", "sell-ms", "cycle-ratio",
			"util-csr", "util-dense", "padding", "fallback", "dense-cols"},
		Notes: []string{
			"cycle-ratio is csr/sell modeled cycles (>1 means the dense layout wins)",
			"util-dense is lane occupancy of the SELL column loop alone; util-csr is whole-run",
			"padding is the sell layout's dead-cell fraction at the chosen C and sigma",
			"fallback is the edge fraction routed to the CSR row-sweep path (hub slices)",
		},
	}
	pc := newPrepCache()
	for _, g := range o.graphs() {
		src := g.MaxDegreeNode()
		var ratios []float64
		for _, b := range o.benchSet() {
			gg := pc.graph(b, g)
			csr, err := core.Run(b, gg, core.Config{Backend: o.Backend,
				Machine: m, Src: src, Layout: core.LayoutCSR, Budget: RunBudget,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: layout: %s on %s csr: %v", b.Name, g.Name, err))
			}
			sell, err := core.Run(b, gg, core.Config{Backend: o.Backend,
				Machine: m, Src: src, Budget: RunBudget,
				Layout: arm, SellC: o.SellC, SellSigma: o.SellSigma,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: layout: %s on %s sell: %v", b.Name, g.Name, err))
			}
			ratio := csr.Engine.TimeCycles() / sell.Engine.TimeCycles()
			padding, fallback, cols := 0.0, 0.0, int64(0)
			if sell.Sell != nil {
				padding = sell.Sell.PaddingRatio()
				fallback = sell.Sell.FallbackRatio()
				cols = sell.Stats.SellColumns
				ratios = append(ratios, ratio)
			}
			name := shortName(g)
			o.observe("layout/"+name+"/"+b.Name+"/cycle_ratio", ratio)
			o.observe("layout/"+name+"/"+b.Name+"/lane_util_dense", sell.Stats.SellLaneUtilization(w))
			t.Rows = append(t.Rows, []string{
				name, b.Name, sell.Layout,
				f3(csr.TimeMS), f3(sell.TimeMS), f2(ratio),
				fmt.Sprintf("%.0f%%", 100*csr.Stats.LaneUtilization(w)),
				fmt.Sprintf("%.0f%%", 100*sell.Stats.SellLaneUtilization(w)),
				fmt.Sprintf("%.1f%%", 100*padding),
				fmt.Sprintf("%.0f%%", 100*fallback),
				fmt.Sprintf("%d", cols),
			})
		}
		if len(ratios) > 0 {
			gm := geomean(ratios)
			o.observe("layout/"+shortName(g)+"/geomean_cycle_ratio", gm)
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: geomean csr/sell cycle ratio %.3f over %d sell-attached runs",
				shortName(g), gm, len(ratios)))
		}
	}
	return []*Table{t}
}
