package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestSellDensePathEngages asserts the forced SELL layout actually routes
// work through the dense column loop on the topology-driven kernels — a
// regression guard against the dispatch silently always falling back to CSR
// (which would keep outputs identical and hide the layout entirely).
func TestSellDensePathEngages(t *testing.T) {
	// bfs-tp is deliberately absent: its edge loop sits under the
	// lvl[n]==level predicate, so the chunk mask the density gate sees is
	// the frontier — at test scale no chunk reaches half occupancy and the
	// per-phase heuristic correctly keeps every sweep on CSR.
	dense := []string{"cc", "tri", "mis", "pr", "mst"}
	g0 := testGraphs()[1] // rmat: skewed degrees, the layout's target
	for _, name := range dense {
		b := mustKernel(t, name)
		g := PrepareGraph(b, g0)
		res, err := Run(b, g, Config{Tasks: 4, Layout: LayoutSell})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.OrderSensitive {
			if res.Layout != "csr" || res.Stats.SellColumns != 0 {
				t.Errorf("%s: order-sensitive kernel took the sell path (%q, %d columns)",
					name, res.Layout, res.Stats.SellColumns)
			}
			continue
		}
		if res.Layout != "sell" || res.Sell == nil {
			t.Fatalf("%s: layout = %q, sell = %v; want attached sell", name, res.Layout, res.Sell)
		}
		if res.Stats.SellColumns == 0 {
			t.Errorf("%s: forced sell layout never took the dense path", name)
		}
		if err := res.Sell.Validate(g); err != nil {
			t.Errorf("%s: attached layout invalid after run: %v", name, err)
		}
	}
}

// TestLayoutAutoPolicy checks the auto policy's machine gating: machines
// whose gathers are slower than unit-stride loads get the layout, a machine
// model without that gap (or an order-sensitive kernel) does not.
func TestLayoutAutoPolicy(t *testing.T) {
	g := PrepareGraph(mustKernel(t, "cc"), testGraphs()[1])
	res, err := Run(mustKernel(t, "cc"), g, Config{Layout: LayoutAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != "sell" {
		t.Errorf("auto on Intel8: layout = %q, want sell (gather %gx scalar load at L1)",
			res.Layout, machine.Intel8().GatherLaneCost[machine.L1])
	}

	pr := mustKernel(t, "pr")
	gp := PrepareGraph(pr, testGraphs()[1])
	res, err = Run(pr, gp, Config{Layout: LayoutAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != "csr" || res.Stats.SellColumns != 0 {
		t.Errorf("auto on pr: layout = %q with %d columns, want csr", res.Layout, res.Stats.SellColumns)
	}

	// Default (zero) layout must stay pure CSR so calibrated numbers and
	// golden tests are untouched.
	res, err = Run(mustKernel(t, "cc"), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != "csr" || res.Sell != nil || res.Stats.SellColumns != 0 {
		t.Errorf("default layout not csr: %q, sell=%v", res.Layout, res.Sell)
	}
}

// TestSellMismatchedCFallsBack: a prebuilt layout whose C differs from the
// vector width attaches fine but must be inert — dispatch requires C == W.
func TestSellMismatchedCFallsBack(t *testing.T) {
	b := mustKernel(t, "cc")
	g := PrepareGraph(b, testGraphs()[0])
	s, err := graph.BuildSellCS(g, 4, 0) // Intel8 target width is 16
	if err != nil {
		t.Fatal(err)
	}
	csr, err := Run(b, g, Config{Layout: LayoutCSR})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b, g, Config{Layout: LayoutSell, Sell: s, SellC: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != "sell" {
		t.Fatalf("layout = %q, want sell (attached but inert)", res.Layout)
	}
	if res.Stats.SellColumns != 0 {
		t.Errorf("C=4 layout on width-16 target took the dense path (%d columns)", res.Stats.SellColumns)
	}
	if err := snapshot(csr, nil).diff(snapshot(res, nil), fArrays, nil); err != nil {
		t.Errorf("outputs diverge under inert sell attachment: %v", err)
	}
}

// TestSellComposesWithRecovery runs a SELL-layout benchmark under
// checkpointing with injected recoverable faults: the layout arrays are
// engine-registered before the first cut, so rollback re-execution must
// still find them attached and converge to the CSR-identical answer.
func TestSellComposesWithRecovery(t *testing.T) {
	b := mustKernel(t, "cc")
	g := PrepareGraph(b, testGraphs()[1])
	csr, err := Run(b, g, Config{Layout: LayoutCSR})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b, g, Config{
		Layout:           LayoutSell,
		CheckpointEvery:  1,
		VerifyInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != "sell" {
		t.Fatalf("layout = %q, want sell", res.Layout)
	}
	if err := snapshot(csr, nil).diff(snapshot(res, nil), fArrays, nil); err != nil {
		t.Errorf("outputs diverge between csr and checkpointed sell run: %v", err)
	}
}

// TestSellComposesWithEnginePooling reuses one engine across alternating
// layouts: ResetAll must fully clear the previous run's sell binding so a
// CSR run on a pooled engine cannot accidentally observe a stale layout.
func TestSellComposesWithEnginePooling(t *testing.T) {
	b := mustKernel(t, "cc")
	g := PrepareGraph(b, testGraphs()[0])
	// Engine reuse requires the same machine model instance (pointer
	// identity, as the serving layer's pools guarantee).
	m := machine.Intel8()
	first, err := Run(b, g, Config{Machine: m, Layout: LayoutSell})
	if err != nil {
		t.Fatal(err)
	}
	if first.Layout != "sell" {
		t.Fatalf("first run layout = %q, want sell", first.Layout)
	}
	second, err := Run(b, g, Config{Machine: m, Layout: LayoutCSR, Engine: first.Engine})
	if err != nil {
		t.Fatal(err)
	}
	if second.Engine != first.Engine {
		t.Fatal("engine was not reused")
	}
	if second.Layout != "csr" || second.Stats.SellColumns != 0 {
		t.Errorf("pooled csr run reports layout %q with %d sell columns",
			second.Layout, second.Stats.SellColumns)
	}
	third, err := Run(b, g, Config{Machine: m, Layout: LayoutSell, Engine: second.Engine})
	if err != nil {
		t.Fatal(err)
	}
	if third.Layout != "sell" || third.Stats.SellColumns == 0 {
		t.Errorf("pooled sell run: layout %q, %d columns", third.Layout, third.Stats.SellColumns)
	}
	if err := snapshot(first, nil).diff(snapshot(third, nil), fArrays, nil); err != nil {
		t.Errorf("pooled sell rerun diverges from fresh sell run: %v", err)
	}
}

func mustKernel(t *testing.T, name string) *kernels.Benchmark {
	t.Helper()
	b, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
