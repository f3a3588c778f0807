package obs

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestAttributionWriteTextPhaseRows: the text report lists one row per phase
// in sorted-name order, and the rows' cycles add up to Total.
func TestAttributionWriteTextPhaseRows(t *testing.T) {
	a := Attribution{Phases: []AttrPhase{
		{Phase: "(init)", Cycles: [NumCostClasses]float64{CostLaunch: 40}},
		{Phase: "bfs_push", Cycles: [NumCostClasses]float64{CostVALU: 1200, CostGatherScatter: 3000, CostWorklist: 250}},
		{Phase: "bfs_swap", Cycles: [NumCostClasses]float64{CostScalar: 16, CostBarrier: 90}},
		{Phase: "relax", Cycles: [NumCostClasses]float64{CostDenseStream: 512, CostHost: 4}},
	}, Wasted: 77}
	var buf bytes.Buffer
	a.WriteText(&buf)
	out := buf.String()

	_, phaseTable, ok := strings.Cut(out, "\nphase ")
	if !ok {
		t.Fatalf("no per-phase table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(phaseTable), "\n")[1:]
	var names []string
	var sum float64
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) != 3 || !strings.HasSuffix(f[2], "%") {
			t.Fatalf("malformed phase row %q in:\n%s", ln, out)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("phase row %q: %v", ln, err)
		}
		names = append(names, f[0])
		sum += v
	}
	if len(names) != len(a.Phases) {
		t.Fatalf("%d phase rows, want %d:\n%s", len(names), len(a.Phases), out)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("phase rows not in sorted-name order: %v", names)
	}
	if sum != a.Total() {
		t.Errorf("phase rows sum to %v, want Total() = %v:\n%s", sum, a.Total(), out)
	}
}
