package obs

import (
	"fmt"
	"io"
	"strconv"
)

// CostClass buckets modeled cycles by what the modeled hardware was doing
// when they were charged. The engine attributes every cycle it adds to the
// modeled clock to exactly one class, so the per-class totals are a lossless
// decomposition of Engine.TimeCycles(): folded in the canonical order (class
// index order, phases in sorted-name order within a class) they reproduce the
// clock bit-for-bit — see Attribution.Total.
type CostClass uint8

const (
	// CostVALU is vector ALU issue: arithmetic, compares, blends,
	// reductions, scans and conversions.
	CostVALU CostClass = iota
	// CostScalar is uniform scalar issue, including scalar load/store issue
	// slots (their exposed stalls go to CostMemLoad).
	CostScalar
	// CostGatherScatter is the irregular indexed-access path: gather and
	// scatter instruction issue plus hardware-gather stalls. This is the
	// CSR-fallback signature — SELL hub rows and CSR row sweeps cost here.
	CostGatherScatter
	// CostDenseStream is the unit-stride path: vector load/store and packed
	// store issue plus stream-continuation stalls. This is the SELL
	// dense-path signature — slice columns cost here, so the
	// CostGatherScatter/CostDenseStream split separates fallback-CSR from
	// dense-SELL execution per phase.
	CostDenseStream
	// CostMemLoad is exposed scalar-load stall: uniform loads, the leading
	// lane of a unit-stride vector load, and per-lane software-gather loads
	// on targets without native gather.
	CostMemLoad
	// CostAtomic is the fixed issue+latency charge of non-push hardware
	// atomics.
	CostAtomic
	// CostWorklist is the atomic charge of worklist pushes (tail
	// reservations and staged-slot commits).
	CostWorklist
	// CostAtomicSerial is segment time set by the contended-atomic
	// serialization floor (the whole segment was bound by serialized
	// atomics, not by any one task's compute or stalls).
	CostAtomicSerial
	// CostBarrier is inter-segment barrier cost.
	CostBarrier
	// CostLaunch is task-launch cost.
	CostLaunch
	// CostHost is modeled sequential host work between launches
	// (Engine.AddCycles).
	CostHost
	// CostRecovery is reserved for checkpoint/rollback work. Rollback
	// restores the modeled clock to the checkpoint, so wasted cycles never
	// remain on the clock and this class stays zero in the summed buckets;
	// discarded-execution cost is reported separately (Attribution.Wasted).
	CostRecovery

	NumCostClasses
)

var costClassNames = [NumCostClasses]string{
	CostVALU:          "valu",
	CostScalar:        "scalar",
	CostGatherScatter: "gather_scatter",
	CostDenseStream:   "dense_stream",
	CostMemLoad:       "mem_load",
	CostAtomic:        "atomic",
	CostWorklist:      "worklist",
	CostAtomicSerial:  "atomic_serial",
	CostBarrier:       "barrier",
	CostLaunch:        "launch",
	CostHost:          "host",
	CostRecovery:      "recovery",
}

func (c CostClass) String() string {
	if c < NumCostClasses {
		return costClassNames[c]
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// ParseCostClass resolves a class name written by String.
func ParseCostClass(s string) (CostClass, bool) {
	for c := CostClass(0); c < NumCostClasses; c++ {
		if costClassNames[c] == s {
			return c, true
		}
	}
	return 0, false
}

// AttrPhase is one pipe-loop phase's share of the modeled clock, broken down
// by cost class.
type AttrPhase struct {
	Phase  string
	Cycles [NumCostClasses]float64
}

// Attribution is a snapshot of an engine's cycle attribution: every cycle on
// the modeled clock assigned to one (phase, class) bucket. Phases are listed
// in sorted-name order — the canonical fold order — so Total reproduces the
// engine clock bit-exactly.
type Attribution struct {
	Phases []AttrPhase
	// Wasted is modeled cycles of discarded (rolled-back) execution. It is
	// NOT part of the clock — rollback rewinds the clock to the checkpoint —
	// and therefore not part of Total; callers fill it from recovery stats.
	Wasted float64
}

// ClassTotals folds each class across phases in listed (sorted-name) order.
// Because the engine recomputes its clock with exactly this fold after every
// charge, each entry is the class's exact share of the clock.
func (a *Attribution) ClassTotals() [NumCostClasses]float64 {
	var t [NumCostClasses]float64
	for c := 0; c < int(NumCostClasses); c++ {
		for i := range a.Phases {
			t[c] += a.Phases[i].Cycles[c]
		}
	}
	return t
}

// Total folds the class totals in class index order. This is the canonical
// fold the engine uses for its clock, so Total == Engine.TimeCycles()
// bit-exactly for a snapshot taken from that engine.
func (a *Attribution) Total() float64 {
	t := a.ClassTotals()
	var sum float64
	for c := 0; c < int(NumCostClasses); c++ {
		sum += t[c]
	}
	return sum
}

// ClassMap returns the non-zero class totals keyed by class name — the
// serialization the bench report carries. SumClassMap refolds it to the exact
// clock.
func (a *Attribution) ClassMap() map[string]float64 {
	t := a.ClassTotals()
	m := make(map[string]float64)
	for c := CostClass(0); c < NumCostClasses; c++ {
		if t[c] != 0 {
			m[c.String()] = t[c]
		}
	}
	return m
}

// SumClassMap folds a ClassMap in class index order — the canonical fold —
// so a JSON round-trip of the map still sums bit-exactly to the clock it was
// snapshotted from (encoding/json preserves float64 exactly; absent classes
// contribute an exact zero).
func SumClassMap(m map[string]float64) float64 {
	var sum float64
	for c := CostClass(0); c < NumCostClasses; c++ {
		sum += m[c.String()]
	}
	return sum
}

// WriteCollapsed renders the attribution in collapsed-stack ("folded")
// format, one "root;phase;class cycles" line per non-zero bucket — the input
// format flamegraph tools consume. Cycles are rounded to integers for
// display; the exact decomposition lives in the struct.
func (a *Attribution) WriteCollapsed(w io.Writer, root string) {
	for i := range a.Phases {
		p := &a.Phases[i]
		for c := CostClass(0); c < NumCostClasses; c++ {
			if v := p.Cycles[c]; v != 0 {
				fmt.Fprintf(w, "%s;%s;%s %s\n", root, p.Phase, c,
					strconv.FormatFloat(v, 'f', 0, 64))
			}
		}
	}
	if a.Wasted != 0 {
		fmt.Fprintf(w, "%s;(rolled-back);recovery %s\n", root,
			strconv.FormatFloat(a.Wasted, 'f', 0, 64))
	}
}

// Total folds the phase's classes in class index order.
func (p *AttrPhase) Total() float64 {
	var sum float64
	for c := 0; c < int(NumCostClasses); c++ {
		sum += p.Cycles[c]
	}
	return sum
}

// WriteText renders two summary tables, each row with its cycles and share of
// Total: one row per non-zero cost class in class index order, then one row
// per phase in the listed (sorted-name) order.
func (a *Attribution) WriteText(w io.Writer) {
	totals := a.ClassTotals()
	total := a.Total()
	pct := func(v float64) float64 {
		if total > 0 {
			return 100 * v / total
		}
		return 0
	}
	fmt.Fprintf(w, "%-14s %16s %7s\n", "class", "cycles", "%")
	for c := CostClass(0); c < NumCostClasses; c++ {
		if totals[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %16.0f %6.2f%%\n", c, totals[c], pct(totals[c]))
	}
	fmt.Fprintf(w, "%-14s %16.0f %7s\n", "total", total, "")
	if a.Wasted != 0 {
		fmt.Fprintf(w, "%-14s %16.0f %7s\n", "rolled-back", a.Wasted, "")
	}
	fmt.Fprintf(w, "\n%-14s %16s %7s\n", "phase", "cycles", "%")
	for i := range a.Phases {
		p := &a.Phases[i]
		v := p.Total()
		fmt.Fprintf(w, "%-14s %16.0f %6.2f%%\n", p.Phase, v, pct(v))
	}
}
