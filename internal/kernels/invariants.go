package kernels

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
)

// State is the read-only view of a running instance that invariant
// validators check at checkpoint time. Cur* return live array contents,
// Prev* the contents at the last verified checkpoint (nil before the first
// checkpoint — evolution rules are skipped then, range rules still apply).
// codegen.StateView implements it structurally.
type State interface {
	Graph() *graph.CSR
	CurI(name string) []int32
	CurF(name string) []float32
	PrevI(name string) []int32
	PrevF(name string) []float32
	// Frontier returns the pipeline-in worklist size, -1 when the program
	// has no worklist; FrontierCap its capacity.
	Frontier() int
	FrontierCap() int
}

// Invariant validates kernel-specific algorithmic invariants against live
// state. A non-nil error (wrapping fault.ErrInvariantViolation) marks the
// state corrupt: the would-be checkpoint is rejected and the run rolls back.
type Invariant func(State) error

// InvariantFor returns the invariant validator for a benchmark, nil when the
// kernel has no checkable invariants. The catalog (see DESIGN.md "Failure
// model"):
//
//	bfs-*    levels in [0, Inf] and never increasing; frontier within capacity
//	sssp-nf  distances in [0, Inf] and never increasing; frontier within capacity
//	cc, mst  labels in [0, i] and monotonically decreasing
//	mst      accumulated forest weight never decreasing
//	kcore    residual degrees in [0, degree(i)] and never increasing;
//	         alive flags in {0,1} and never resurrected
//	mis      priorities frozen; decided states frozen; states in [0,2]
//	pr*      degree array frozen to the graph's degrees
//	tri      triangle count non-negative and never decreasing
func InvariantFor(name string) Invariant {
	switch name {
	case "bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb":
		return func(s State) error {
			if err := checkRangeI(name, "lvl-range", "lvl", s.CurI("lvl"), 0, Inf); err != nil {
				return err
			}
			if err := checkMonotoneDown(name, "lvl-monotone", "lvl", s.CurI("lvl"), s.PrevI("lvl")); err != nil {
				return err
			}
			return checkFrontier(name, s)
		}
	case "sssp-nf":
		return func(s State) error {
			if err := checkRangeI(name, "dist-range", "dist", s.CurI("dist"), 0, Inf); err != nil {
				return err
			}
			if err := checkMonotoneDown(name, "dist-monotone", "dist", s.CurI("dist"), s.PrevI("dist")); err != nil {
				return err
			}
			return checkFrontier(name, s)
		}
	case "cc":
		return func(s State) error {
			if err := checkLabels(name, s.CurI("comp")); err != nil {
				return err
			}
			return checkMonotoneDown(name, "comp-monotone", "comp", s.CurI("comp"), s.PrevI("comp"))
		}
	case "mst":
		return func(s State) error {
			if err := checkLabels(name, s.CurI("comp")); err != nil {
				return err
			}
			if err := checkMonotoneDown(name, "comp-monotone", "comp", s.CurI("comp"), s.PrevI("comp")); err != nil {
				return err
			}
			// minedge is excluded: it is reset to mstNone every round, so it has
			// no cross-checkpoint evolution rule.
			cur := s.CurI("mstwt")
			if len(cur) > 0 && cur[0] < 0 {
				return violation(name, "mstwt-range", "mstwt", 0, fmt.Sprintf("weight %d < 0", cur[0]))
			}
			if prev := s.PrevI("mstwt"); len(prev) > 0 && len(cur) > 0 && cur[0] < prev[0] {
				return violation(name, "mstwt-monotone", "mstwt", 0,
					fmt.Sprintf("weight decreased %d -> %d", prev[0], cur[0]))
			}
			return nil
		}
	case "kcore":
		return func(s State) error {
			g := s.Graph()
			deg, alive := s.CurI("deg"), s.CurI("alive")
			for i, d := range deg {
				if max := g.Degree(int32(i)); d < 0 || d > max {
					return violation(name, "deg-range", "deg", i,
						fmt.Sprintf("residual degree %d outside [0,%d]", d, max))
				}
			}
			if err := checkMonotoneDown(name, "deg-monotone", "deg", deg, s.PrevI("deg")); err != nil {
				return err
			}
			if err := checkRangeI(name, "alive-range", "alive", alive, 0, 1); err != nil {
				return err
			}
			if err := checkMonotoneDown(name, "alive-monotone", "alive", alive, s.PrevI("alive")); err != nil {
				return err
			}
			return checkFrontier(name, s)
		}
	case "mis":
		return func(s State) error {
			if err := checkFrozen(name, "pri-frozen", "pri", s.CurI("pri"), s.PrevI("pri")); err != nil {
				return err
			}
			state := s.CurI("state")
			if err := checkRangeI(name, "state-range", "state", state, 0, 2); err != nil {
				return err
			}
			if prev := s.PrevI("state"); prev != nil {
				for i := range state {
					if prev[i] != 0 && state[i] != prev[i] {
						return violation(name, "state-frozen", "state", i,
							fmt.Sprintf("decided state changed %d -> %d", prev[i], state[i]))
					}
				}
			}
			return checkRangeI(name, "cand-range", "cand", s.CurI("cand"), 0, 1)
		}
	case "pr", "pr-delta":
		return func(s State) error {
			g := s.Graph()
			deg := s.CurI("deg")
			for i, d := range deg {
				if want := g.Degree(int32(i)); d != want {
					return violation(name, "deg-frozen", "deg", i,
						fmt.Sprintf("degree %d != graph degree %d", d, want))
				}
			}
			return nil
		}
	case "tri":
		return func(s State) error {
			cur := s.CurI("count")
			if len(cur) > 0 && cur[0] < 0 {
				return violation(name, "count-range", "count", 0, fmt.Sprintf("count %d < 0", cur[0]))
			}
			if prev := s.PrevI("count"); len(prev) > 0 && len(cur) > 0 && cur[0] < prev[0] {
				return violation(name, "count-monotone", "count", 0,
					fmt.Sprintf("count decreased %d -> %d", prev[0], cur[0]))
			}
			return nil
		}
	}
	return nil
}

func violation(kernel, rule, array string, index int, detail string) error {
	return &fault.InvariantError{Kernel: kernel, Rule: rule, Array: array, Index: index, Detail: detail}
}

// checkRangeI verifies lo <= v <= hi for every element.
func checkRangeI(kernel, rule, array string, cur []int32, lo, hi int32) error {
	for i, v := range cur {
		if v < lo || v > hi {
			return violation(kernel, rule, array, i, fmt.Sprintf("value %d outside [%d,%d]", v, lo, hi))
		}
	}
	return nil
}

// checkMonotoneDown verifies no element increased since the last checkpoint.
func checkMonotoneDown(kernel, rule, array string, cur, prev []int32) error {
	if prev == nil || len(prev) != len(cur) {
		return nil
	}
	for i, v := range cur {
		if v > prev[i] {
			return violation(kernel, rule, array, i, fmt.Sprintf("value increased %d -> %d", prev[i], v))
		}
	}
	return nil
}

// checkFrozen verifies the array is bit-identical to the last checkpoint.
func checkFrozen(kernel, rule, array string, cur, prev []int32) error {
	if prev == nil || len(prev) != len(cur) {
		return nil
	}
	for i, v := range cur {
		if v != prev[i] {
			return violation(kernel, rule, array, i, fmt.Sprintf("frozen value changed %d -> %d", prev[i], v))
		}
	}
	return nil
}

// checkLabels verifies the union-find label invariant comp[i] in [0, i] that
// min-hooking with iota initialization maintains.
func checkLabels(kernel string, comp []int32) error {
	for i, v := range comp {
		if v < 0 || v > int32(i) {
			return violation(kernel, "comp-range", "comp", i, fmt.Sprintf("label %d outside [0,%d]", v, i))
		}
	}
	return nil
}

// checkFrontier verifies the worklist size is within its capacity. Worklists
// may carry duplicates, so the size is bounded by the list's capacity rather
// than |V|.
func checkFrontier(kernel string, s State) error {
	f := s.Frontier()
	if f < 0 {
		return nil // program has no worklist
	}
	if c := s.FrontierCap(); f > c {
		return violation(kernel, "frontier-bound", "", -1, fmt.Sprintf("frontier %d exceeds capacity %d", f, c))
	}
	return nil
}
