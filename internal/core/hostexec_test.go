package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// TestParallelRepeatable reruns one worklist-heavy benchmark several times in
// both deferred modes: host scheduling must never leak into modeled time,
// stats or outputs, and no data structure on the merge path may iterate in a
// nondeterministic order. (The deferred effect state is slices traversed in
// insertion order — shadows by array id, batches by first-use order — and the
// attribution table folds phases in sorted-name order, never by map order.)
func TestParallelRepeatable(t *testing.T) {
	b, _ := kernels.ByName("sssp-nf")
	g := PrepareGraph(b, graph.RMAT(9, 8, 16, 4))
	for _, mode := range []HostExec{HostCooperative, HostParallel} {
		var first *outcome
		for trial := 0; trial < 5; trial++ {
			res, err := Run(b, g, Config{Tasks: 8, HostExec: mode})
			if err != nil {
				t.Fatalf("mode %d trial %d: %v", mode, trial, err)
			}
			o := snapshot(res, err)
			if trial == 0 {
				first = o
				continue
			}
			if err := first.diff(o, fAll, nil); err != nil {
				t.Fatalf("mode %d trial %d: %v", mode, trial, err)
			}
		}
	}
}
