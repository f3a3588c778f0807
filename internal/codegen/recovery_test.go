package codegen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// TestStateViewPrevOnReusedEngine pins what invariant validators see of the
// last checkpoint when the engine is a pooled one. The engine's recovery
// point keeps its buffers across ResetAll, so at the second run's first
// validation they still hold the first run's arrays — of another kernel, on a
// larger graph, under the same dense ids. PrevI/PrevF must report nil until
// this run has checkpointed, and this run's own data afterwards.
func TestStateViewPrevOnReusedEngine(t *testing.T) {
	eachExec(t, func(t *testing.T, mode spmd.Exec) {
		e := newEngine(mode)
		run := func(bench string, g *graph.CSR, verify func(*StateView) error) {
			t.Helper()
			b, err := kernels.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			in, err := MustCompile(b.Prog).Bind(e, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			in.Recovery = &Recovery{Every: 1, Verify: verify}
			if err := in.Run(); err != nil {
				t.Fatalf("%s: %v", bench, err)
			}
			if in.Recovery.Stats.Checkpoints < 2 {
				t.Fatalf("%s took %d checkpoints; the test needs a second validation", bench, in.Recovery.Stats.Checkpoints)
			}
		}

		run("sssp-nf", graph.Road(12, 12, 8, 1), nil)
		if !e.HasCheckpoint() {
			t.Fatal("first run left no recovery point on the engine")
		}

		for _, second := range []struct {
			bench, array string
			float        bool
		}{{"bfs-wl", "lvl", false}, {"pr", "rank", true}} {
			e.ResetAll(vec.TargetAVX512x16, 4)
			g := graph.Road(6, 6, 8, 2)
			calls := 0
			run(second.bench, g, func(v *StateView) error {
				calls++
				n, otherType := len(v.PrevI(second.array)), len(v.PrevF(second.array))
				if second.float {
					n, otherType = otherType, n
				}
				if otherType != 0 {
					t.Errorf("%s validation %d: %s has previous contents of the wrong element type", second.bench, calls, second.array)
				}
				switch {
				case calls == 1 && n != 0:
					t.Errorf("%s: first validation sees %d previous elements of %s — the earlier run's buffer", second.bench, n, second.array)
				case calls > 1 && n != int(g.NumNodes()):
					t.Errorf("%s validation %d: previous %s has %d elements, want %d", second.bench, calls, second.array, n, g.NumNodes())
				}
				if v.PrevI("graph.rowptr") != nil {
					t.Errorf("%s: a graph binding has previous contents", second.bench)
				}
				return nil
			})
			if calls < 2 {
				t.Fatalf("%s: validator ran %d times", second.bench, calls)
			}
		}
	})
}
