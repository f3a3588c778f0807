// Package baselines implements scalar multicore graph frameworks in the
// styles of Ligra, GraphIt and Galois, the paper's comparison systems
// (Fig. 4, Table X). They run on the same SPMD engine in scalar mode with
// the same machine and cache models, so the EGACS-vs-framework comparison
// isolates the effect of SIMD execution and the GPU-derived optimizations,
// exactly as the paper's timer-placement methodology intends.
//
// Fidelity notes (see DESIGN.md): each framework keeps its signature
// algorithmic traits — Ligra and GraphIt get direction-optimizing BFS and
// frontier-based label-propagation CC; Galois gets asynchronous-style
// chunk-aggregated worklists, delta-stepping SSSP, union-find CC and Boruvka
// MST — plus per-framework constant overheads for their abstraction layers.
package baselines

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// tuning captures the per-framework modeling knobs.
type tuning struct {
	// denseDenom enables direction-optimizing traversal: a round goes
	// dense when |frontier|+frontierEdges > m/denseDenom (Ligra's 20).
	// Zero disables direction switching.
	denseDenom int
	// edgeOverheadOps models per-edge abstraction overhead (functor calls,
	// bounds bookkeeping) in scalar instructions.
	edgeOverheadOps int
	// vertexOverheadOps models per-vertex overhead.
	vertexOverheadOps int
	// chunkedPush aggregates worklist pushes per task with a single
	// reservation (Galois's chunked local queues); otherwise pushes pay a
	// prefix-sum-style two-op cost plus one reservation per task (Ligra's
	// edgeMap packing).
	chunkedPush bool
	taskSys     spmd.TaskSystem
}

// Framework is one baseline system.
type Framework struct {
	Name string
	t    tuning
	// algos maps EGACS benchmark names to implementations.
	algos map[string]func(cx *ctx) error
}

// Result reports one baseline run.
type Result struct {
	TimeMS float64
	Stats  spmd.Stats
	OutI   map[string][]int32
	OutF   map[string][]float32
}

// Ligra returns the Ligra-style framework: Cilk tasking, direction-
// optimizing edgeMap, frontier-based algorithms, template-library overhead.
func Ligra() *Framework {
	f := &Framework{
		Name: "ligra",
		t: tuning{
			denseDenom: 20,
			// Template-library machinery: per-edge functor calls through
			// edgeMap, frontier membership checks, CAS wrappers.
			edgeOverheadOps:   10,
			vertexOverheadOps: 14,
			taskSys:           spmd.Cilk,
		},
	}
	f.algos = map[string]func(cx *ctx) error{
		"bfs-wl":  algoBFSDirOpt,
		"sssp-nf": algoSSSPBellmanFord,
		"cc":      algoCCLabelProp,
		"tri":     algoTRI,
		"mis":     algoMIS,
		"pr":      algoPRPull,
	}
	return f
}

// GraphIt returns the GraphIt-style framework: compiler-generated loops
// (low per-edge overhead), direction optimization with a more aggressive
// switch, Cilk tasking. The paper compares EGACS to GraphIt on five common
// benchmarks.
func GraphIt() *Framework {
	f := &Framework{
		Name: "graphit",
		t: tuning{
			denseDenom: 12,
			// Compiler-generated loops: the leanest scalar per-edge code
			// of the three systems.
			edgeOverheadOps:   4,
			vertexOverheadOps: 6,
			taskSys:           spmd.Cilk,
		},
	}
	f.algos = map[string]func(cx *ctx) error{
		"bfs-wl":  algoBFSDirOpt,
		"sssp-nf": algoSSSPBellmanFord,
		"cc":      algoCCLabelProp,
		"mis":     algoMIS,
		"pr":      algoPRPull,
	}
	return f
}

// Galois returns the Galois-style framework: asynchronous chunked
// worklists, delta-stepping SSSP, union-find CC and Boruvka MST.
func Galois() *Framework {
	f := &Framework{
		Name: "galois",
		t: tuning{
			denseDenom: 0, // no direction optimization
			// Operator/worklist machinery and conflict bookkeeping.
			edgeOverheadOps:   7,
			vertexOverheadOps: 10,
			chunkedPush:       true,
			taskSys:           spmd.TBB,
		},
	}
	f.algos = map[string]func(cx *ctx) error{
		"bfs-wl":  algoBFSWorklist,
		"sssp-nf": algoSSSPDelta,
		"cc":      algoCCUnionFind,
		"tri":     algoTRI,
		"mis":     algoMIS,
		"pr":      algoPRPull,
		"mst":     algoMSTBoruvka,
	}
	return f
}

// Frameworks returns all three baselines.
func Frameworks() []*Framework {
	return []*Framework{Ligra(), GraphIt(), Galois()}
}

// Supports reports whether the framework implements the benchmark.
func (f *Framework) Supports(bench string) bool {
	_, ok := f.algos[bench]
	return ok
}

// Benchmarks lists the supported benchmark names.
func (f *Framework) Benchmarks() []string {
	var out []string
	for _, n := range []string{"bfs-wl", "sssp-nf", "cc", "tri", "mis", "pr", "mst"} {
		if f.Supports(n) {
			out = append(out, n)
		}
	}
	return out
}

// Run executes the named benchmark on g (already prepared: symmetrized for
// cc/tri/mis/mst) under the machine model with the given task count
// (0 = machine default).
func (f *Framework) Run(bench string, g *graph.CSR, m *machine.Config, tasks int, src int32) (*Result, error) {
	algo, ok := f.algos[bench]
	if !ok {
		return nil, fmt.Errorf("baselines: %s does not implement %s", f.Name, bench)
	}
	e := spmd.New(m, vec.TargetScalar, tasks)
	e.TaskSys = f.t.taskSys
	cx := &ctx{
		e:    e,
		g:    g,
		src:  src,
		t:    f.t,
		outI: map[string][]int32{},
		outF: map[string][]float32{},
	}
	cx.bind()
	if err := algo(cx); err != nil {
		return nil, fmt.Errorf("baselines: %s/%s: %w", f.Name, bench, err)
	}
	return &Result{
		TimeMS: e.TimeMS(),
		Stats:  e.Stats,
		OutI:   cx.outI,
		OutF:   cx.outF,
	}, nil
}
