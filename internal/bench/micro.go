package bench

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// Table1 renders the paper's CUDA-to-ISPC construct mapping (Table I),
// extended with a column locating each construct in this reproduction.
func Table1(o Options) []*Table {
	return []*Table{{
		ID:     "table1",
		Title:  "CUDA construct mapping (paper Table I, extended)",
		Header: []string{"CUDA", "ISPC", "executed-on-CPU-by", "this-repo"},
		Rows: [][]string{
			{"CUDA thread", "program instance", "SIMD lane", "vec lane + lane mask bit"},
			{"warp", "ISPC task", "OS thread", "spmd.TaskCtx (cooperative goroutine)"},
			{"thread block", "(none; fibers emulate)", "n/a", "codegen fiber loop (Kernel.Fibers)"},
			{"kernel launch", "launch statement", "tasking system", "spmd.Engine.Launch + TaskSystem"},
			{"__syncthreads", "(none; fiber partition)", "n/a", "fiber loop partitioning / tc.Barrier"},
			{"atomicAdd", "atomic_add_global", "lock-prefixed RMW", "TaskCtx.AtomicAdd*"},
			{"warp ballot/population", "popcnt(lanemask())", "movemask+popcnt", "vec.Mask.PopCount"},
			{"stream compaction", "packed_store_active", "vpcompressd/shuffle", "TaskCtx.PackedStore"},
		},
		Notes: []string{"static documentation table; nothing is measured"},
	}}
}

// Table2 reproduces the empty-launch tasking microbenchmark (Table II):
// average time per launch when tasks do nothing, with as many tasks as
// hardware threads, per tasking system.
func Table2(o Options) []*Table {
	o = o.withDefaults()
	m := machine.Intel8()
	t := &Table{
		ID:     "table2",
		Title:  "time per empty task launch (Intel, 16 tasks), averaged over 10000 launches",
		Header: []string{"task-system", "ns/launch"},
		Notes: []string{
			"pthread is the slowest system and cilk the fastest, as in the paper",
		},
	}
	const launches = 10000
	for _, ts := range spmd.TaskSystems() {
		e := spmd.New(m, m.PreferredTarget, m.DefaultTasks)
		e.TaskSys = ts
		for i := 0; i < launches; i++ {
			e.LaunchEmpty(m.DefaultTasks)
		}
		t.Rows = append(t.Rows, []string{ts.Name, f1(e.TimeNS() / launches)})
	}
	return []*Table{t}
}

// Table3 reproduces Table III: BFS-WL on the road graph per tasking system,
// with and without Iteration Outlining. IO collapses the differences.
func Table3(o Options) []*Table {
	o = o.withDefaults()
	m := machine.Intel8()
	g := o.graphs()[0] // road
	bfs := o.benchSet()[0]
	src := g.MaxDegreeNode()
	t := &Table{
		ID:     "table3",
		Title:  "BFS-WL (road) execution time by tasking system, ms",
		Header: []string{"task-system", "no-IO", "with-IO", "overhead-removed"},
		Notes: []string{
			"openmp has the lowest real-launch overhead; IO makes all systems equal",
		},
	}
	noIO := opt.Options{NP: true, CC: true}
	withIO := opt.Options{NP: true, CC: true, IO: true}
	for _, ts := range spmd.TaskSystems() {
		ts := ts
		base := runMS(bfs, g, core.Config{Backend: o.Backend, Machine: m, TaskSys: &ts, Opts: &noIO, Src: src})
		outl := runMS(bfs, g, core.Config{Backend: o.Backend, Machine: m, TaskSys: &ts, Opts: &withIO, Src: src})
		t.Rows = append(t.Rows, []string{ts.Name, f3(base), f3(outl), f3(base - outl)})
	}
	return []*Table{t}
}

// Table6 reproduces the gather/scalar load-to-use microbenchmark (Table VI):
// random loads from arrays sized to each cache level, per word, in ns.
func Table6(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, m := range []*machine.Config{machine.Intel8(), machine.AMD32(), machine.Phi72()} {
		t := &Table{
			ID:     "table6",
			Title:  "per-word load-to-use latency (ns), " + m.Name,
			Header: []string{"level", "scalar", "gather"},
		}
		// Array sizes chosen to sit inside each level.
		sizes := map[string]int{
			"L1":  m.L1Size / 2 / 4,
			"L2":  m.L2Size / 2 / 4,
			"L3":  (m.L2Size + (m.L3Size-m.L2Size)/2) / 4,
			"Mem": m.L3Size * 4 / 4,
		}
		if m.L3Size == 0 {
			sizes["L3"] = m.L2Size
		}
		for _, lvl := range []string{"L1", "L2", "L3", "Mem"} {
			n := sizes[lvl]
			scalarNS := measureLoads(m, vec.TargetScalar, n)
			gatherNS := measureLoads(m, m.PreferredTarget, n)
			t.Rows = append(t.Rows, []string{lvl, f2(scalarNS), f2(gatherNS)})
		}
		if m.Name == machine.Phi72().Name {
			t.Notes = append(t.Notes,
				"Phi is the only machine whose gather beats scalar loads at L1 (weak out-of-order)")
		}
		tables = append(tables, t)
	}
	return tables
}

// measureLoads sweeps random words from an n-word array after a warmup pass
// and returns the modeled per-word latency in ns.
func measureLoads(m *machine.Config, target vec.Target, n int) float64 {
	e := spmd.New(m, target, 1)
	a := e.AllocI("buf", n)
	state := uint64(99)
	next := func() int32 {
		state = state*6364136223846793005 + 1442695040888963407
		return int32(state % uint64(n))
	}
	// Warm the working set in its own launch so the measured launch only
	// contains the random sweep.
	e.Launch(1, func(tc *spmd.TaskCtx) {
		for i := 0; i < n; i++ {
			tc.ScalarLoadI(a, int32(i))
		}
	})
	warmNS := e.TimeNS()
	const rounds = 2000
	words := 0
	e.Launch(1, func(tc *spmd.TaskCtx) {
		if target.Width == 1 {
			for i := 0; i < rounds*8; i++ {
				tc.ScalarLoadI(a, next())
				words++
			}
			return
		}
		for i := 0; i < rounds; i++ {
			var idx, out vec.Vec
			for l := 0; l < target.Width; l++ {
				idx[l] = next()
			}
			tc.GatherIP(a, &idx, vec.FullMask(target.Width), false, &out)
			words += target.Width
		}
	})
	launchNS := e.TaskSys.LaunchCostNS(1, false)
	return (e.TimeNS() - warmNS - launchNS) / float64(words)
}
