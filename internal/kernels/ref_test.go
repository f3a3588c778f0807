package kernels

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func path4() *graph.CSR {
	// 0 -1- 1 -2- 2 -3- 3 (undirected, weighted)
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 0, W: 1},
		{Src: 1, Dst: 2, W: 2}, {Src: 2, Dst: 1, W: 2},
		{Src: 2, Dst: 3, W: 3}, {Src: 3, Dst: 2, W: 3},
	}, true)
	if err != nil {
		panic(err)
	}
	g.SortAdjacency()
	return g
}

func TestRefBFSPath(t *testing.T) {
	lvl := RefBFS(path4(), 0)
	want := []int32{0, 1, 2, 3}
	for i, w := range want {
		if lvl[i] != w {
			t.Errorf("lvl[%d] = %d, want %d", i, lvl[i], w)
		}
	}
	// Unreachable nodes stay Inf; out-of-range source is total.
	iso, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, W: 1}}, false)
	lvl = RefBFS(iso, 0)
	if lvl[2] != Inf {
		t.Error("unreachable node must stay Inf")
	}
	lvl = RefBFS(iso, -1)
	if lvl[0] != Inf {
		t.Error("invalid source must reach nothing")
	}
}

func TestRefSSSPPath(t *testing.T) {
	dist := RefSSSP(path4(), 0)
	want := []int32{0, 1, 3, 6}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

// Property: on unit-weight graphs, SSSP distances equal BFS levels.
func TestSSSPEqualsBFSOnUnitWeights(t *testing.T) {
	f := func(seed uint16) bool {
		g := graph.Random(64, 256, 1, uint64(seed))
		src := g.MaxDegreeNode()
		bfs := RefBFS(g, src)
		sssp := RefSSSP(g, src)
		for i := range bfs {
			if bfs[i] != sssp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: on weighted graphs, Dijkstra's distances equal Bellman-Ford's,
// and BFS levels equal relaxing with unit weights. The fixed points are
// unique, so the references' queue disciplines cannot show in their output.
func TestRefsMatchBellmanFord(t *testing.T) {
	relax := func(g *graph.CSR, src int32, unit bool) []int32 {
		dist := make([]int32, g.NumNodes())
		for i := range dist {
			dist[i] = Inf
		}
		dist[src] = 0
		for changed := true; changed; {
			changed = false
			for u := int32(0); u < g.NumNodes(); u++ {
				if dist[u] == Inf {
					continue
				}
				for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
					w := int32(1)
					if !unit {
						w = g.EdgeWeight(e)
					}
					if d := g.EdgeDst[e]; dist[u]+w < dist[d] {
						dist[d] = dist[u] + w
						changed = true
					}
				}
			}
		}
		return dist
	}
	f := func(seed uint16) bool {
		g := graph.Random(96, 400, 63, uint64(seed))
		src := int32(seed) % g.NumNodes()
		return reflect.DeepEqual(RefSSSP(g, src), relax(g, src, false)) &&
			reflect.DeepEqual(RefBFS(g, src), relax(g, src, true))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestShortestPathRefsAllocateNoPerNodeObjects pins the serial references
// that the verify path and the reference rung run per request: RefBFS
// allocates its levels and one queue of n slots, and RefSSSP its distances
// and a typed heap that boxes nothing, so neither allocates per visited node.
func TestShortestPathRefsAllocateNoPerNodeObjects(t *testing.T) {
	g := graph.RMAT(10, 8, 63, 42)
	src := g.MaxDegreeNode()
	if allocs := testing.AllocsPerRun(5, func() { RefBFS(g, src) }); allocs != 2 {
		t.Errorf("RefBFS allocates %.0f objects, want 2 (levels, queue)", allocs)
	}
	// The heap keeps stale entries, so it may outgrow its n slots a few times.
	if allocs := testing.AllocsPerRun(5, func() { RefSSSP(g, src) }); allocs > 4 {
		t.Errorf("RefSSSP allocates %.0f objects, want at most 4 (distances, heap and its growth)", allocs)
	}
}

func TestRefCCPartitions(t *testing.T) {
	// Two components: {0,1,2}, {3,4}.
	g, _ := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 0, W: 1},
		{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 1},
		{Src: 3, Dst: 4, W: 1}, {Src: 4, Dst: 3, W: 1},
	}, false)
	comp := RefCC(g)
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("first component split")
	}
	if comp[3] != comp[4] || comp[0] == comp[3] {
		t.Error("components merged or split")
	}
	// Labels are component minima.
	if comp[0] != 0 || comp[3] != 3 {
		t.Errorf("labels not minima: %v", comp)
	}
}

func TestRefTRICounts(t *testing.T) {
	// A triangle plus a pendant edge: exactly one triangle.
	g, _ := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 0, W: 1},
		{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 1},
		{Src: 0, Dst: 2, W: 1}, {Src: 2, Dst: 0, W: 1},
		{Src: 2, Dst: 3, W: 1}, {Src: 3, Dst: 2, W: 1},
	}, false)
	g.SortAdjacency()
	if got := RefTRI(g); got != 1 {
		t.Errorf("triangles = %d, want 1", got)
	}
	// K4 has 4 triangles.
	var edges []graph.Edge
	for u := int32(0); u < 4; u++ {
		for v := int32(0); v < 4; v++ {
			if u != v {
				edges = append(edges, graph.Edge{Src: u, Dst: v, W: 1})
			}
		}
	}
	k4, _ := graph.FromEdges(4, edges, false)
	k4.SortAdjacency()
	if got := RefTRI(k4); got != 4 {
		t.Errorf("K4 triangles = %d, want 4", got)
	}
}

func TestRefMISIndependentAndMaximal(t *testing.T) {
	g := graph.Road(8, 8, 4, 3).Symmetrize()
	pri := make([]int32, g.NumNodes())
	for i := range pri {
		pri[i] = int32((i * 2654435761) & 0x7fffffff)
	}
	in := RefMIS(g, pri)
	for u := int32(0); u < g.NumNodes(); u++ {
		if in[u] {
			for _, v := range g.Neighbors(u) {
				if in[v] {
					t.Fatalf("adjacent nodes %d,%d both in set", u, v)
				}
			}
		} else {
			// Maximality: some neighbor must be in the set.
			any := false
			for _, v := range g.Neighbors(u) {
				if in[v] {
					any = true
				}
			}
			if !any {
				t.Fatalf("node %d excluded with no in-set neighbor", u)
			}
		}
	}
}

func TestRefMSTPath(t *testing.T) {
	// MST of the weighted path is all edges: 1+2+3 = 6.
	if got := RefMST(path4()); got != 6 {
		t.Errorf("path MST = %d, want 6", got)
	}
	// A cycle with one heavy edge: the heavy edge is dropped.
	g, _ := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 0, W: 1},
		{Src: 1, Dst: 2, W: 2}, {Src: 2, Dst: 1, W: 2},
		{Src: 0, Dst: 2, W: 10}, {Src: 2, Dst: 0, W: 10},
	}, true)
	if got := RefMST(g); got != 3 {
		t.Errorf("cycle MST = %d, want 3", got)
	}
}

func TestRefPRSumsToOne(t *testing.T) {
	g := graph.Random(128, 1024, 4, 5)
	rank := RefPR(g)
	var sum float64
	for _, r := range rank {
		sum += float64(r)
	}
	// Dangling nodes leak mass; with edgefactor 8 the leak is small.
	if sum < 0.5 || sum > 1.05 {
		t.Errorf("rank sum = %v, want ~1", sum)
	}
}

func TestSuiteRegistry(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", len(names))
	}
	want := []string{"bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "sssp-nf", "cc", "tri", "mis", "pr", "mst"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("benchmark %d = %s, want %s", i, names[i], n)
		}
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%s): %v", n, err)
		}
	}
	if _, err := ByName("apsp"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// Symmetric requirements.
	for _, n := range []string{"cc", "tri", "mis", "mst"} {
		b, _ := ByName(n)
		if !b.NeedsSymmetric {
			t.Errorf("%s should need a symmetric input", n)
		}
	}
	for _, n := range []string{"bfs-wl", "sssp-nf", "pr"} {
		b, _ := ByName(n)
		if b.NeedsSymmetric {
			t.Errorf("%s should not need a symmetric input", n)
		}
	}
}

func TestSSSPParamsPickDelta(t *testing.T) {
	b, _ := ByName("sssp-nf")
	g := graph.Road(8, 8, 64, 1)
	p := b.Params(g)
	if p["delta"] < 1 || p["delta"] > 64 {
		t.Errorf("delta = %d", p["delta"])
	}
}

func TestRefKCoreProperties(t *testing.T) {
	g := graph.RMAT(9, 8, 8, 7).Symmetrize()
	for _, k := range []int32{2, 3, 5} {
		in := RefKCore(g, k)
		for u := int32(0); u < g.NumNodes(); u++ {
			if !in[u] {
				continue
			}
			var live int32
			for _, v := range g.Neighbors(u) {
				if in[v] {
					live++
				}
			}
			if live < k {
				t.Fatalf("k=%d: node %d kept with %d live neighbors", k, u, live)
			}
		}
	}
	// Monotone: the 5-core is contained in the 2-core.
	in2, in5 := RefKCore(g, 2), RefKCore(g, 5)
	for i := range in5 {
		if in5[i] && !in2[i] {
			t.Fatal("5-core not contained in 2-core")
		}
	}
}

func TestKCoreExtensionRegistered(t *testing.T) {
	if len(All()) != 10 {
		t.Fatal("paper suite must stay at 10 benchmarks")
	}
	if len(AllWithExtensions()) != 12 {
		t.Fatal("extension suite should add kcore and pr-delta")
	}
	if _, err := ByName("kcore"); err != nil {
		t.Fatal(err)
	}
}

// TestByNameBuildsOnlyTheRequestedBenchmark pins the registry table (every
// entry builds the benchmark it is named for, suite order intact, unknown
// names rejected) and the per-request cost of a lookup: resolving one name
// allocates what constructing that one benchmark allocates, not the whole
// suite.
func TestByNameBuildsOnlyTheRequestedBenchmark(t *testing.T) {
	want := []string{"bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "sssp-nf", "cc", "tri", "mis", "pr", "mst", "kcore", "pr-delta"}
	all := AllWithExtensions()
	if len(all) != len(want) {
		t.Fatalf("AllWithExtensions has %d benchmarks, want %d", len(all), len(want))
	}
	for i, b := range all {
		if b.Name != want[i] || builders[i].name != want[i] {
			t.Errorf("entry %d: table name %q builds %q, want %q", i, builders[i].name, b.Name, want[i])
		}
		got, err := ByName(want[i])
		if err != nil || got.Name != want[i] {
			t.Errorf("ByName(%q) = %v, %v", want[i], got, err)
		}
	}
	if got := Names(); !reflect.DeepEqual(got, want[:10]) {
		t.Errorf("Names() = %v, want the paper suite %v", got, want[:10])
	}
	if _, err := ByName("bfs"); err == nil || !strings.Contains(err.Error(), `unknown benchmark "bfs"`) {
		t.Errorf("ByName(unknown) error = %v", err)
	}

	lookup := testing.AllocsPerRun(20, func() { _, _ = ByName("bfs-wl") })
	direct := testing.AllocsPerRun(20, func() { _ = BFSWL() })
	suite := testing.AllocsPerRun(20, func() { _ = AllWithExtensions() })
	if lookup != direct {
		t.Errorf("ByName(bfs-wl) allocates %.0f objects, constructing it directly %.0f", lookup, direct)
	}
	if suite < 5*lookup {
		t.Errorf("whole suite allocates %.0f objects vs %.0f for one lookup: the test no longer distinguishes them", suite, lookup)
	}
}
