package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// graphSeed fixes every graph's topology. The graph is the dataset; -seed
// draws the traffic against it (sources, lookups, op order, mutation
// streams). Tying topology to -seed as well would put a different graph's
// cycle count under modeled_mcycles_per_op on every run, and a deterministic
// metric that differs per seed can carry no tight bound.
const graphSeed = 42

// graphSpec names one generated input.
type graphSpec struct {
	name   string // as printed and as the binary file is named
	family string // "rmat" | "road"
	size   int    // rmat scale, or road grid side
}

// maxWeight is 63, not the 64 of graph.Suite: the mst kernel packs
// weight<<24 beside the edge index, so a weight of 64 collides with its Inf
// sentinel and the edge is never selected (at the seed commit
// `egacs -bench mst -input rmat -scale small` fails verification for that
// reason). A benchmark needs workloads on which no op fails.
const maxWeight = 63

func (gs graphSpec) generate() *graph.CSR {
	if gs.family == "road" {
		return graph.Road(gs.size, gs.size, maxWeight, graphSeed)
	}
	return graph.RMAT(gs.size, 8, maxWeight, graphSeed)
}

func rmat(scale int) graphSpec {
	return graphSpec{name: fmt.Sprintf("rmat-%d", scale), family: "rmat", size: scale}
}

func road(side int) graphSpec {
	return graphSpec{name: fmt.Sprintf("road-%d", side), family: "road", size: side}
}

// weight is one query kind's share of a serve workload's query ops.
type weight struct {
	kind  string
	parts int
}

// spec is one frozen workload. The weights are tuned so that no class
// boundary of the sorted latency distribution sits within five percentile
// points of p50 or p90 (the shape guard in shape.go checks it on every run):
// a percentile on a boundary flips between two classes on noise alone.
type spec struct {
	name string
	why  string

	// Serve workloads: one graph, a query mix, optionally writes.
	graph      graphSpec
	mix        []weight
	opsPerPass int
	// Every mutateEvery-th op is a POST /mutate of batchOps ops; the server
	// compacts every compactEvery batches; walPrefill batches sit in the
	// pre-written log the boot replays.
	mutateEvery  int
	batchOps     int
	compactEvery int
	walPrefill   int

	// kernel-suite: every kernel on every graph through core.RunVerified,
	// reps times per pass.
	library  bool
	graphs   []graphSpec
	triGraph graphSpec
	reps     int
}

// specs returns the four workloads. smoke shrinks graphs and passes for the
// harness's own tests; its numbers mean nothing.
func specs(smoke bool) []*spec {
	ks := &spec{
		name: "kernel-suite",
		why:  "library path (core.RunVerified, CLI defaults): the kernel loop does ~all the work, serve none; SELL construction per run shows only here",
		// tri is cubic in hub degree: on rmat-12 it alone would be a third of
		// a pass, so it runs on rmat-9. Three repetitions per pass: an op
		// stands at the median of its repetitions (passResult.latencies), and
		// the median of three shrugs off one disturbed run.
		library: true, graphs: []graphSpec{rmat(12), road(64)}, triGraph: rmat(9),
		reps: 3,
	}
	point := &spec{
		name: "serve-point",
		why:  "small graph, cheap queries: per-request fixed cost (reset, bind, checkpoint, chain, verify, encode) dominates, the kernel loop is the minority",
		// bfs < sssp in latency: p50 sits 10 points inside bfs, p90 mid-sssp.
		graph: rmat(10), mix: []weight{{"bfs", 6}, {"sssp", 4}}, opsPerPass: 400,
	}
	analytic := &spec{
		name: "serve-analytic",
		why:  "long-diameter graph, whole-graph outputs: kernel loop, per-iteration checkpoint work, reference verify and O(n) response building dominate; fixed cost under 5%",
		// cc < bfs < sssp < pr in latency: p50 sits 10 points inside bfs,
		// p90 mid-pr.
		graph: road(128), mix: []weight{{"bfs", 5}, {"sssp", 2}, {"pr", 2}, {"cc", 1}}, opsPerPass: 40,
	}
	mutate := &spec{
		name: "serve-mutate",
		why:  "writes beside reads: WAL append+fsync, fold, gate, epoch swap; per-snapshot caches are rebuilt every epoch here and once ever elsewhere",
		// rmat, not road: random shortcuts collapse a road graph's diameter
		// and its cycle count with it.
		graph: rmat(12), mix: []weight{{"bfs", 6}, {"sssp", 2}, {"cc", 2}}, opsPerPass: 240,
		mutateEvery: 10, batchOps: 8, compactEvery: 8, walPrefill: 16,
	}
	if smoke {
		ks.graphs, ks.triGraph, ks.reps = []graphSpec{rmat(6), road(6)}, rmat(5), 2
		point.graph, point.opsPerPass = rmat(6), 20
		analytic.graph, analytic.opsPerPass = road(8), 10
		mutate.graph, mutate.opsPerPass, mutate.compactEvery, mutate.walPrefill = rmat(6), 40, 2, 2
	}
	return []*spec{ks, point, analytic, mutate}
}

// op is one closed-loop operation of a pass.
type op struct {
	class string // latency class: query kind, "mutate", or "<kernel>.<family>"
	query bool   // counts toward latency percentiles and modeled cycles
	key   int    // slot in the expectation table the warm-up fills

	// Serve ops.
	method string
	url    string
	body   string

	// kernel-suite ops.
	kernel string
	graph  int // index into plan.graphs
}

// rawQuery is the part of a serve op's URL that serve.ParseQuery takes.
func (o *op) rawQuery() string { return o.url[strings.IndexByte(o.url, '?')+1:] }

// plan is everything generated from (spec, seed): the inputs the program
// under test receives, and nothing else it could learn from.
type plan struct {
	spec *spec
	seed uint64
	dir  string // temp dir holding graph binaries and the WAL template

	graphs     []*graph.CSR // the harness's own copies, for source selection
	graphNames []string
	graphFiles []string
	walDir     string // template store: snapshot + pre-written log

	ops   []op
	nKeys int
}

// apportion splits n into len(parts) integer counts proportional to parts
// (largest remainder), so a mix is exact rather than sampled: a sampled mix
// would move the class boundaries, and the percentiles with them, per seed.
func apportion(n int, parts []int) []int {
	total := 0
	for _, p := range parts {
		total += p
	}
	out := make([]int, len(parts))
	type rem struct{ i, r int }
	rems := make([]rem, len(parts))
	used := 0
	for i, p := range parts {
		out[i] = n * p / total
		rems[i] = rem{i, n * p % total}
		used += out[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; used < n; k++ {
		out[rems[k%len(rems)].i]++
		used++
	}
	return out
}

// depthBand is how far a source's BFS depth may sit from the graph's typical
// depth. The cost of a traversal grows with its depth (on road-128 modeled
// cycles run from 0.58M at depth 132 to 1.04M at depth 247), so unfiltered
// draws would move every per-op mean, and the percentiles, with the seed.
const depthBand = 0.05

// reachDepth returns how many nodes a BFS from src reaches and how deep it
// goes.
func reachDepth(g *graph.CSR, src int32) (reach, depth int) {
	for _, l := range kernels.RefBFS(g, src) {
		if l >= 0 && l < kernels.Inf {
			reach++
			if int(l) > depth {
				depth = int(l)
			}
		}
	}
	return reach, depth
}

// typicalDepth is the median BFS depth over a fixed probe set: a property of
// the graph, not of the seed.
func typicalDepth(g *graph.CSR) float64 {
	n := int(g.NumNodes())
	r := newRNG(graphSeed, "depth-probes")
	var depths []float64
	for tries := 0; len(depths) < 64 && tries < 4096; tries++ {
		if reach, depth := reachDepth(g, int32(r.intn(n))); reach*2 >= n {
			depths = append(depths, float64(depth))
		}
	}
	return median(depths)
}

// pickSources draws count sources with out-degree >= 1 that reach at least
// half the graph (a source outside the giant component answers in
// microseconds and would put a second mode under the latency distribution)
// at a depth within depthBand of the graph's typical depth.
func pickSources(g *graph.CSR, r *rng, count int) []int32 {
	n := int(g.NumNodes())
	typical := typicalDepth(g)
	out := make([]int32, 0, count)
	verdict := map[int32]bool{}
	for tries := 0; len(out) < count && tries < 256*count+4096; tries++ {
		v := int32(r.intn(n))
		ok, seen := verdict[v]
		if !seen {
			reach, depth := reachDepth(g, v)
			off := float64(depth) - typical
			// Half a level of slack: on a low-diameter graph the band is
			// narrower than one level.
			ok = g.Degree(v) >= 1 && reach*2 >= n && off <= depthBand*typical+0.5 && -off <= depthBand*typical+0.5
			verdict[v] = ok
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// build generates the plan's inputs under dir.
func (s *spec) build(seed uint64, dir string) (*plan, error) {
	p := &plan{spec: s, seed: seed, dir: dir}
	gss := []graphSpec{s.graph}
	if s.library {
		gss = append(append([]graphSpec{}, s.graphs...), s.triGraph)
	}
	for _, gs := range gss {
		g := gs.generate()
		path := filepath.Join(dir, gs.name+".bin")
		if err := writeGraph(path, g); err != nil {
			return nil, err
		}
		p.graphs = append(p.graphs, g)
		p.graphNames = append(p.graphNames, gs.name)
		p.graphFiles = append(p.graphFiles, path)
	}
	if s.library {
		p.buildKernelOps()
		return p, nil
	}
	if err := p.buildServeOps(); err != nil {
		return nil, err
	}
	return p, nil
}

func writeGraph(path string, g *graph.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// buildKernelOps lists every kernel on every family reps times and shuffles
// the order by seed. Sources are not drawn: the CLI's default source is the
// max-degree node, and that is what this workload measures.
func (p *plan) buildKernelOps() {
	s := p.spec
	keys := map[string]int{}
	for _, k := range kernels.Names() {
		for gi, gs := range s.graphs {
			o := op{class: k + "." + gs.family, query: true, kernel: k, graph: gi}
			if k == "tri" && gs.family == s.triGraph.family {
				o.graph = len(s.graphs) // the small tri graph
			}
			if _, ok := keys[o.class]; !ok {
				keys[o.class] = len(keys)
			}
			o.key = keys[o.class]
			for i := 0; i < s.reps; i++ {
				p.ops = append(p.ops, o)
			}
		}
	}
	p.nKeys = len(keys)
	r := newRNG(p.seed, "kernel-order")
	r.shuffle(len(p.ops), func(i, j int) { p.ops[i], p.ops[j] = p.ops[j], p.ops[i] })
}

// buildServeOps draws the query stream and, on a mutating workload, the
// mutation stream and the pre-written log.
func (p *plan) buildServeOps() error {
	s, g := p.spec, p.graphs[0]
	n := int(g.NumNodes())

	// Positions of writes are fixed (every mutateEvery-th op), so the number
	// of compactions per pass and the epoch each query sees are too.
	isMut := func(i int) bool { return s.mutateEvery > 0 && i%s.mutateEvery == s.mutateEvery-1 }
	nQueries := 0
	for i := 0; i < s.opsPerPass; i++ {
		if !isMut(i) {
			nQueries++
		}
	}
	parts := make([]int, len(s.mix))
	for i, w := range s.mix {
		parts[i] = w.parts
	}
	counts := apportion(nQueries, parts)
	kinds := make([]string, 0, nQueries)
	for i, w := range s.mix {
		for c := 0; c < counts[i]; c++ {
			kinds = append(kinds, w.kind)
		}
	}
	r := newRNG(p.seed, "query-order")
	r.shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	srcs := pickSources(g, newRNG(p.seed, "sources"), nQueries)
	if len(srcs) < nQueries {
		return fmt.Errorf("%s: only %d of %d draws found a source of typical depth on %s", s.name, len(srcs), nQueries, p.graphNames[0])
	}
	nodes := newRNG(p.seed, "lookups")

	var batches [][]graph.MutOp
	if s.mutateEvery > 0 {
		nPass := s.opsPerPass / s.mutateEvery
		muts, err := graph.GenMutations(g, p.seed, graph.MutGenOptions{
			Count: (s.walPrefill + nPass) * s.batchOps,
			// Half deletes: the graph's size, and with it the cost of a
			// query, stays level across epochs.
			DeleteFrac: 0.5, MaxWeight: maxWeight,
		})
		if err != nil {
			return err
		}
		for i := 0; i+s.batchOps <= len(muts); i += s.batchOps {
			batches = append(batches, muts[i:i+s.batchOps])
		}
		p.walDir = filepath.Join(p.dir, "wal-template")
		if err := writeWALTemplate(p.walDir, g, batches[:s.walPrefill]); err != nil {
			return err
		}
		batches = batches[s.walPrefill:]
	}
	// A static workload answers a repeated op identically, so key = distinct
	// op; under mutation the answer depends on the epoch, so key = position.
	keyByPosition := s.mutateEvery > 0

	distinct := map[string]int{}
	qi, bi := 0, 0
	for i := 0; i < s.opsPerPass; i++ {
		var o op
		if isMut(i) {
			var sb strings.Builder
			if err := graph.WriteMutations(&sb, batches[bi]); err != nil {
				return err
			}
			bi++
			o = op{class: "mutate", method: "POST", url: "/mutate", body: sb.String()}
		} else {
			kind := kinds[qi]
			o = op{class: kind, query: true, method: "GET"}
			switch kind {
			case "pr":
				o.url = "/query?kind=pr&k=10"
			case "cc":
				o.url = fmt.Sprintf("/query?kind=cc&node=%d", nodes.intn(n))
			default:
				o.url = fmt.Sprintf("/query?kind=%s&src=%d&node=%d", kind, srcs[qi], nodes.intn(n))
			}
			qi++
		}
		if keyByPosition {
			o.key = i
		} else {
			k, ok := distinct[o.url]
			if !ok {
				k = len(distinct)
				distinct[o.url] = k
			}
			o.key = k
		}
		p.ops = append(p.ops, o)
	}
	p.nKeys = len(distinct)
	if keyByPosition {
		p.nKeys = len(p.ops)
	}
	return nil
}

// writeWALTemplate creates the store a serve-mutate boot recovers: a snapshot
// of g plus prefill acked batches in the log.
func writeWALTemplate(dir string, g *graph.CSR, prefill [][]graph.MutOp) error {
	st, err := graph.CreateMutStore(dir, g, graph.StoreOptions{FsyncEvery: 1})
	if err != nil {
		return err
	}
	for _, b := range prefill {
		if _, err := st.Append(b); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// classes returns the plan's latency classes with their op counts.
func (p *plan) classes() (names []string, count map[string]int) {
	count = map[string]int{}
	for _, o := range p.ops {
		if count[o.class] == 0 {
			names = append(names, o.class)
		}
		count[o.class]++
	}
	sort.Strings(names)
	return names, count
}
