package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/serve"
)

// expectation is what the warm-up learned about one op and every measured
// pass must see again.
type expectation struct {
	set bool
	// modeled is the op's answer on the modeled clock as the program reports
	// it: time_ms of a query, cycles of a kernel run, 1 for a mutation that
	// tripped a compaction and 0 for one that did not.
	modeled float64
	cycles  float64
}

// outcome is one completed op.
type outcome struct {
	latNS   int64
	modeled float64
	cycles  float64     // library ops only; serve ops take it from the expectation
	reply   *queryReply // serve query ops
	err     string      // why the op counts as failed; "" = ok
}

// target is a booted program under test, driven by one closed-loop client.
type target interface {
	do(o *op, tr *tracer, parent, opID int) outcome
	// counters reads the program's own counts since boot.
	counters() map[string]float64
	close()
}

// queryReply is the part of serve's /query response the harness checks.
type queryReply struct {
	Kind       string  `json:"kind"`
	Path       string  `json:"path"`
	Backend    string  `json:"backend"`
	Level      string  `json:"level"`
	Degraded   bool    `json:"degraded"`
	TimeMS     float64 `json:"time_ms"`
	Reached    *int32  `json:"reached"`
	NodeValue  *int32  `json:"value"`
	Components *int32  `json:"components"`
	TopK       []struct {
		Node int32   `json:"node"`
		Rank float32 `json:"rank"`
	} `json:"topk"`
}

type mutateReply struct {
	Ops       int  `json:"ops"`
	Durable   bool `json:"durable"`
	Compacted bool `json:"compacted"`
}

// recorder is the in-memory http.ResponseWriter: no sockets, so the number is
// the server's, not the loopback stack's.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) reset() {
	r.hdr, r.code = http.Header{}, http.StatusOK
	r.body.Reset()
}

// serveTarget drives internal/serve through Handler().ServeHTTP.
type serveTarget struct {
	srv   *serve.Server
	h     http.Handler
	store *graph.MutStore
	dir   string // this boot's copy of the WAL template, "" on static workloads
	rec   recorder
}

func (t *serveTarget) do(o *op, tr *tracer, parent, opID int) outcome {
	var body io.Reader = http.NoBody // a server-side request always has a body
	if o.body != "" {
		body = strings.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, o.url, body)
	if err != nil {
		return outcome{err: err.Error()}
	}
	t.rec.reset()
	sp := tr.begin("serve.handler", parent, opID)
	t0 := time.Now()
	t.h.ServeHTTP(&t.rec, req)
	out := outcome{latNS: int64(time.Since(t0))}
	tr.end(sp)

	if t.rec.code != http.StatusOK {
		out.err = fmt.Sprintf("%s: status %d: %s", o.url, t.rec.code, bytes.TrimSpace(t.rec.body.Bytes()))
		return out
	}
	if !o.query {
		var r mutateReply
		if err := json.Unmarshal(t.rec.body.Bytes(), &r); err != nil {
			out.err = "mutate reply: " + err.Error()
		} else if !r.Durable || r.Ops != strings.Count(o.body, "\n") {
			out.err = fmt.Sprintf("mutate reply: ops=%d durable=%v", r.Ops, r.Durable)
		}
		if r.Compacted {
			out.modeled = 1
		}
		return out
	}
	r := &queryReply{}
	if err := json.Unmarshal(t.rec.body.Bytes(), r); err != nil {
		out.err = "query reply: " + err.Error()
		return out
	}
	out.reply, out.modeled = r, r.TimeMS
	if r.Degraded || r.Level != "normal" || r.Backend != "compiled" || r.Path != "vector" {
		out.err = fmt.Sprintf("%s: served degraded=%v level=%s backend=%s path=%s",
			o.url, r.Degraded, r.Level, r.Backend, r.Path)
	}
	return out
}

func (t *serveTarget) counters() map[string]float64 {
	reg := t.srv.Registry().Snapshot()
	return map[string]float64{
		"serve.ok":          reg["serve.ok"],
		"serve.degraded":    reg["serve.degraded"],
		"serve.compactions": reg["serve.mut.compactions"],
	}
}

func (t *serveTarget) close() {
	if t.store != nil {
		t.store.Close()
		os.RemoveAll(t.dir)
	}
}

// libTarget drives internal/core the way cmd/egacs does.
type libTarget struct {
	bench    map[string]*kernels.Benchmark
	prepared map[string]*graph.CSR // by op class
	cfg      map[string]core.Config
	layout   map[string]string // layout each class actually ran, for the record
}

func (t *libTarget) do(o *op, tr *tracer, parent, opID int) outcome {
	b, g, cfg := t.bench[o.kernel], t.prepared[o.class], t.cfg[o.class]
	sp := tr.begin("core.run_verified", parent, opID)
	t0 := time.Now()
	res, err := core.RunVerified(b, g, cfg)
	out := outcome{latNS: int64(time.Since(t0))}
	tr.end(sp)
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.cycles = res.Engine.TimeCycles()
	out.modeled = out.cycles
	t.layout[o.class] = res.Layout
	if res.Backend != "compiled" {
		out.err = fmt.Sprintf("%s: backend %s, want compiled", o.class, res.Backend)
	}
	return out
}

func (t *libTarget) counters() map[string]float64 { return nil }

func (t *libTarget) close() {}

// cliConfig is cmd/egacs's default configuration (backend auto, layout auto,
// all optimizations, Intel8 at its preferred avx512-i32x16 target, source =
// max-degree node) with one change: the cooperative scheduler. It is serial
// and bit-identical to the parallel one, and a run that does not compete
// with itself for two shared vCPUs repeats.
func cliConfig(m *machine.Config, g *graph.CSR) core.Config {
	return core.Config{
		Machine:  m,
		Layout:   core.LayoutAuto,
		Backend:  core.BackendAuto,
		HostExec: core.HostCooperative,
		Src:      g.MaxDegreeNode(),
	}
}

// boot brings the program under test from files on disk to its first answer
// of every op kind, and reports how long that took: the set-up a caller
// waits for, and the place where lazily built per-snapshot state lands.
func (p *plan) boot(tr *tracer) (target, float64, error) {
	// Copying the WAL template is the harness's work, not the daemon's.
	dir := ""
	if p.walDir != "" {
		var err error
		if dir, err = os.MkdirTemp(p.dir, "wal-"); err != nil {
			return nil, 0, err
		}
		if err := copyDir(p.walDir, dir); err != nil {
			return nil, 0, err
		}
	}
	opID := tr.newOp()
	root := tr.begin("boot", -1, opID)
	t0 := time.Now()
	var t target
	var err error
	if p.spec.library {
		t, err = p.bootLibrary(tr, root, opID)
	} else {
		t, err = p.bootServe(tr, root, opID, dir)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: boot: %w", p.spec.name, err)
	}
	// First answer of each op kind, mutations excepted: a write would move
	// the state every pass starts from.
	seen := map[string]bool{}
	for i := range p.ops {
		o := &p.ops[i]
		if !o.query || seen[o.class] {
			continue
		}
		seen[o.class] = true
		sp := tr.begin("boot.first_answer", root, opID)
		out := t.do(o, tr, sp, opID)
		tr.end(sp)
		if out.err != "" {
			t.close()
			return nil, 0, fmt.Errorf("%s: boot: first %s: %s", p.spec.name, o.class, out.err)
		}
	}
	setup := time.Since(t0).Seconds()
	tr.end(root)
	return t, setup, nil
}

func (p *plan) bootServe(tr *tracer, root, opID int, walDir string) (*serveTarget, error) {
	t := &serveTarget{dir: walDir}
	var g *graph.CSR
	var err error
	// What cmd/egacs-serve does between exec and listen, in its order.
	if walDir != "" {
		sp := tr.begin("graph.open_store", root, opID)
		t.store, err = graph.OpenMutStore(walDir, graph.StoreOptions{FsyncEvery: 1})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		g = t.store.Delta().Base()
	} else {
		sp := tr.begin("graph.load", root, opID)
		g, err = graph.LoadFile(p.graphFiles[0])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		g.SortAdjacency()
	}
	// Default Options: what the daemon runs when started with no flags.
	t.srv, err = serve.New(g, serve.Options{Store: t.store, CompactEvery: p.spec.compactEvery})
	if err != nil {
		t.close()
		return nil, err
	}
	t.h = t.srv.Handler()
	sp := tr.begin("serve.selfcheck", root, opID)
	err = t.srv.SelfCheck(context.Background())
	tr.end(sp)
	if err != nil {
		t.close()
		return nil, err
	}
	if t.store != nil && t.store.Stats().Pending > 0 {
		sp := tr.begin("serve.boot_compact", root, opID)
		_, err = t.srv.Compact(context.Background())
		tr.end(sp)
		if err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (p *plan) bootLibrary(tr *tracer, root, opID int) (*libTarget, error) {
	t := &libTarget{
		bench:    map[string]*kernels.Benchmark{},
		prepared: map[string]*graph.CSR{},
		cfg:      map[string]core.Config{},
		layout:   map[string]string{},
	}
	m, err := machine.ByName("intel")
	if err != nil {
		return nil, err
	}
	loaded := make([]*graph.CSR, len(p.graphFiles))
	sym := make([]*graph.CSR, len(p.graphFiles))
	for i, f := range p.graphFiles {
		sp := tr.begin("graph.load", root, opID)
		loaded[i], err = graph.LoadFile(f)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	for i := range p.ops {
		o := &p.ops[i]
		if _, ok := t.prepared[o.class]; ok {
			continue
		}
		b, err := kernels.ByName(o.kernel)
		if err != nil {
			return nil, err
		}
		t.bench[o.kernel] = b
		g := loaded[o.graph]
		if b.NeedsSymmetric {
			if sym[o.graph] == nil {
				sp := tr.begin("graph.symmetrize", root, opID)
				sym[o.graph] = core.PrepareGraph(b, g)
				tr.end(sp)
			}
			g = sym[o.graph]
		}
		t.prepared[o.class] = g
		t.cfg[o.class] = cliConfig(m, g)
	}
	return t, nil
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// opSample is one completed op of a pass.
type opSample struct {
	class     string
	key       int
	query     bool
	ms        float64
	compacted bool // a mutation that tripped a compaction
}

// passResult is one pass over the op list, measured on its own.
type passResult struct {
	wallS    float64
	ops      int
	failed   int
	failures []string // first few, for the report
	samples  []opSample
	cpuMS    float64
	allocMB  float64
	cycles   float64
	queryOps int
	traced   bool
	counters map[string]float64 // the program's own counts at the end of the pass
}

// latencies returns the pass's query latencies in ms with their classes.
// Repetitions of one op within a pass are one piece of work measured several
// times, so each stands at the median of its repetitions: repeating denoises
// an op, it does not add mass to a class boundary. (Only kernel-suite
// repeats; where every op is distinct these are the raw samples.)
func (pr *passResult) latencies() (ms []float64, class []string) {
	byKey := map[int][]float64{}
	for _, s := range pr.samples {
		if s.query {
			byKey[s.key] = append(byKey[s.key], s.ms)
		}
	}
	med := make(map[int]float64, len(byKey))
	for k, v := range byKey {
		med[k] = median(v)
	}
	for _, s := range pr.samples {
		if s.query {
			ms = append(ms, med[s.key])
			class = append(class, s.class)
		}
	}
	return ms, class
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass issues the op list once, each op when the previous one returned,
// and checks every answer against what the warm-up verified.
func runPass(t target, ops []op, expect []expectation, tr *tracer) passResult {
	pr := passResult{ops: len(ops), samples: make([]opSample, 0, len(ops)), traced: tr != nil}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	for i := range ops {
		o := &ops[i]
		opID := tr.newOp()
		root := tr.begin("op."+o.class, -1, opID)
		out := t.do(o, tr, root, opID)
		tr.end(root)
		e := expect[o.key]
		if out.err == "" && e.set && out.modeled != e.modeled {
			out.err = fmt.Sprintf("op %d (%s %s): modeled clock reads %v, warm-up verified %v", i, o.class, o.url, out.modeled, e.modeled)
		}
		if out.err != "" {
			pr.failed++
			if len(pr.failures) < 5 {
				pr.failures = append(pr.failures, out.err)
			}
			continue
		}
		pr.samples = append(pr.samples, opSample{o.class, o.key, o.query, float64(out.latNS) / 1e6, !o.query && out.modeled == 1})
		if o.query {
			pr.cycles += e.cycles
			pr.queryOps++
		}
	}
	pr.wallS = time.Since(t0).Seconds()
	pr.cpuMS = float64(cpuTime()-cpu0) / 1e6
	runtime.ReadMemStats(&ms1)
	pr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	pr.counters = t.counters()
	return pr
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
