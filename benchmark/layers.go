package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/serve"
	"repro/internal/spmd"
)

// replay is what one outside-in replay of one distinct op measured: span
// durations in ms by name, and the exact counts of its plain run.
type replay struct {
	ms     map[string]float64
	stats  spmd.Stats
	width  int
	l1     float64
	attr   [obs.NumCostClasses]float64
	cycles float64
}

// serveConfig is the core.Config serve.Execute builds for a default-Options
// server; the replay checks it by requiring the same modeled cycles the
// server reported for the op.
func serveConfig(m *machine.Config, src int32, e *spmd.Engine) core.Config {
	return core.Config{
		Machine:          m,
		Tasks:            m.DefaultTasks,
		Src:              src,
		Budget:           fault.Budget{MaxIters: 1 << 20, StallWindow: 256},
		CheckpointEvery:  16,
		MaxRollbacks:     3,
		VerifyInvariants: true,
		Engine:           e,
	}
}

// replayer replays ops against a booted target, layer by layer from the
// outside: the handler, then what the handler calls, then what that calls,
// each through its public function with the configuration the layer above
// builds. Nothing inside the program is instrumented.
type replayer struct {
	p   *plan
	t   target
	tr  *tracer
	m   *machine.Config
	eng *spmd.Engine
	// The undirected view of the graph being served, built once per replayer
	// (one booted target, one epoch) rather than once per replayed cc.
	sym *graph.CSR
}

// timed runs f inside a span and returns its duration in ms.
func (r *replayer) timed(name string, parent, op int, f func() error) (float64, error) {
	sp := r.tr.begin(name, parent, op)
	err := f()
	return r.tr.end(sp), err
}

func (r *replayer) op(o *op, want expectation) (*replay, error) {
	opID := r.tr.newOp()
	root := r.tr.begin("replay."+o.class, -1, opID)
	defer r.tr.end(root)
	rp := &replay{ms: map[string]float64{}}

	var b *kernels.Benchmark
	var g *graph.CSR
	var cfg, plain core.Config
	var err error
	switch t := r.t.(type) {
	case *serveTarget:
		sp := r.tr.begin("replay.handler", root, opID)
		out := t.do(o, r.tr, sp, opID)
		r.tr.end(sp)
		if out.err != "" {
			return nil, fmt.Errorf("%s", out.err)
		}
		rp.ms["serve.handler"] = float64(out.latNS) / 1e6
		var q *serve.Query
		if rp.ms["serve.parse"], err = r.timed("serve.parse", root, opID, func() (err error) {
			q, err = serve.ParseQuery(o.rawQuery(), nil)
			return err
		}); err != nil {
			return nil, err
		}
		var res *serve.Result
		if rp.ms["serve.execute"], err = r.timed("serve.execute", root, opID, func() (err error) {
			res, err = t.srv.Execute(context.Background(), q)
			return err
		}); err != nil {
			return nil, err
		}
		rp.ms["serve.self"] = rp.ms["serve.execute"] - res.WallMS
		rp.ms["serve.transport"] = rp.ms["serve.handler"] - rp.ms["serve.execute"] - rp.ms["serve.parse"]
		want.cycles = res.Cycles // on serve-mutate the warm-up's epoch is not this one

		if b, err = kernels.ByName(q.Kernel()); err != nil {
			return nil, err
		}
		g = t.srv.Graph()
		if b.NeedsSymmetric {
			if r.sym == nil {
				r.sym = core.PrepareGraph(b, g)
			}
			g = r.sym
		}
		cfg = serveConfig(r.m, q.Src, r.eng)
		plain = cfg
		plain.CheckpointEvery = 0

		var rr *kernels.ResilientResult
		if rp.ms["core.resilient"], err = r.timed("core.resilient", root, opID, func() (err error) {
			rr, err = core.RunResilientVerifiedCtx(context.Background(), b, g, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		if len(rr.History) != 1 || rr.History[0].Cycles != want.cycles {
			return nil, fmt.Errorf("replay of %s through core.RunResilientVerifiedCtx: history %+v, server reported %v cycles: the replay's config is not the server's", o.url, rr.History, want.cycles)
		}
		if rp.ms["core.run"], err = r.timed("core.run", root, opID, func() error {
			_, err := core.Run(b, g, cfg)
			return err
		}); err != nil {
			return nil, err
		}
	case *libTarget:
		b, g, cfg = t.bench[o.kernel], t.prepared[o.class], t.cfg[o.class]
		cfg.Engine = r.eng
		plain = cfg
	}

	var res *core.Result
	if rp.ms["core.run_plain"], err = r.timed("core.run_plain", root, opID, func() (err error) {
		res, err = core.Run(b, g, plain)
		return err
	}); err != nil {
		return nil, err
	}
	if res.Engine.TimeCycles() != want.cycles {
		return nil, fmt.Errorf("replay of %s %s through core.Run: %v cycles, want %v", o.class, o.url, res.Engine.TimeCycles(), want.cycles)
	}
	if _, lib := r.t.(*libTarget); lib {
		rp.ms["core.run"] = rp.ms["core.run_plain"] // the library path arms no checkpoints
	}
	rp.stats, rp.width, rp.cycles = res.Stats, res.Engine.Width(), res.Engine.TimeCycles()
	rp.l1 = res.Engine.Mem.HitRate(machine.L1)
	attr := res.Engine.Attribution()
	rp.attr = attr.ClassTotals()
	rp.ms["core.verify"], err = r.timed("core.verify", root, opID, func() error { return core.Verify(b, g, res) })
	if err != nil {
		return nil, err
	}
	out := &kernels.RunOutput{I: map[string][]int32{}, F: map[string][]float32{}}
	for _, d := range b.Prog.Arrays {
		if a := res.Instance.ArrayI(d.Name); a != nil {
			out.I[d.Name] = a
		} else if f := res.Instance.ArrayF(d.Name); f != nil {
			out.F[d.Name] = f
		}
	}
	src := res.Instance.Params["src"]
	rp.ms["kernels.verify"], err = r.timed("kernels.verify", root, opID, func() error { return out.Verify(b, g, src) })
	if err != nil {
		return nil, err
	}
	rp.ms["core.checkpoint"] = rp.ms["core.run"] - rp.ms["core.run_plain"]
	if _, ok := rp.ms["core.resilient"]; ok {
		rp.ms["core.chain"] = rp.ms["core.resilient"] - rp.ms["core.run"] - rp.ms["core.verify"]
	}

	// core.Run's own steps, one public call each, on the same reused engine.
	var sell *graph.SellCS
	if res.Sell != nil {
		rp.ms["graph.sell_build"], err = r.timed("graph.sell_build", root, opID, func() (err error) {
			s := res.Sell
			sell, err = graph.BuildSellCSDealt(g, s.C, s.Sigma, s.Spans, s.HeavyCap)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	pipe := r.tr.begin("replay.pipeline", root, opID)
	defer r.tr.end(pipe)
	var prog = b.Prog
	var mod *codegen.Module
	if rp.ms["opt.apply"], err = r.timed("opt.apply", pipe, opID, func() (err error) {
		prog, err = opt.Apply(b.Prog, opt.All())
		return err
	}); err != nil {
		return nil, err
	}
	if rp.ms["codegen.compile"], err = r.timed("codegen.compile", pipe, opID, func() (err error) {
		mod, err = codegen.Compile(prog)
		return err
	}); err != nil {
		return nil, err
	}
	rp.ms["spmd.engine_new"], _ = r.timed("spmd.engine_new", pipe, opID, func() error {
		spmd.New(r.m, r.m.PreferredTarget, r.m.DefaultTasks)
		return nil
	})
	params := map[string]int32{"src": plain.Src}
	if b.Params != nil {
		for k, v := range b.Params(g) {
			params[k] = v
		}
	}
	for _, backend := range []string{"compiled", "interp"} {
		reset, _ := r.timed("spmd.engine_reset", pipe, opID, func() error {
			r.eng.ResetAll(r.m.PreferredTarget, r.m.DefaultTasks)
			return nil
		})
		r.eng.Budget = plain.Budget
		if plain.HostExec == core.HostCooperative {
			r.eng.Exec = spmd.ExecDeferred
		}
		var inst *codegen.Instance
		bind, err := r.timed("codegen.bind", pipe, opID, func() (err error) {
			inst, err = mod.Bind(r.eng, g, params)
			return err
		})
		if err != nil {
			return nil, err
		}
		name := "codegen.run_interp"
		if backend == "compiled" {
			name = "codegen.run"
			rp.ms["spmd.engine_reset"], rp.ms["codegen.bind"] = reset, bind
			if rp.ms["compiled.enable"], err = r.timed("compiled.enable", pipe, opID, inst.EnableCompiled); err != nil {
				return nil, err
			}
		}
		if sell != nil {
			if err := inst.AttachSell(sell); err != nil {
				return nil, err
			}
		}
		if rp.ms[name], err = r.timed(name, pipe, opID, inst.Run); err != nil {
			return nil, err
		}
		if r.eng.TimeCycles() != want.cycles {
			return nil, fmt.Errorf("replay of %s %s through Instance.Run (%s): %v cycles, want %v", o.class, o.url, backend, r.eng.TimeCycles(), want.cycles)
		}
	}
	return rp, nil
}

// writePath replays the mutation pipeline below serve on its own store: the
// WAL append (with its fsync), and every compactEvery batches the size of the
// live log, the pure fold, and the store's compaction (fold, snapshot write,
// segment rotation).
func (r *replayer) writePath() (map[string][]float64, error) {
	out := map[string][]float64{}
	if r.p.walDir == "" {
		return out, nil
	}
	dir, err := os.MkdirTemp(r.p.dir, "wal-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(r.p.walDir, dir); err != nil {
		return nil, err
	}
	st, err := graph.OpenMutStore(dir, graph.StoreOptions{FsyncEvery: 1})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	opID := r.tr.newOp()
	root := r.tr.begin("replay.write_path", -1, opID)
	defer r.tr.end(root)
	n := st.Delta().Base().NumNodes()
	batches := 0
	for i := range r.p.ops {
		o := &r.p.ops[i]
		if o.query {
			continue
		}
		ops, err := graph.ParseMutations(strings.NewReader(o.body), n)
		if err != nil {
			return nil, err
		}
		ms, err := r.timed("graph.append", root, opID, func() error {
			_, err := st.Append(ops)
			return err
		})
		if err != nil {
			return nil, err
		}
		out["graph.append"] = append(out["graph.append"], ms)
		if batches++; batches%r.p.spec.compactEvery != 0 {
			continue
		}
		out["graph.wal_bytes"] = append(out["graph.wal_bytes"], float64(st.Stats().WALBytes))
		if ms, err = r.timed("graph.fold", root, opID, func() error {
			_, err := st.Delta().Compact()
			return err
		}); err != nil {
			return nil, err
		}
		out["graph.fold"] = append(out["graph.fold"], ms)
		if ms, err = r.timed("graph.store_compact", root, opID, func() error {
			_, _, err := st.Compact(nil)
			return err
		}); err != nil {
			return nil, err
		}
		out["graph.store_compact"] = append(out["graph.store_compact"], ms)
	}
	return out, nil
}

// ledger replays a sample of the distinct ops for about seconds and folds
// spans and replays into the per-layer metrics. Per-op rows
// are means over the op list (each class weighted by its share of the
// list), so a row divided by serve.handler_ms (core.run_ms on kernel-suite)
// is that layer's share of an average op.
func (p *plan) ledger(tr *tracer, passes []passResult, expect []expectation, seconds float64, smoke bool, w io.Writer) (map[string]float64, error) {
	L := map[string]float64{}
	for _, d := range perLayer() {
		L[d.Name] = 0
	}

	t, _, err := p.boot(nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	m, err := machine.ByName("intel")
	if err != nil {
		return nil, err
	}
	r := &replayer{p: p, t: t, tr: tr, m: m, eng: spmd.New(m, m.PreferredTarget, m.DefaultTasks)}

	// One queue of distinct query ops per class, in op order.
	classes, count := p.classes()
	queue := map[string][]*op{}
	seen := map[int]bool{}
	queryOps := 0
	for i := range p.ops {
		o := &p.ops[i]
		if !o.query {
			continue
		}
		queryOps++
		if !seen[o.key] {
			seen[o.key] = true
			queue[o.class] = append(queue[o.class], o)
		}
	}
	// Round-robin over the classes until the time is spent: every class is
	// replayed at least once, and as many distinct ops as fit after that.
	byClass := map[string][]*replay{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; ; round++ {
		progressed := false
		for _, c := range classes {
			if round >= len(queue[c]) {
				continue
			}
			o := queue[c][round]
			rp, err := r.op(o, expect[o.key])
			if err != nil {
				return nil, err
			}
			byClass[c] = append(byClass[c], rp)
			progressed = true
		}
		if !progressed || smoke || (round > 0 && time.Now().After(deadline)) {
			break
		}
	}

	// mean over the op list of a per-replay value.
	mean := func(f func(*replay) float64) float64 {
		total := 0.0
		for c, rps := range byClass {
			sum := 0.0
			for _, rp := range rps {
				sum += f(rp)
			}
			total += sum / float64(len(rps)) * float64(count[c]) / float64(queryOps)
		}
		return total
	}
	span := func(name string) float64 { return mean(func(rp *replay) float64 { return rp.ms[name] }) }
	for name, scale := range map[string]float64{
		"serve.parse_us": 1e3, "serve.handler_ms": 1, "serve.execute_ms": 1, "serve.transport_ms": 1, "serve.self_ms": 1,
		"core.resilient_ms": 1, "core.run_ms": 1, "core.run_plain_ms": 1, "core.checkpoint_ms": 1,
		"core.verify_ms": 1, "kernels.verify_ms": 1, "core.chain_ms": 1,
		"opt.apply_us": 1e3, "codegen.compile_us": 1e3, "spmd.engine_new_us": 1e3, "spmd.engine_reset_us": 1e3,
		"codegen.bind_us": 1e3, "compiled.enable_us": 1e3,
		"codegen.run_ms": 1, "codegen.run_interp_ms": 1, "graph.sell_build_ms": 1,
	} {
		L[name] = scale * span(name[:strings.LastIndexByte(name, '_')])
	}
	if L["codegen.run_ms"] > 0 {
		L["compiled.speedup"] = L["codegen.run_interp_ms"] / L["codegen.run_ms"]
	}
	cycles := mean(func(rp *replay) float64 { return rp.cycles })
	if cycles > 0 {
		L["spmd.host_ns_per_cycle"] = L["codegen.run_ms"] * 1e6 / cycles
	}
	L["spmd.instructions"] = mean(func(rp *replay) float64 { return float64(rp.stats.Instructions) })
	L["spmd.launches"] = mean(func(rp *replay) float64 { return float64(rp.stats.Launches) })
	L["spmd.barriers"] = mean(func(rp *replay) float64 { return float64(rp.stats.Barriers) })
	L["spmd.work_items"] = mean(func(rp *replay) float64 { return float64(rp.stats.WorkItems) })
	L["spmd.lane_utilization"] = mean(func(rp *replay) float64 { return rp.stats.LaneUtilization(rp.width) })
	L["machine.l1_hit_rate"] = mean(func(rp *replay) float64 { return rp.l1 })
	for c := obs.CostClass(0); c < obs.NumCostClasses; c++ {
		c := c
		L["attr."+c.String()+"_mcycles"] = mean(func(rp *replay) float64 { return rp.attr[c] / 1e6 })
	}
	if p.spec.library {
		for c, rps := range byClass {
			var ms, cyc float64
			for _, rp := range rps {
				ms += rp.ms["codegen.run"]
				cyc += rp.cycles
			}
			L["kernel."+c+".ms"] = ms / float64(len(rps))
			L["kernel."+c+".ns_per_cycle"] = ms * 1e6 / cyc
		}
	}

	// Boot spans: the medians over the traced boots.
	bySpan := map[string][]float64{}
	for _, s := range tr.spans {
		bySpan[s.Name] = append(bySpan[s.Name], s.ms())
	}
	L["graph.load_ms"] = median(append(bySpan["graph.load"], bySpan["graph.open_store"]...))
	L["serve.selfcheck_ms"] = median(bySpan["serve.selfcheck"])
	// The undirected view: built in the boot on kernel-suite, inside the
	// first cc of a snapshot on serve; here through the public call.
	sp := tr.begin("graph.symmetrize", -1, tr.newOp())
	p.graphs[0].Symmetrize()
	L["graph.symmetrize_ms"] = tr.end(sp)

	// Counts the program keeps itself, per boot + pass.
	var traced, untraced []float64
	for _, pr := range passes {
		ops := float64(pr.ops-pr.failed) / pr.wallS
		if pr.traced {
			traced = append(traced, ops)
			for _, name := range []string{"serve.ok", "serve.degraded", "serve.compactions"} {
				L[name] = pr.counters[name]
			}
		} else {
			untraced = append(untraced, ops)
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		L["trace.overhead_frac"] = 1 - median(traced)/median(untraced)
	}

	// The write path, from the passes' handler spans and its own replay.
	var plainMut, compactMut, firstCC, steadyCC []float64
	for _, pr := range passes {
		afterSwap := false
		for _, s := range pr.samples {
			switch {
			case s.compacted:
				compactMut = append(compactMut, s.ms)
				afterSwap = true
			case !s.query:
				plainMut = append(plainMut, s.ms)
			case s.class == "cc" && afterSwap:
				firstCC = append(firstCC, s.ms)
				afterSwap = false
			case s.class == "cc":
				steadyCC = append(steadyCC, s.ms)
			}
		}
	}
	if len(plainMut) > 0 {
		L["serve.mutate_ms"] = median(plainMut)
		L["serve.compact_ms"] = median(compactMut) - median(plainMut)
		L["serve.epoch_warm_ms"] = median(firstCC) - median(steadyCC)
	}
	wp, err := r.writePath()
	if err != nil {
		return nil, err
	}
	L["graph.append_us"] = 1e3 * median(wp["graph.append"])
	L["graph.fold_ms"] = median(wp["graph.fold"])
	L["graph.store_compact_ms"] = median(wp["graph.store_compact"])
	L["graph.wal_bytes"] = median(wp["graph.wal_bytes"]) // live log just before a compaction prunes it

	printLedger(L, byClass, p.spec.library, w)
	// The harness's own share of a traced pass: what an op's root span does
	// not spend inside the program (request building, JSON decode, checks).
	var own, whole float64
	for i, self := range tr.selfTimes() {
		if s := tr.spans[i]; s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			own += self
			whole += s.ms()
		}
	}
	if whole > 0 {
		fmt.Fprintf(w, "  harness self time: %.2f%% of the traced passes' op time\n", 100*own/whole)
	}
	return L, nil
}

// printLedger prints where an average op's time goes, outermost layer first,
// and how much of the handler's time the independently measured parts leave
// unexplained.
func printLedger(L map[string]float64, byClass map[string][]*replay, library bool, w io.Writer) {
	n := 0
	for _, rps := range byClass {
		n += len(rps)
	}
	whole, name := L["serve.handler_ms"], "serve.handler_ms"
	if library {
		whole, name = L["core.run_ms"]+L["core.verify_ms"], "core.run_ms + core.verify_ms"
	}
	fmt.Fprintf(w, "ledger: %d distinct ops replayed; share of %s (%.3f ms per op)\n", n, name, whole)
	parts := []string{"serve.transport_ms", "serve.parse_us", "serve.self_ms", "core.chain_ms", "core.checkpoint_ms", "core.verify_ms",
		"opt.apply_us", "codegen.compile_us", "spmd.engine_reset_us", "codegen.bind_us", "compiled.enable_us", "graph.sell_build_ms", "codegen.run_ms"}
	sum := 0.0
	for _, part := range parts {
		ms := L[part]
		if strings.HasSuffix(part, "_us") {
			ms /= 1e3
		}
		sum += ms
		fmt.Fprintf(w, "  %-24s %10.3f ms %6.1f%%\n", part[:strings.LastIndexByte(part, '_')], ms, 100*ms/whole)
	}
	// What is left is core.Run's own glue plus the difference between a
	// call measured in place and the same call replayed.
	fmt.Fprintf(w, "  %-24s %10.3f ms %6.1f%%\n", "unexplained", whole-sum, 100*(whole-sum)/whole)
	L["ledger.residual_frac"] = (whole - sum) / whole
	keys := make([]string, 0, len(byClass))
	for c := range byClass {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	for _, c := range keys {
		fmt.Fprintf(w, "  replayed %-16s x%d\n", c, len(byClass[c]))
	}
}
