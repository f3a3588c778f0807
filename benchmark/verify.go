package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/serve"
)

// warmup is the untimed pass that earns the measured passes their cheap
// checks. It walks the op list on a freshly booted target and, for every
// distinct op, (1) runs it through Execute and checks the output arrays
// against the serial reference on the graph of the epoch that served it,
// (2) runs it through the handler and checks the JSON aggregates against that
// verified output. What it records per op (the modeled clock's reading) is
// what every measured pass must read again.
func (p *plan) warmup(t target) (expect []expectation, failures []string) {
	expect = make([]expectation, p.nKeys)
	fail := func(format string, a ...any) {
		if len(failures) < 20 {
			failures = append(failures, fmt.Sprintf(format, a...))
		}
	}
	st, _ := t.(*serveTarget)
	var symEpoch uint64
	var sym *graph.CSR
	compactions := 0
	for i := range p.ops {
		o := &p.ops[i]
		e := &expect[o.key]
		if st != nil && o.query && !e.set {
			// Reference check on this epoch's graph.
			q, err := serve.ParseQuery(o.rawQuery(), nil)
			if err != nil {
				fail("op %d: %v", i, err)
				continue
			}
			res, err := st.srv.Execute(context.Background(), q)
			if err != nil {
				fail("op %d (%s): execute: %v", i, o.url, err)
				continue
			}
			if res.Level != serve.LevelNormal || res.Degraded || res.Backend != "compiled" {
				fail("op %d (%s): level=%v degraded=%v backend=%s", i, o.url, res.Level, res.Degraded, res.Backend)
				continue
			}
			b, err := kernels.ByName(q.Kernel())
			if err != nil {
				fail("op %d: %v", i, err)
				continue
			}
			g := st.srv.Graph()
			if b.NeedsSymmetric {
				if sym == nil || symEpoch != res.Epoch {
					sym, symEpoch = core.PrepareGraph(b, g), res.Epoch
				}
				g = sym
			}
			if err := res.Output.Verify(b, g, q.Src); err != nil {
				fail("op %d (%s) epoch %d: reference: %v", i, o.url, res.Epoch, err)
				continue
			}
			out := t.do(o, nil, -1, 0)
			if out.err != "" {
				fail("op %d: %s", i, out.err)
				continue
			}
			if err := checkAggregates(q, out.reply, res); err != nil {
				fail("op %d (%s): handler vs verified output: %v", i, o.url, err)
				continue
			}
			*e = expectation{set: true, modeled: res.TimeMS, cycles: res.Cycles}
			continue
		}
		out := t.do(o, nil, -1, 0)
		switch {
		case out.err != "":
			fail("op %d: %s", i, out.err)
		case !e.set:
			// Library ops (RunVerified checked the reference itself) and
			// mutations.
			*e = expectation{set: true, modeled: out.modeled, cycles: out.cycles}
		case out.modeled != e.modeled:
			fail("op %d (%s): modeled clock reads %v, first run %v", i, o.class, out.modeled, e.modeled)
		}
		if !o.query && out.modeled == 1 {
			compactions++
		}
	}
	if s := p.spec; s.mutateEvery > 0 {
		if want := s.opsPerPass / s.mutateEvery / s.compactEvery; compactions != want {
			fail("%d compactions in the warm-up pass, want %d", compactions, want)
		}
	}
	return expect, failures
}

// checkAggregates recomputes the handler's aggregates from the verified
// output arrays.
func checkAggregates(q *serve.Query, r *queryReply, res *serve.Result) error {
	if r.TimeMS != res.TimeMS {
		return fmt.Errorf("time_ms %v, Execute reported %v", r.TimeMS, res.TimeMS)
	}
	lookup := func(arr []int32) error {
		if !q.HasNode {
			return nil
		}
		if r.NodeValue == nil || *r.NodeValue != arr[q.Node] {
			return fmt.Errorf("value at node %d = %v, want %d", q.Node, r.NodeValue, arr[q.Node])
		}
		return nil
	}
	switch q.Kind {
	case "bfs", "sssp":
		arr := res.Output.GetI("lvl")
		if q.Kind == "sssp" {
			arr = res.Output.GetI("dist")
		}
		reached := int32(0)
		for _, v := range arr {
			if v >= 0 && v < kernels.Inf {
				reached++
			}
		}
		if r.Reached == nil || *r.Reached != reached {
			return fmt.Errorf("reached %v, want %d", r.Reached, reached)
		}
		return lookup(arr)
	case "cc":
		comp := res.Output.GetI("comp")
		seen := map[int32]struct{}{}
		for _, c := range comp {
			seen[c] = struct{}{}
		}
		if r.Components == nil || int(*r.Components) != len(seen) {
			return fmt.Errorf("components %v, want %d", r.Components, len(seen))
		}
		return lookup(comp)
	case "pr":
		rank := res.Output.GetF("rank")
		best := 0
		for i, v := range rank {
			if v > rank[best] {
				best = i
			}
		}
		if len(r.TopK) == 0 || int(r.TopK[0].Node) != best || r.TopK[0].Rank != rank[best] {
			return fmt.Errorf("top-1 %v, want node %d rank %v", r.TopK, best, rank[best])
		}
	}
	return nil
}
