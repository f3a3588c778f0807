package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianOfPasses(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// One disturbed pass moves nothing.
	if got := median([]float64{10, 10.1, 9.9, 10, 55}); got != 10 {
		t.Errorf("median with an outlier = %v, want 10", got)
	}
}

// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] in Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A repeated op stands at the median of its repetitions.
func TestLatenciesDenoiseRepeats(t *testing.T) {
	pr := passResult{samples: []opSample{
		{"a", 0, true, 1, false}, {"b", 1, true, 10, false}, {"a", 0, true, 50, false},
		{"a", 0, true, 2, false}, {"mutate", 2, false, 99, false},
	}}
	ms, class := pr.latencies()
	if want := []float64{2, 10, 2, 2}; !reflect.DeepEqual(ms, want) {
		t.Errorf("latencies = %v, want %v", ms, want)
	}
	if want := []string{"a", "b", "a", "a"}; !reflect.DeepEqual(class, want) {
		t.Errorf("classes = %v, want %v", class, want)
	}
}

func TestApportionIsExact(t *testing.T) {
	if got := apportion(360, []int{6, 4}); !reflect.DeepEqual(got, []int{216, 144}) {
		t.Errorf("apportion(360, 6:4) = %v", got)
	}
	got := apportion(216, []int{6, 2, 2})
	if got[0]+got[1]+got[2] != 216 || got[0] < 129 || got[0] > 130 {
		t.Errorf("apportion(216, 6:2:2) = %v", got)
	}
}

func buildPlan(t *testing.T, name string, seed uint64) *plan {
	t.Helper()
	for _, s := range specs(true) {
		if s.name == name {
			p, err := s.build(seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// Equal seeds give equal inputs; different seeds give different ones; the
// positions of the writes depend on neither.
func TestPlansFollowTheSeed(t *testing.T) {
	for _, s := range specs(true) {
		a, b, c := buildPlan(t, s.name, 7), buildPlan(t, s.name, 7), buildPlan(t, s.name, 8)
		if !reflect.DeepEqual(a.ops, b.ops) {
			t.Errorf("%s: seed 7 built two different op lists", s.name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 7 and 8 built the same op list", s.name)
		}
		if len(a.ops) != len(c.ops) {
			t.Fatalf("%s: op count depends on the seed: %d vs %d", s.name, len(a.ops), len(c.ops))
		}
		an, ac := a.classes()
		cn, cc := c.classes()
		if !reflect.DeepEqual(an, cn) || !reflect.DeepEqual(ac, cc) {
			t.Errorf("%s: class mix depends on the seed: %v vs %v", s.name, ac, cc)
		}
		for i := range a.ops {
			if (a.ops[i].class == "mutate") != (c.ops[i].class == "mutate") {
				t.Errorf("%s: op %d is a write under one seed only", s.name, i)
			}
			if s.mutateEvery > 0 && (a.ops[i].class == "mutate") != (i%s.mutateEvery == s.mutateEvery-1) {
				t.Errorf("%s: op %d: writes must sit at every %dth op", s.name, i, s.mutateEvery)
			}
		}
	}
	// Different seeds draw different sources and mutation streams.
	a, c := buildPlan(t, "serve-mutate", 7), buildPlan(t, "serve-mutate", 8)
	sameQueries, sameWrites := true, true
	for i := range a.ops {
		if a.ops[i].query && a.ops[i].url != c.ops[i].url {
			sameQueries = false
		}
		if !a.ops[i].query && a.ops[i].body != c.ops[i].body {
			sameWrites = false
		}
	}
	if sameQueries || sameWrites {
		t.Errorf("serve-mutate: seeds 7 and 8 share queries=%v writes=%v", sameQueries, sameWrites)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricTablesAreWellFormed(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// BENCHMARK.json repeats the tables of metrics.go and workloads.go.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	ss := specs(false)
	if len(bj.Workloads) != len(ss) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(ss))
	}
	for i, s := range ss {
		if bj.Workloads[i].Name != s.name || bj.Workloads[i].Why != s.why || len(s.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go %q / %q (why <= 200 chars)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, s.name, s.why)
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && math.Abs(*g.Bound-d.Bound) > 1e-12) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, metrics.go %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer(), false)
}

// -smoke end to end: all four workloads, untraced and traced, every answer
// checked, and the result line is the JSON the driver reads.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer()
		}
		for _, s := range specs(true) {
			res, err := runWorkload(s, 3, 0, trace, true, out, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Fatalf("%s trace=%v: attempted %d failed %d: %v", s.name, trace, res.attempted, res.failed, res.failures)
			}
			line := report(res, trace, io.Discard)
			var parsed struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
				t.Fatalf("%s trace=%v: result line %s: %v", s.name, trace, line, err)
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d", s.name, trace, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := parsed.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united: %+v", s.name, trace, d.Name, m)
				}
				if !trace && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", s.name, d.Name, *m.Value)
				}
			}
			if trace {
				checkTraceFile(t, filepath.Join(out, s.name+".trace.json"))
			}
		}
	}
	// Nothing but the trace files is left behind.
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
}

// Spans of one op share an id, children lie inside their parents, and self
// times add back up to the roots.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Ledger map[string]float64
		Spans  []span
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 || len(f.Ledger) != len(perLayer()) {
		t.Fatalf("%s: %d spans, %d ledger rows", path, len(f.Spans), len(f.Ledger))
	}
	tr := &tracer{spans: f.Spans}
	var roots, selfSum float64
	for i, self := range tr.selfTimes() {
		s := f.Spans[i]
		selfSum += self
		if s.End < s.Start {
			t.Fatalf("%s: span %d %s ends before it starts", path, i, s.Name)
		}
		if s.Parent < 0 {
			roots += s.ms()
			continue
		}
		p := f.Spans[s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %d %s [%d,%d] op %d not inside parent %s [%d,%d] op %d", path, i, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
		}
	}
	if math.Abs(selfSum-roots) > 1e-6*roots {
		t.Errorf("%s: self times sum to %v ms, root spans to %v ms", path, selfSum, roots)
	}
}
