package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 1.5, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	// le semantics: 0.5 and 1 land in the first bucket, 1.5 in the second,
	// 7 in the third, 100 overflows.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 0.5+1+1.5+7+100 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {5, 1},
		"duplicate":  {1, 1},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds accepted", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.requests":        "serve_requests",
		"serve.err.bad-request": "serve_err_bad_request",
		"9lives":                "_9lives",
		"ok_already":            "ok_already",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromWriterRoundTrip feeds a representative page — counters, gauges, a
// labeled histogram with escaping-hostile label values — through the writer
// and requires the independent validator to accept it.
func TestPromWriterRoundTrip(t *testing.T) {
	p := NewPromWriter()
	p.Family("egacs_serve_requests_total", "total requests", "counter")
	p.Sample("egacs_serve_requests_total", nil, 42)
	p.Family("egacs_serve_queued", "queries waiting for an execution slot", "gauge")
	p.Sample("egacs_serve_queued", nil, 0.75)
	p.Family("egacs_errors_total", "errors by class", "counter")
	p.Sample("egacs_errors_total", []Label{{"class", `weird"va\lue` + "\nnewline"}}, 3)

	h := NewHistogram([]float64{0.5, 1, 5})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(99)
	p.Family("egacs_latency_ms", "request latency", "histogram")
	p.WriteHistogram("egacs_latency_ms", []Label{{"tenant", "a"}, {"kernel", "bfs-wl"}}, h.Snapshot())

	page := p.Bytes()
	if err := ValidatePrometheus(page); err != nil {
		t.Fatalf("writer output rejected by validator: %v\n%s", err, page)
	}
	out := string(page)
	for _, want := range []string{
		"# TYPE egacs_latency_ms histogram",
		`egacs_latency_ms_bucket{tenant="a",kernel="bfs-wl",le="+Inf"} 3`,
		`egacs_latency_ms_count{tenant="a",kernel="bfs-wl"} 3`,
		"egacs_serve_requests_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("page missing %q:\n%s", want, out)
		}
	}
}

// TestValidatePrometheusMutations checks the validator catches each format
// violation class it claims to.
func TestValidatePrometheusMutations(t *testing.T) {
	valid := `# HELP egacs_x_total a counter
# TYPE egacs_x_total counter
egacs_x_total{tenant="t"} 5
# TYPE egacs_lat histogram
egacs_lat_bucket{le="1"} 2
egacs_lat_bucket{le="5"} 3
egacs_lat_bucket{le="+Inf"} 4
egacs_lat_sum 7.5
egacs_lat_count 4
`
	if err := ValidatePrometheus([]byte(valid)); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}

	cases := map[string]struct{ page, want string }{
		"bad metric name": {
			"9bad_name 1\n", "invalid metric name",
		},
		"bad label name": {
			"egacs_x{__reserved=\"v\"} 1\n", "invalid label name",
		},
		"unquoted label value": {
			"egacs_x{tenant=t} 1\n", "not quoted",
		},
		"unterminated label value": {
			"egacs_x{tenant=\"t} 1\n", "unterminated",
		},
		"non-numeric value": {
			"egacs_x nope\n", "non-numeric value",
		},
		"duplicate TYPE": {
			"# TYPE egacs_x counter\n# TYPE egacs_x counter\negacs_x 1\n", "duplicate # TYPE",
		},
		"TYPE after samples": {
			"egacs_x 1\n# TYPE egacs_x counter\n", "after its samples",
		},
		"unknown type": {
			"# TYPE egacs_x frobnicator\n", "unknown metric type",
		},
		"histogram missing +Inf": {
			"# TYPE egacs_h histogram\negacs_h_bucket{le=\"1\"} 2\negacs_h_count 2\n", "no +Inf bucket",
		},
		"histogram non-cumulative": {
			"# TYPE egacs_h histogram\negacs_h_bucket{le=\"1\"} 5\negacs_h_bucket{le=\"2\"} 3\negacs_h_bucket{le=\"+Inf\"} 5\n",
			"not cumulative",
		},
		"histogram count mismatch": {
			"# TYPE egacs_h histogram\negacs_h_bucket{le=\"1\"} 2\negacs_h_bucket{le=\"+Inf\"} 4\negacs_h_count 9\n",
			"_count",
		},
	}
	for name, c := range cases {
		err := ValidatePrometheus([]byte(c.page))
		if err == nil {
			t.Errorf("%s: accepted:\n%s", name, c.page)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}
