package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// pointServer is the benchmark's serve-point setup — default Options over
// RMAT(10, 8, 63, 42), self-checked — behind its HTTP handler.
func pointServer(tb testing.TB) http.Handler {
	tb.Helper()
	g := graph.RMAT(10, 8, 63, 42)
	g.SortAdjacency()
	s, err := New(g, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s.Handler()
}

// serveBFS sends one bfs query through the handler and requires a 200.
func serveBFS(tb testing.TB, h http.Handler, src int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/query?kind=bfs&src=%d", src), nil))
	if rec.Code != 200 {
		tb.Fatalf("bfs src %d: status %d: %s", src, rec.Code, rec.Body)
	}
}

// TestServeRequestAllocationBudget pins the per-request allocation of a
// warmed point query end to end. A request on a pooled engine used to
// allocate 2.55 MB, 2.1 MB of it a fresh copy of the cache model's tags for
// its first checkpoint; with the engine owning its recovery point and the
// cache model syncing only dirtied blocks it is ~0.2 MB. The budget sits
// between the two so that losing either mechanism fails here, not only in the
// host-time benchmark.
func TestServeRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	h := pointServer(t)
	const requests = 50
	for i := 0; i < 5; i++ {
		serveBFS(t, h, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		serveBFS(t, h, i*13%1024)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("%.0f KB allocated per warmed bfs request", per/1e3)
	if per > 400e3 {
		t.Errorf("a warmed bfs request allocates %.0f KB, budget 400 KB", per/1e3)
	}
}

// TestScalarRungServesReference forces every request onto LevelScalar (any
// occupancy engages it) and requires each answer to be the benchmark's serial
// reference, bit for bit, at a fraction of the allocation of the same query
// served at LevelNormal on a pooled engine. The rung used to run a simulated
// baseline framework that allocated 2.5-11.6 MB per request, more than the
// vector run it shed.
func TestScalarRungServesReference(t *testing.T) {
	g := graph.RMAT(10, 8, 63, 42)
	g.SortAdjacency()
	scalar, err := New(g, Options{ScalarAt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	normal, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"bfs", "sssp", "pr", "cc"} {
		t.Run(kind, func(t *testing.T) {
			q := &Query{Kind: kind, Src: 3, Node: -1, TopK: 1}
			b, err := kernels.ByName(q.Kernel())
			if err != nil {
				t.Fatal(err)
			}
			in := g
			if b.NeedsSymmetric {
				in = g.Symmetrize()
			}
			params := map[string]int32{"src": q.Src}
			if b.Params != nil {
				for k, v := range b.Params(in) {
					params[k] = v
				}
			}
			want := b.Reference(in, params, q.Src)

			res, err := scalar.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Level != LevelScalar || res.Path != "reference" || !res.Degraded {
				t.Fatalf("level %v path %q degraded %v, want scalar/reference/true", res.Level, res.Path, res.Degraded)
			}
			for name, w := range want.I {
				got := res.Output.GetI(name)
				for i := range w {
					if i >= len(got) || got[i] != w[i] {
						t.Fatalf("%s[%d] differs from the reference", name, i)
					}
				}
			}
			for name, w := range want.F {
				got := res.Output.GetF(name)
				for i := range w {
					if i >= len(got) || math.Float32bits(got[i]) != math.Float32bits(w[i]) {
						t.Fatalf("%s[%d] differs from the reference", name, i)
					}
				}
			}

			if raceEnabled {
				return // allocation volume is not meaningful under the race detector
			}
			perRequest := func(s *Server, level Level) float64 {
				const requests = 3
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < requests; i++ {
					res, err := s.Execute(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if res.Level != level {
						t.Fatalf("served at %v, want %v", res.Level, level)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / requests
			}
			if _, err := normal.Execute(context.Background(), q); err != nil {
				t.Fatal(err) // warm the engine pool
			}
			atNormal, atScalar := perRequest(normal, LevelNormal), perRequest(scalar, LevelScalar)
			t.Logf("%.0f KB per request at normal, %.0f KB at scalar", atNormal/1e3, atScalar/1e3)
			if atScalar >= atNormal {
				t.Errorf("the scalar rung allocates %.0f KB per request, the normal rung %.0f KB", atScalar/1e3, atNormal/1e3)
			}
		})
	}
}

func BenchmarkServeRequest(b *testing.B) {
	h := pointServer(b)
	serveBFS(b, h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBFS(b, h, i*13%1024)
	}
}
