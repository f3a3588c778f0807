package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/spmd"
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

// serveQuery sends one query of kind from src through the handler and
// requires a 200.
func serveQuery(tb testing.TB, h http.Handler, kind string, src int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/query?kind=%s&src=%d", kind, src), nil))
	if rec.Code != 200 {
		tb.Fatalf("%s src %d: status %d: %s", kind, src, rec.Code, rec.Body)
	}
}

// TestServeRequestAllocationBudget pins the per-request allocation of warmed
// point queries end to end. A request on a pooled engine used to allocate a
// fresh full copy of the cache model's tags for its first checkpoint
// (1.06 MB on Intel8), and then three worklists of m+n+16 words (~110 KB on
// this graph). With the engine owning its recovery point and its worklist
// storage, and the cache model syncing only dirtied blocks, a bfs request
// allocates ~36 KB and an sssp request ~43 KB. The budget sits at twice the
// bfs figure, so that losing either ownership fails here, not only in the
// host-time benchmark. The serial references the verify path runs are pinned
// on their own (kernels.TestShortestPathRefsAllocateNoPerNodeObjects).
func TestServeRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	h := pointServer(t)
	const requests, budget = 50, 80e3
	for _, kind := range []string{"bfs", "sssp"} {
		for i := 0; i < 5; i++ {
			serveQuery(t, h, kind, i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < requests; i++ {
			serveQuery(t, h, kind, i*13%1024)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / requests
		t.Logf("%.0f KB allocated per warmed %s request", per/1e3, kind)
		if per > budget {
			t.Errorf("a warmed %s request allocates %.0f KB, budget %.0f KB", kind, per/1e3, budget/1e3)
		}
	}
}

// TestEngineReuseAcrossPs returns an engine to the pool and takes it back on
// a goroutine that runs on the other P, because the returning goroutine spins
// until the take is done. Every take must find the returned engine: a
// 1.07 MB spmd.New each time a lone client's goroutine changes P is what
// the pool exists to avoid.
func TestEngineReuseAcrossPs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// A collection would empty the pool and read as a miss.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, err := New(graph.RMAT(6, 8, 63, 42), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var news atomic.Int32
	newEngine := s.engines.New
	s.engines.New = func() *spmd.Engine {
		news.Add(1)
		return newEngine()
	}
	e := s.engines.Get()
	for i := 0; i < 100; i++ {
		s.engines.Put(e)
		var done atomic.Bool
		go func() {
			e = s.engines.Get()
			done.Store(true)
		}()
		for !done.Load() {
		}
	}
	if n := news.Load(); n != 1 {
		t.Errorf("100 takes after a return built %d more engines, want 0", n-1)
	}
}

// TestScalarRungServesReference serves queries at LevelScalar through
// serveAt, the body Execute runs once a request holds its slot, and requires
// each answer to be the benchmark's serial reference, bit for bit, at a
// fraction of the allocation of the same query served at LevelNormal on a
// pooled engine. The rung used to run a simulated baseline framework that
// allocated 2.5-11.6 MB per request, more than the vector run it shed.
func TestScalarRungServesReference(t *testing.T) {
	g := graph.RMAT(10, 8, 63, 42)
	g.SortAdjacency()
	s, err := New(g, Options{})
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
			serveAt := func(level Level) *Result {
				res, err := s.serveAt(context.Background(), q, s.snap.Load(), b, level)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			res := serveAt(LevelScalar)
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
			perRequest := func(level Level) float64 {
				const requests = 3
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < requests; i++ {
					serveAt(level)
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / requests
			}
			serveAt(LevelNormal) // warm the engine pool
			atNormal, atScalar := perRequest(LevelNormal), perRequest(LevelScalar)
			t.Logf("%.0f KB per request at normal, %.0f KB at scalar", atNormal/1e3, atScalar/1e3)
			if atScalar >= atNormal {
				t.Errorf("the scalar rung allocates %.0f KB per request, the normal rung %.0f KB", atScalar/1e3, atNormal/1e3)
			}
		})
	}
}

func BenchmarkServeRequest(b *testing.B) {
	h := pointServer(b)
	serveQuery(b, h, "bfs", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveQuery(b, h, "bfs", i*13%1024)
	}
}
