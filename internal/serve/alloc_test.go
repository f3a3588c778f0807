package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/graph"
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

func BenchmarkServeRequest(b *testing.B) {
	h := pointServer(b)
	serveBFS(b, h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBFS(b, h, i*13%1024)
	}
}
