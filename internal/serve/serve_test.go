package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// testGraph is a small sorted random graph shared by the server tests.
func testGraph() *graph.CSR {
	g := graph.Random(200, 1200, 16, 21)
	g.SortAdjacency()
	return g
}

// newTestServer builds a ready Server plus an httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testGraph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// holdSlots occupies every execution slot of s, as long-running requests
// would, and returns the func that frees them. Saturation tests hold the
// slots: the scalar rung serves a query in tens of microseconds, so a handful
// of clients alone never keeps a server busy long enough to reach its
// admission bounds. Release is idempotent and also runs at test cleanup.
func holdSlots(t *testing.T, s *Server) (release func()) {
	t.Helper()
	n := cap(s.adm.slots)
	for i := 0; i < n; i++ {
		if err := s.adm.acquire(context.Background(), fmt.Sprintf("holder%d", i)); err != nil {
			t.Fatalf("holding slot %d: %v", i, err)
		}
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for i := 0; i < n; i++ {
				s.adm.release(fmt.Sprintf("holder%d", i))
			}
		})
	}
	// A test that fails while holding must still free the slots, or its
	// queued requests outlive it and block the HTTP server's Close.
	t.Cleanup(release)
	return release
}

// awaitAnswers waits for n signals on done: the requests admission must
// answer at once while the slots are held.
func awaitAnswers(t *testing.T, done <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d requests beyond the queue bound still unanswered after 10s", n-i, n)
		}
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && len(body) > 0 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON (%s): %v", body, err)
		}
	}
	return resp.StatusCode
}

func TestServeQueryKinds(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	g := s.Graph()

	var bfs queryResponse
	if code := getJSON(t, ts.URL+"/query?kind=bfs&src=0&node=5", &bfs); code != 200 {
		t.Fatalf("bfs status %d", code)
	}
	if bfs.Path == "" || bfs.Reached == nil || *bfs.Reached <= 0 {
		t.Fatalf("bfs response incomplete: %+v", bfs)
	}
	want := kernels.RefBFS(g, 0)[5]
	if bfs.NodeValue == nil || *bfs.NodeValue != want {
		t.Fatalf("bfs lvl[5] = %v, want %d", bfs.NodeValue, want)
	}

	var sssp queryResponse
	if code := getJSON(t, ts.URL+"/query?kind=sssp&src=3", &sssp); code != 200 {
		t.Fatalf("sssp status %d", code)
	}
	if sssp.Reached == nil || *sssp.Reached <= 0 {
		t.Fatalf("sssp response incomplete: %+v", sssp)
	}

	var pr queryResponse
	if code := getJSON(t, ts.URL+"/query?kind=pr&k=7", &pr); code != 200 {
		t.Fatalf("pr status %d", code)
	}
	if len(pr.TopK) != 7 {
		t.Fatalf("pr returned %d entries, want 7", len(pr.TopK))
	}
	for i := 1; i < len(pr.TopK); i++ {
		if pr.TopK[i].Rank > pr.TopK[i-1].Rank {
			t.Fatalf("topk not sorted: %+v", pr.TopK)
		}
	}

	var cc queryResponse
	if code := getJSON(t, ts.URL+"/query?kind=cc&node=9", &cc); code != 200 {
		t.Fatalf("cc status %d", code)
	}
	if cc.Components == nil || *cc.Components < 1 || cc.NodeValue == nil {
		t.Fatalf("cc response incomplete: %+v", cc)
	}

	// POST body form.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"kind":"bfs","src":1,"tenant":"poster"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST query status %d", resp.StatusCode)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"kind=mincut", "kind=bfs&src=-3", "kind=bfs&src=100000000", "kind=pr&k=0",
		"kind=cc&node=999999", "", "kind=%zz",
	} {
		var eb errorBody
		if code := getJSON(t, ts.URL+"/query?"+q, &eb); code != 400 {
			t.Errorf("query %q: status %d, want 400", q, code)
		} else if eb.Error != "bad-request" {
			t.Errorf("query %q: class %q", q, eb.Error)
		}
	}
	// Oversized body is a client error, not a daemon failure.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"kind":"bfs","tenant":"`+strings.Repeat("a", maxBodyBytes+16)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

func TestServeHealthAndReady(t *testing.T) {
	s, err := New(testGraph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness is always on; readiness and /query gate on the self-check.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz before self-check: %d, want 503", code)
	}
	var eb errorBody
	if code := getJSON(t, ts.URL+"/query?kind=bfs", &eb); code != 503 || eb.Error != "not-ready" {
		t.Fatalf("query before self-check: %d %q", code, eb.Error)
	}

	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz after self-check: %d", code)
	}

	s.BeginDrain()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/query?kind=bfs", &eb); code != 503 || eb.Error != "draining" {
		t.Fatalf("query while draining: %d %q", code, eb.Error)
	}
}

func TestServePanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	h := s.recoverWrap(func(http.ResponseWriter, *http.Request) {
		panic("kernel exploded")
	})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/query?kind=bfs", nil))
		if rec.Code != 500 {
			t.Fatalf("panicking request %d: status %d, want 500", i, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("panic response not JSON: %v", err)
		}
		if eb.Error != "kernel-panic" {
			t.Fatalf("panic class %q", eb.Error)
		}
	}
	if v, _ := s.Registry().Get("serve.panics"); v != 3 {
		t.Fatalf("panic counter = %v, want 3", v)
	}
	// The server still serves after panics.
	res, err := s.Execute(context.Background(), &Query{Kind: "bfs", Node: -1, TopK: 1, Tenant: "after"})
	if err != nil {
		t.Fatalf("server dead after panics: %v", err)
	}
	if res.Output == nil {
		t.Fatal("no output after panic recovery")
	}
}

// TestServeBackpressure saturates a 1-slot server and checks the admission
// taxonomy: some requests serve, the rest split between 429 (tenant cap) and
// 503 (queue full) — all with Retry-After — and nothing hangs or panics. The
// slot is held while the clients arrive, so the queue takes one of them and
// every other one must be answered before the slot frees.
func TestServeBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{
		MaxInflight: 1, MaxQueue: 1, TenantCap: 2,
		RequestTimeout: 10 * time.Second,
	})
	const clients = 10
	codes := make([]int, clients)
	retryHdr := make([]bool, clients)
	release := holdSlots(t, s)
	answered := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { answered <- struct{}{} }()
			// Half the clients share a tenant to trip its cap; the rest are
			// distinct and contend for the queue.
			tenant := "shared"
			if c%2 == 0 {
				tenant = fmt.Sprintf("t%d", c)
			}
			resp, err := http.Get(ts.URL + "/query?kind=bfs&src=" + fmt.Sprint(c%100) + "&tenant=" + tenant)
			if err != nil {
				codes[c] = -1
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes[c] = resp.StatusCode
			retryHdr[c] = resp.Header.Get("Retry-After") != ""
		}()
	}
	awaitAnswers(t, answered, clients-1)
	release()
	wg.Wait()

	counts := map[int]int{}
	for c, code := range codes {
		counts[code]++
		if (code == 429 || code == 503) && !retryHdr[c] {
			t.Errorf("client %d: %d without Retry-After", c, code)
		}
		switch code {
		case 200, 429, 503:
		default:
			t.Errorf("client %d: unexpected status %d", c, code)
		}
	}
	if counts[200] == 0 {
		t.Error("no request served under load")
	}
	if counts[429]+counts[503] == 0 {
		t.Error("no request shed: admission control never engaged")
	}
	t.Logf("status mix under overload: %v", counts)
}

// TestServeDrain checks graceful shutdown: an in-flight slow query finishes,
// new work bounces with 503, and Drain returns once the server is idle.
func TestServeDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInflight: 2})

	finished := make(chan error, 1)
	go func() {
		_, err := s.Execute(context.Background(), &Query{Kind: "pr", Node: -1, TopK: 5, Tenant: "slow"})
		finished <- err
	}()
	waitAdmitted(t, s, finished)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	waitFor(t, func() bool { return s.Draining() })

	if code := getJSON(t, ts.URL+"/query?kind=bfs", nil); code != 503 {
		t.Fatalf("query during drain: %d, want 503", code)
	}
	if err := <-finished; err != nil {
		t.Fatalf("in-flight query killed by graceful drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeDrainHardStop checks the drain deadline: a query still running
// when the drain context expires is cancelled through its budget and the
// daemon still exits cleanly.
func TestServeDrainHardStop(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxInflight: 2, RequestTimeout: time.Hour})

	blocker := newBlockingCtx()
	finished := make(chan error, 1)
	go func() {
		// A query whose caller never gives up: only the drain hard-stop can
		// end it.
		_, err := s.Execute(blocker, &Query{Kind: "pr", Node: -1, TopK: 5, Tenant: "stuck"})
		finished <- err
	}()
	waitAdmitted(t, s, finished)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	select {
	case qerr := <-finished:
		// Either outcome is legal — the query may have finished before the
		// hard stop landed — but it must not hang, and a cancelled query
		// must surface typed.
		if qerr != nil && statusFor(qerr) != http.StatusGatewayTimeout {
			t.Fatalf("hard-stopped query surfaced untyped: %v", qerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query survived the drain hard-stop")
	}
	if err == nil {
		// Drain may succeed if the query finished within the deadline; that
		// is fine. A non-nil error must wrap the context cause.
		return
	}
	if statusFor(err) == http.StatusOK {
		t.Fatalf("drain error unmapped: %v", err)
	}
}

// waitAdmitted blocks until the query a test launched on another goroutine
// (reporting on the buffered finished channel) is in flight as far as the
// drain lifecycle is concerned — beginRequest counted it, so a Drain that
// starts now must wait for it rather than refuse it with ErrDraining — or has
// already finished. Signalling from the goroutine before it calls Execute
// says neither: on a one-CPU runner Drain regularly won that race.
func waitAdmitted(t *testing.T, s *Server, finished <-chan error) {
	t.Helper()
	waitFor(t, func() bool {
		s.lifeMu.Lock()
		defer s.lifeMu.Unlock()
		return s.inflightN > 0 || len(finished) > 0
	})
}

// blockingCtx never cancels on its own (unlike Background it has a real Done
// channel, so AfterFunc wiring is exercised).
type blockingCtx struct{ context.Context }

func (blockingCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (blockingCtx) Err() error            { return nil }

func newBlockingCtx() context.Context {
	return blockingCtx{context.Background()}
}

func TestServeStatz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code := getJSON(t, ts.URL+"/query?kind=bfs", nil); code != 200 {
		t.Fatalf("query: %d", code)
	}
	var snap map[string]float64
	if code := getJSON(t, ts.URL+"/statz", &snap); code != 200 {
		t.Fatalf("statz: %d", code)
	}
	// requests = self-check + this one.
	if snap["serve.requests"] < 2 || snap["serve.ok"] < 2 {
		t.Fatalf("counters missing: %v", snap)
	}
	if _, ok := snap["serve.load"]; !ok {
		t.Fatalf("no load gauge: %v", snap)
	}
}
