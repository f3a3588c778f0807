package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// chaosClients returns the concurrency of the chaos-load run: the CI-sized
// default meets the acceptance floor (8); EGACS_CHAOS=full widens it for the
// nightly job.
func chaosClients() int {
	if os.Getenv("EGACS_CHAOS") == "full" {
		return 16
	}
	return 8
}

// loadStats aggregates one chaos-load phase.
type loadStats struct {
	mu       sync.Mutex
	statuses map[int]int
	classes  map[string]int
	lat      []float64 // ms, successful requests
}

func newLoadStats() *loadStats {
	return &loadStats{statuses: map[int]int{}, classes: map[string]int{}}
}

func (l *loadStats) record(status int, class string, ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.statuses[status]++
	if class != "" {
		l.classes[class]++
	}
	if status == http.StatusOK {
		l.lat = append(l.lat, ms)
	}
}

func (l *loadStats) percentile(p float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lat) == 0 {
		return 0
	}
	s := append([]float64(nil), l.lat...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

// TestChaosLoad is the tentpole acceptance harness: N concurrent clients
// fire mixed queries at a fault-injected server through real HTTP, including
// a deliberate overload phase against a tiny admission window. The invariants
// checked are the service contract:
//
//   - zero daemon panics (the registry's panic counter stays 0; a process
//     panic would fail the test run outright),
//   - zero silent corruption — every 200 is re-verified against the serial
//     reference here, on top of the server's own verification,
//   - overload surfaces as 429/503 backpressure, not hangs or 500s,
//   - after the storm the server drains gracefully.
func TestChaosLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load is not short")
	}
	g := graph.Random(300, 2400, 16, 13)
	g.SortAdjacency()
	sym := g.Symmetrize()
	refLvl := map[int32][]int32{}
	refComp := kernels.RefCC(sym)

	const maxInflight, maxQueue = 4, 4
	s, err := New(g, Options{
		MaxInflight:    maxInflight,
		MaxQueue:       maxQueue,
		TenantCap:      3,
		RequestTimeout: 30 * time.Second,
		Inject:         &fault.InjectorConfig{BitFlip: 0.002, Transient: 0.002},
		InjectSeed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	mux := s.Handler()
	srv := newLocalHTTP(t, mux)

	clients := chaosClients()
	perClient := 12
	if os.Getenv("EGACS_CHAOS") == "full" {
		perClient = 25
	}
	stats := newLoadStats()
	var served atomic.Int64

	verify := func(t *testing.T, kind string, src int32, body []byte) error {
		var resp queryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("200 body not JSON: %v", err)
		}
		switch kind {
		case "bfs":
			want, ok := refLvl[src]
			if !ok {
				return nil // populated below only for the sources we precompute
			}
			reached := int32(0)
			for _, v := range want {
				if v >= 0 && v < 1<<30 {
					reached++
				}
			}
			if resp.Reached == nil || *resp.Reached != reached {
				return fmt.Errorf("bfs src %d: reached %v, reference %d (path %s)", src, resp.Reached, reached, resp.Path)
			}
		case "cc":
			seen := map[int32]struct{}{}
			for _, c := range refComp {
				seen[c] = struct{}{}
			}
			if resp.Components == nil || *resp.Components != int32(len(seen)) {
				return fmt.Errorf("cc: components %v, reference %d (path %s)", resp.Components, len(seen), resp.Path)
			}
		}
		return nil
	}
	// Precompute BFS references for the sources the storm will use.
	for srcI := 0; srcI < clients; srcI++ {
		src := int32(srcI * 7 % int(g.NumNodes()))
		refLvl[src] = kernels.RefBFS(g, src)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			kinds := []string{"bfs", "sssp", "pr", "cc"}
			for i := 0; i < perClient; i++ {
				kind := kinds[(c+i)%len(kinds)]
				src := int32(c * 7 % int(g.NumNodes()))
				url := fmt.Sprintf("%s/query?kind=%s&src=%d&tenant=client%d", srv.base, kind, src, c%5)
				t0 := time.Now()
				resp, err := srv.client.Get(url)
				if err != nil {
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				ms := float64(time.Since(t0).Microseconds()) / 1e3

				class := ""
				if resp.StatusCode != http.StatusOK {
					var eb errorBody
					if json.Unmarshal(body, &eb) == nil {
						class = eb.Error
					}
				}
				stats.record(resp.StatusCode, class, ms)
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					if kind == "bfs" || kind == "cc" {
						if verr := verify(t, kind, src, body); verr != nil {
							t.Errorf("SILENT CORRUPTION served: %v", verr)
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("backpressure status %d without Retry-After", resp.StatusCode)
					}
				case http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
					// Budget exhaustion under injected faults is a legal,
					// typed outcome — not a silent one.
				default:
					t.Errorf("client %d %s: unexpected status %d: %s", c, kind, resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if served.Load() == 0 {
		t.Fatal("storm served nothing")
	}

	// Overload phase: every client fires a synchronized burst of the
	// heaviest kernel — far more simultaneous arrivals than slots + queue —
	// so admission control MUST reject some with 429 (burst tenants exceed
	// their cap) or 503 (queue full), and must do so instantly, not by
	// hanging. The execution slots are held for the burst (see holdSlots):
	// the queue takes the first maxQueue arrivals and every other one must
	// come back rejected before the slots free.
	const burstPerClient = 3
	release := holdSlots(t, s)
	ready := make(chan struct{})
	answered := make(chan struct{}, clients*burstPerClient)
	var burstWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		for b := 0; b < burstPerClient; b++ {
			burstWG.Add(1)
			go func() {
				defer burstWG.Done()
				defer func() { answered <- struct{}{} }()
				<-ready
				url := fmt.Sprintf("%s/query?kind=pr&tenant=burst%d", srv.base, c%3)
				t0 := time.Now()
				resp, err := srv.client.Get(url)
				if err != nil {
					t.Errorf("burst transport error: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				class := ""
				var eb errorBody
				if resp.StatusCode != http.StatusOK && json.Unmarshal(body, &eb) == nil {
					class = eb.Error
				}
				stats.record(resp.StatusCode, class, float64(time.Since(t0).Microseconds())/1e3)
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("burst backpressure status %d without Retry-After", resp.StatusCode)
					}
				}
			}()
		}
	}
	close(ready)
	awaitAnswers(t, answered, clients*burstPerClient-maxQueue)
	release()
	burstWG.Wait()

	stats.mu.Lock()
	rejected := stats.statuses[http.StatusTooManyRequests] + stats.statuses[http.StatusServiceUnavailable]
	stats.mu.Unlock()
	if rejected == 0 {
		t.Errorf("overload burst (%d simultaneous vs %d slots) produced no 429/503 backpressure",
			clients*burstPerClient, maxInflight)
	}
	if v, _ := s.Registry().Get("serve.panics"); v != 0 {
		t.Fatalf("daemon recorded %v panics", v)
	}

	// Telemetry consistency after the storm: the live /metrics page must
	// parse under the independent exposition validator (the nightly chaos job
	// fails on any format regression), and the latency histogram must have
	// recorded exactly one observation per request — the Execute invariant —
	// so histogram counts and the counter registry agree.
	mresp, err := srv.client.Get(srv.base + "/metrics")
	if err != nil {
		t.Fatalf("/metrics scrape: %v", err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := obs.ValidatePrometheus(page); err != nil {
		t.Errorf("/metrics fails exposition validation under chaos: %v", err)
	}
	if reqs, _ := s.Registry().Get("serve.requests"); sumLatencyCount(t, string(page)) != reqs {
		t.Errorf("latency histogram count %v != serve.requests %v", sumLatencyCount(t, string(page)), reqs)
	}
	var statz map[string]float64
	if code := getJSON(t, srv.base+"/statz", &statz); code != 200 {
		t.Fatalf("statz after storm: %d", code)
	}
	if statz["serve.requests"] == 0 || statz["serve.ok"] == 0 {
		t.Errorf("statz counters flat after storm: %v", statz)
	}

	// Graceful drain after the storm.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("post-storm drain: %v", err)
	}
	if code := func() int {
		resp, err := srv.client.Get(srv.base + "/query?kind=bfs")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}(); code != http.StatusServiceUnavailable {
		t.Fatalf("query after drain: %d, want 503", code)
	}

	total := clients*perClient + clients*burstPerClient
	qps := float64(served.Load()) / elapsed.Seconds()
	p50, p99 := stats.percentile(0.50), stats.percentile(0.99)
	scalar, _ := s.Registry().Get("serve.scalar_forced")
	ok, _ := s.Registry().Get("serve.ok")
	t.Logf("chaos load: %d requests, %d served, %.1f QPS, p50 %.1fms p99 %.1fms, statuses %v, classes %v, serve.ok %v of which scalar %v",
		total, served.Load(), qps, p50, p99, stats.statuses, stats.classes, ok, scalar)
	if math.IsNaN(qps) || p99 < p50 {
		t.Fatalf("nonsense latency aggregates: qps=%v p50=%v p99=%v", qps, p50, p99)
	}
}

// TestChaosOverloadDegrades queues a backlog on a 1-slot server and requires
// the ladder to serve it exactly: with the slot held, 8 bfs requests queue;
// once it frees, each request that takes the slot while others still wait is
// served by the reference, so 7 answers are scalar and only the last, which
// finds the queue empty, runs the verified vector engine. Every answer equals
// the reference.
func TestChaosOverloadDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("overload probe is not short")
	}
	g := graph.Random(200, 1200, 16, 31)
	g.SortAdjacency()
	s, err := New(g, Options{
		MaxInflight: 1, MaxQueue: 8, TenantCap: -1,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}

	const backlog = 8
	want := kernels.RefBFS(g, 0)
	release := holdSlots(t, s)
	levels := make(chan Level, backlog)
	var wg sync.WaitGroup
	for c := 0; c < backlog; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Execute(context.Background(), &Query{Kind: "bfs", Node: -1, TopK: 1, Tenant: "storm"})
			if err != nil {
				t.Errorf("queued request failed: %v", err)
				return
			}
			levels <- res.Level
			got := res.Output.GetI("lvl")
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("served wrong lvl[%d]=%d want %d (level %v path %s)",
						i, got[i], want[i], res.Level, res.Path)
					return
				}
			}
		}()
	}
	waitFor(t, func() bool { _, q := s.adm.depth(); return q == backlog })
	release()
	wg.Wait()
	close(levels)

	count := map[Level]int{}
	for l := range levels {
		count[l]++
	}
	if count[LevelScalar] != backlog-1 || count[LevelNormal] != 1 {
		t.Errorf("backlog of %d served %d scalar, %d normal; want %d scalar, 1 normal",
			backlog, count[LevelScalar], count[LevelNormal], backlog-1)
	}
	if v, _ := s.Registry().Get("serve.scalar_forced"); v != backlog-1 {
		t.Errorf("serve.scalar_forced = %v, want %d", v, backlog-1)
	}
}

// localHTTP is the storm's real-socket HTTP front end.
type localHTTP struct {
	base   string
	client *http.Client
}

func newLocalHTTP(t *testing.T, h http.Handler) *localHTTP {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &localHTTP{base: srv.URL, client: srv.Client()}
}
