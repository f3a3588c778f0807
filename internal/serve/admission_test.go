package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestAdmissionCaps(t *testing.T) {
	a := newAdmission(2, 1, 0) // 2 slots, 1 queue spot, no tenant cap

	if err := a.acquire(context.Background(), "t1"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background(), "t2"); err != nil {
		t.Fatal(err)
	}

	// Third request queues; fourth finds the queue full.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx, "t3") }()
	waitFor(t, func() bool { _, q := a.depth(); return q == 1 })

	if err := a.acquire(context.Background(), "t4"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fourth acquire: %v, want ErrQueueFull", err)
	}

	// Releasing a slot admits the queued request.
	a.release("t1")
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	cancel()
	a.release("t2")
	a.release("t3")
}

func TestAdmissionTenantCap(t *testing.T) {
	a := newAdmission(4, 4, 1)
	if err := a.acquire(context.Background(), "greedy"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background(), "greedy"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("over-cap tenant admitted: %v", err)
	}
	// Other tenants are unaffected.
	if err := a.acquire(context.Background(), "polite"); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	a.release("greedy")
	if err := a.acquire(context.Background(), "greedy"); err != nil {
		t.Fatalf("tenant slot not reclaimed after release: %v", err)
	}
	a.release("greedy")
	a.release("polite")
}

func TestAdmissionQueueCancel(t *testing.T) {
	a := newAdmission(1, 2, 0)
	if err := a.acquire(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- a.acquire(ctx, "t") }()
	waitFor(t, func() bool { _, q := a.depth(); return q == 1 })
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queue wait returned %v", err)
	}
	// The abandoned queue spot and tenant reservation are reclaimed.
	waitFor(t, func() bool { _, q := a.depth(); return q == 0 })
	a.release("t")
	if err := a.acquire(context.Background(), "t"); err != nil {
		t.Fatalf("slot leaked by cancelled waiter: %v", err)
	}
	a.release("t")
}

// TestAdmissionConcurrency hammers the controller from many goroutines under
// -race: counts must balance and capacity must never be exceeded.
func TestAdmissionConcurrency(t *testing.T) {
	const slots, queue, workers = 3, 3, 24
	a := newAdmission(slots, queue, 0)
	var mu sync.Mutex
	inflight, maxSeen := 0, 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				err := a.acquire(ctx, "t")
				cancel()
				if err != nil {
					continue
				}
				mu.Lock()
				inflight++
				if inflight > maxSeen {
					maxSeen = inflight
				}
				if inflight > slots {
					t.Errorf("inflight %d exceeds capacity %d", inflight, slots)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inflight--
				mu.Unlock()
				a.release("t")
			}
		}()
	}
	wg.Wait()
	if fl, q := a.depth(); fl != 0 || q != 0 {
		t.Fatalf("leaked admission state: inflight=%d queued=%d", fl, q)
	}
	if maxSeen == 0 {
		t.Fatal("no request ever ran")
	}
}

// TestLevelLadder pins the two-rung decision: the verified vector run unless
// a request takes its slot with others still queued, then the reference.
func TestLevelLadder(t *testing.T) {
	cases := []struct {
		queued int
		want   Level
		name   string
	}{
		{0, LevelNormal, "normal"},
		{1, LevelScalar, "scalar"},
		{8, LevelScalar, "scalar"},
	}
	for _, tc := range cases {
		got := levelFor(tc.queued)
		if got != tc.want || got.String() != tc.name {
			t.Errorf("levelFor(%d) = %v, want %v", tc.queued, got, tc.name)
		}
	}
}

// TestLoneRequestServesVector: a request on an idle server gets the verified
// vector run whatever the slot count, one slot included — the request itself
// is never part of the backlog the ladder reads.
func TestLoneRequestServesVector(t *testing.T) {
	g := testGraph()
	for maxInflight := 1; maxInflight <= 4; maxInflight++ {
		s, err := New(g, Options{MaxInflight: maxInflight})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Execute(context.Background(), &Query{Kind: "bfs", Node: -1, TopK: 1})
		if err != nil {
			t.Fatalf("max-inflight %d: %v", maxInflight, err)
		}
		if res.Level != LevelNormal || res.Path != "vector" || res.Degraded {
			t.Errorf("max-inflight %d: lone request served at level %v path %q degraded %v, want normal/vector/false",
				maxInflight, res.Level, res.Path, res.Degraded)
		}
	}
}

// TestSelfCheckRunsVector: the readiness check of a one-slot server exercises
// the vector engine, not the reference, as its request-log line shows.
func TestSelfCheckRunsVector(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(testGraph(), Options{MaxInflight: 1, RequestLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	var e reqLogEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("self-check log line: %v: %q", err, buf.String())
	}
	if e.Level != "normal" || e.Cycles <= 0 || e.Backend == "" {
		t.Errorf("self-check served at level %q with %v modeled cycles on backend %q, want the vector engine",
			e.Level, e.Cycles, e.Backend)
	}
}

func TestStatusTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrBadRequest, http.StatusBadRequest},
		{ErrTenantLimit, http.StatusTooManyRequests},
		{ErrQueueFull, http.StatusServiceUnavailable},
		{ErrDraining, http.StatusServiceUnavailable},
		{ErrNotReady, http.StatusServiceUnavailable},
		{&fault.BudgetError{Resource: "deadline", Cause: context.DeadlineExceeded}, http.StatusGatewayTimeout},
		{&fault.BudgetError{Resource: "deadline", Cause: context.Canceled}, http.StatusGatewayTimeout},
		{&fault.BudgetError{Resource: "iterations", Limit: 10, Used: 11}, http.StatusUnprocessableEntity},
		{&fault.BudgetError{Resource: "cycles", Limit: 1, Used: 2}, http.StatusUnprocessableEntity},
		{fault.ErrNonConvergence, http.StatusUnprocessableEntity},
		{fault.ErrKernelPanic, http.StatusInternalServerError},
		{fault.ErrCorruptGraph, http.StatusInternalServerError},
		{errors.New("mystery"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	if !retryAfter(http.StatusTooManyRequests) || !retryAfter(http.StatusServiceUnavailable) {
		t.Error("backpressure statuses must carry Retry-After")
	}
	if retryAfter(http.StatusInternalServerError) {
		t.Error("500 must not advertise Retry-After")
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
