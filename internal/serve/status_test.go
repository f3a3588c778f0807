package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestStatusHandlerBodies pins the exact body and content type of every
// status endpoint through each lifecycle stage: before the self-check, ready,
// and draining.
func TestStatusHandlerBodies(t *testing.T) {
	s, err := New(testGraph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Liveness holds at every stage.
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || body != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 \"ok\\n\"", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("healthz content type %q, want text/plain", ct)
	}

	// Readiness before the self-check.
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "self-check pending") {
		t.Errorf("pre-check readyz = %d %q", resp.StatusCode, body)
	}

	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 || body != "ready\n" {
		t.Errorf("ready readyz = %d %q, want 200 \"ready\\n\"", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("readyz content type %q, want text/plain", ct)
	}

	// /statz is JSON and carries the live gauges plus the trace-drop count.
	resp, body = get(t, ts.URL+"/statz")
	if resp.StatusCode != 200 {
		t.Fatalf("statz = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("statz content type %q, want application/json", ct)
	}
	var snap map[string]float64
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("statz body not JSON: %v", err)
	}
	for _, key := range []string{"serve.requests", "serve.inflight", "serve.queued", "trace_dropped"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("statz missing %q: %v", key, snap)
		}
	}

	s.BeginDrain()
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("draining readyz = %d %q", resp.StatusCode, body)
	}
}

// TestRequestIDEchoAndGenerate covers the request-identity contract: a
// client-supplied X-Request-ID is echoed on the response and embedded in the
// error envelope; without one the server generates a unique ID.
func TestRequestIDEchoAndGenerate(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	req, _ := http.NewRequest("GET", ts.URL+"/query?kind=bogus", nil)
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Errorf("client ID not echoed: %q", got)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if eb.RequestID != "client-abc-123" {
		t.Errorf("error envelope request_id = %q, want client-abc-123", eb.RequestID)
	}
	if eb.Error != "bad-request" {
		t.Errorf("error class = %q", eb.Error)
	}

	// Over-long IDs are replaced, never truncated into ambiguity.
	req, _ = http.NewRequest("GET", ts.URL+"/query?kind=bfs", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", maxRequestIDLen+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, "xxx") {
		t.Errorf("over-long ID handling: %q", got)
	}

	// No client ID: two requests get distinct generated IDs.
	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		resp, _ := get(t, ts.URL+"/query?kind=bfs")
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no generated X-Request-ID")
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Errorf("generated IDs collide: %v", ids)
	}
}

// TestMetricsEndpoint checks the /metrics page parses under the independent
// Prometheus-format validator and that its histogram counts agree with the
// counter registry: one latency observation per request, by construction.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, q := range []string{"kind=bfs&tenant=alice", "kind=cc&tenant=bob", "kind=bogus"} {
		resp, _ := get(t, ts.URL+"/query?"+q)
		_ = resp
	}

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	if err := obs.ValidatePrometheus([]byte(body)); err != nil {
		t.Fatalf("metrics page fails exposition validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE egacs_serve_requests_total counter",
		"# TYPE egacs_serve_latency_ms histogram",
		"# TYPE egacs_serve_queue_depth histogram",
		"# TYPE egacs_serve_errors_by_class_total counter",
		`egacs_serve_latency_ms_bucket{tenant="alice",kernel="bfs-wl"`,
		"egacs_trace_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	reqs, _ := s.Registry().Get("serve.requests")
	if got := sumLatencyCount(t, body); got != reqs {
		t.Errorf("latency histogram count %v != serve.requests %v", got, reqs)
	}
}

// sumLatencyCount totals egacs_serve_latency_ms_count across all label sets.
func sumLatencyCount(t *testing.T, page string) float64 {
	t.Helper()
	total := 0.0
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "egacs_serve_latency_ms_count") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad count line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestRequestLog drives Execute with a request log attached and checks the
// structured line: flat JSON with the identity, outcome and cost fields.
func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(testGraph(), Options{RequestLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := withRequestID(context.Background(), "rid-42")
	if _, err := s.Execute(ctx, &Query{Kind: "bfs", Src: 3, Node: -1, TopK: 1, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(ctx, &Query{Kind: "bfs", Src: 1 << 20, Node: -1, TopK: 1, Tenant: "alice"}); err == nil {
		t.Fatal("out-of-range src accepted")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // self-check + ok + rejected
		t.Fatalf("got %d log lines, want 3:\n%s", len(lines), buf.String())
	}
	var ok reqLogEntry
	if err := json.Unmarshal([]byte(lines[1]), &ok); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if ok.RequestID != "rid-42" || ok.Tenant != "alice" || ok.Kind != "bfs" ||
		ok.Kernel != "bfs-wl" || ok.Status != 200 || ok.Level != "normal" {
		t.Errorf("ok line fields: %+v", ok)
	}
	if ok.Cycles <= 0 || ok.Backend == "" || ok.Layout != "csr" || ok.TS == "" {
		t.Errorf("ok line cost/identity fields: %+v", ok)
	}
	var bad reqLogEntry
	if err := json.Unmarshal([]byte(lines[2]), &bad); err != nil {
		t.Fatal(err)
	}
	if bad.Status != 400 || bad.Error != "bad-request" || bad.Cycles != 0 {
		t.Errorf("rejected line fields: %+v", bad)
	}
}
