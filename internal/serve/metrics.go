package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencyBoundsMS are the request-latency bucket bounds in milliseconds,
// roughly log-spaced from sub-millisecond cache hits to the 30s default
// request deadline.
var latencyBoundsMS = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// queueDepthBounds bucket the admission-queue depth sampled at each arrival.
var queueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// maxLatencySeries caps the number of {tenant, kernel} latency series. Tenant
// names are client-controlled, so without a cap one misbehaving client could
// grow /metrics without bound; past the cap new series collapse into
// {other, other}.
const maxLatencySeries = 64

type histKey struct{ tenant, kernel string }

// labeledHist is a set of identically-bucketed histograms keyed by
// {tenant, kernel}, with a cardinality cap.
type labeledHist struct {
	mu     sync.Mutex
	bounds []float64
	series map[histKey]*obs.Histogram
}

func newLabeledHist(bounds []float64) *labeledHist {
	return &labeledHist{bounds: bounds, series: map[histKey]*obs.Histogram{}}
}

func (l *labeledHist) observe(tenant, kernel string, v float64) {
	if tenant == "" {
		tenant = "default"
	}
	if kernel == "" {
		kernel = "unknown"
	}
	l.mu.Lock()
	k := histKey{tenant, kernel}
	h, ok := l.series[k]
	if !ok {
		if len(l.series) >= maxLatencySeries {
			k = histKey{"other", "other"}
			h, ok = l.series[k]
		}
		if !ok {
			h = obs.NewHistogram(l.bounds)
			l.series[k] = h
		}
	}
	l.mu.Unlock()
	h.Observe(v)
}

// snapshot returns the series in sorted key order.
func (l *labeledHist) snapshot() (keys []histKey, snaps []obs.HistogramSnapshot) {
	l.mu.Lock()
	hists := make(map[histKey]*obs.Histogram, len(l.series))
	for k, h := range l.series {
		hists[k] = h
		keys = append(keys, k)
	}
	l.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].kernel < keys[j].kernel
	})
	for _, k := range keys {
		snaps = append(snaps, hists[k].Snapshot())
	}
	return keys, snaps
}

// gaugeKeys are the registry entries exported as gauges; the live values come
// from the admission ladder at scrape time, so the stale Observe'd copies in
// the registry are skipped.
var gaugeKeys = map[string]bool{
	"serve.inflight": true,
	"serve.queued":   true,
}

// handleMetrics serves the Prometheus text-exposition page.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.writeProm(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// writeProm renders the full metrics page: every registry counter (error
// classes as labels), the live admission gauges, the trace-ring drop counter
// and the latency/queue-depth histograms. The page is built with the obs
// writer and is validated against the independent obs parser in tests.
func (s *Server) writeProm(w io.Writer) error {
	p := obs.NewPromWriter()

	snap := s.opts.Registry.Snapshot()
	names := make([]string, 0, len(snap))
	errClasses := make([]string, 0, 4)
	for name := range snap {
		const errPrefix = "serve.err."
		if len(name) > len(errPrefix) && name[:len(errPrefix)] == errPrefix {
			errClasses = append(errClasses, name[len(errPrefix):])
			continue
		}
		if gaugeKeys[name] {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	sort.Strings(errClasses)
	for _, name := range names {
		fam := "egacs_" + obs.PromName(name) + "_total"
		p.Family(fam, "service counter "+name, "counter")
		p.Sample(fam, nil, snap[name])
	}
	p.Family("egacs_serve_errors_by_class_total", "failed requests by error class", "counter")
	for _, class := range errClasses {
		p.Sample("egacs_serve_errors_by_class_total", []obs.Label{{Name: "class", Value: class}}, snap["serve.err."+class])
	}

	inflight, queued := s.adm.depth()
	p.Family("egacs_serve_inflight", "queries executing right now", "gauge")
	p.Sample("egacs_serve_inflight", nil, float64(inflight))
	p.Family("egacs_serve_queued", "queries waiting for an execution slot", "gauge")
	p.Sample("egacs_serve_queued", nil, float64(queued))

	p.Family("egacs_trace_dropped_total", "request spans dropped by the full trace ring", "counter")
	p.Sample("egacs_trace_dropped_total", nil, float64(s.traceDropped()))

	// Mutation-pipeline gauges: fixed cardinality (no labels), read live
	// from the store and the serving snapshot at scrape time.
	p.Family("egacs_mut_epoch", "serving snapshot epoch (advances at each compaction)", "gauge")
	p.Sample("egacs_mut_epoch", nil, float64(s.Epoch()))
	p.Family("egacs_mut_pinned_snapshots", "in-flight queries pinning the serving snapshot", "gauge")
	p.Sample("egacs_mut_pinned_snapshots", nil, float64(s.PinnedSnapshots()))
	if s.MutationsEnabled() {
		st := s.MutStats()
		p.Family("egacs_mut_wal_bytes", "bytes across live write-ahead-log segments", "gauge")
		p.Sample("egacs_mut_wal_bytes", nil, float64(st.WALBytes))
		p.Family("egacs_mut_pending_batches", "batches applied but not yet compacted", "gauge")
		p.Sample("egacs_mut_pending_batches", nil, float64(st.Pending))
		p.Family("egacs_mut_last_seq", "last acked write-ahead-log batch sequence", "gauge")
		p.Sample("egacs_mut_last_seq", nil, float64(st.LastSeq))
		p.Family("egacs_mut_replayed_batches_total", "batches replayed from the WAL at boot", "counter")
		p.Sample("egacs_mut_replayed_batches_total", nil, float64(st.Replayed))
		p.Family("egacs_mut_torn_tails_repaired_total", "torn WAL tails truncated during recovery", "counter")
		p.Sample("egacs_mut_torn_tails_repaired_total", nil, float64(st.Truncated))
	}

	p.Family("egacs_serve_latency_ms", "request latency (admission to response) in milliseconds", "histogram")
	keys, snaps := s.latency.snapshot()
	for i, k := range keys {
		p.WriteHistogram("egacs_serve_latency_ms",
			[]obs.Label{{Name: "tenant", Value: k.tenant}, {Name: "kernel", Value: k.kernel}}, snaps[i])
	}
	p.Family("egacs_serve_queue_depth", "admission queue depth sampled at each arrival", "histogram")
	p.WriteHistogram("egacs_serve_queue_depth", nil, s.qdepth.Snapshot())

	_, err := p.WriteTo(w)
	return err
}

// traceDropped returns the trace-ring drop count (0 without a tracer).
func (s *Server) traceDropped() int64 {
	t := s.opts.Trace
	if t == nil {
		return 0
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return t.Dropped()
}

// ctxKey keys the request ID in a request context.
type ctxKey int

const requestIDKey ctxKey = iota

// withRequestID attaches a request ID to ctx.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the request ID attached by the HTTP layer, or "" for
// requests that entered through Execute directly.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// nextRequestID mints a server-generated request ID: a per-process base36
// epoch plus a sequence number, unique within and across typical restarts.
func (s *Server) nextRequestID() string {
	return s.idBase + "-" + strconv.FormatUint(s.idSeq.Add(1), 10)
}

// reqLogEntry is one structured request-log line. Every field is flat and
// stable so the log is greppable and machine-parseable; absent optionals
// marshal away.
type reqLogEntry struct {
	TS        string  `json:"ts"`
	RequestID string  `json:"request_id,omitempty"`
	Tenant    string  `json:"tenant"`
	Kind      string  `json:"kind"`
	Kernel    string  `json:"kernel,omitempty"`
	Backend   string  `json:"backend,omitempty"`
	Layout    string  `json:"layout,omitempty"`
	Status    int     `json:"status"`
	Error     string  `json:"error,omitempty"` // stable class, see errClass
	Level     string  `json:"level,omitempty"` // degradation rung that served
	Epoch     uint64  `json:"epoch,omitempty"` // snapshot epoch the query ran against
	Cycles    float64 `json:"modeled_cycles,omitempty"`
	Rollbacks int     `json:"rollbacks,omitempty"`
	WallMS    float64 `json:"wall_ms"`
}

// logRequest emits one JSON line per Execute when a request log is
// configured. The mutex serializes whole lines, so concurrent requests never
// interleave bytes.
func (s *Server) logRequest(ctx context.Context, q *Query, out *Result, err error, wallMS float64) {
	if s.opts.RequestLog == nil {
		return
	}
	e := reqLogEntry{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: RequestIDFrom(ctx),
		Tenant:    q.Tenant,
		Kind:      q.Kind,
		Kernel:    q.Kernel(),
		Status:    statusFor(err),
		WallMS:    wallMS,
	}
	if err != nil {
		e.Error = errClass(err)
	}
	if out != nil {
		e.Backend = out.Backend
		// The serve layer always builds the default layout, which is CSR.
		e.Layout = "csr"
		e.Level = out.Level.String()
		e.Epoch = out.Epoch
		e.Cycles = out.Cycles
		e.Rollbacks = out.Recovery.Rollbacks
	}
	line, merr := json.Marshal(e)
	if merr != nil {
		return
	}
	s.logMu.Lock()
	s.opts.RequestLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}
