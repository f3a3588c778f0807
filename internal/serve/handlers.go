package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/fault"
)

// maxBodyBytes bounds the /query request body; graph queries are tiny.
const maxBodyBytes = 1 << 16

// Handler returns the server's HTTP mux:
//
//	POST|GET /query    run a graph query (kind, src, node, k, tenant)
//	POST     /mutate   append one edge-mutation batch (text stream body);
//	                   200 means the batch is WAL-durable and applied
//	GET      /graphz   serving snapshot: epoch, sizes, structural hash,
//	                   mutation-pipeline counters
//	POST     /admin/compact  force fold+gate+swap of the pending delta
//	GET      /healthz  liveness: 200 while the process serves at all
//	GET      /readyz   readiness: 200 after the self-check, 503 once draining
//	GET      /statz    JSON snapshot of the service counters
//	GET      /metrics  Prometheus text exposition: counters, gauges and
//	                   per-tenant/per-kernel latency histograms
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.recoverWrap(s.handleQuery))
	mux.HandleFunc("/mutate", s.recoverWrap(s.handleMutate))
	mux.HandleFunc("/graphz", s.handleGraphz)
	mux.HandleFunc("/admin/compact", s.recoverWrap(s.handleCompact))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.Ready() {
			reason := "self-check pending"
			if s.Draining() {
				reason = "draining"
			}
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// maxRequestIDLen bounds accepted client-supplied X-Request-ID values;
// longer ones are replaced, not truncated, so an ID is never ambiguous.
const maxRequestIDLen = 128

// recoverWrap is the panic-isolation and request-identity middleware. A panic
// anywhere in the request path — including inside a kernel on a path the
// engine's own task recovery does not cover — becomes a typed 500 response,
// never a daemon crash; one request's blowup cannot take down other tenants.
// Every request also gets an X-Request-ID: the client's value is echoed back
// (and carried into the request log and error envelope), or one is generated,
// so a failing request can be correlated across client, log and response.
func (s *Server) recoverWrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > maxRequestIDLen {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(withRequestID(r.Context(), id))
		defer func() {
			if v := recover(); v != nil {
				s.opts.Registry.Add("serve.panics", 1)
				writeError(w, fmt.Errorf("request panicked: %v: %w", v, fault.ErrKernelPanic))
			}
		}()
		h(w, r)
	}
}

// errorBody is the JSON error envelope of every non-200 response.
type errorBody struct {
	Error     string `json:"error"` // stable class, see errClass
	Cause     string `json:"cause"` // human-readable detail
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if retryAfter(status) {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{
		Error:     errClass(err),
		Cause:     err.Error(),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// queryResponse is the JSON shape of a served /query. Kind-specific payload
// fields are pointers so absent ones marshal away.
type queryResponse struct {
	Kind     string  `json:"kind"`
	Src      int32   `json:"src"`
	Path     string  `json:"path"`
	Backend  string  `json:"backend,omitempty"` // kernel backend of the serving attempt
	Level    string  `json:"level"`
	Degraded bool    `json:"degraded"`
	Attempts int     `json:"attempts"`
	TimeMS   float64 `json:"time_ms"`
	WallMS   float64 `json:"wall_ms"`

	Reached    *int32      `json:"reached,omitempty"` // bfs, sssp
	NodeValue  *int32      `json:"value,omitempty"`   // lvl/dist/comp at ?node
	Components *int32      `json:"components,omitempty"`
	TopK       []rankEntry `json:"topk,omitempty"` // pr
}

type rankEntry struct {
	Node int32   `json:"node"`
	Rank float32 `json:"rank"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.ready.Load() {
		writeError(w, ErrNotReady)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
		return
	}
	q, err := ParseQuery(r.URL.RawQuery, body)
	if err != nil {
		s.opts.Registry.Add("serve.rejected_400", 1)
		writeError(w, err)
		return
	}
	res, err := s.Execute(r.Context(), q)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := buildResponse(res)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// buildResponse projects a Result into the wire shape. Whole output arrays
// never leave the server — responses carry aggregates and point lookups, so
// response size is independent of graph size.
func buildResponse(res *Result) *queryResponse {
	q := res.Query
	resp := &queryResponse{
		Kind: q.Kind, Src: q.Src, Path: res.Path, Backend: res.Backend,
		Level:    res.Level.String(),
		Degraded: res.Degraded, Attempts: res.Attempts,
		TimeMS: res.TimeMS, WallMS: res.WallMS,
	}
	switch q.Kind {
	case "bfs", "sssp":
		arr := res.Output.GetI("lvl")
		if q.Kind == "sssp" {
			arr = res.Output.GetI("dist")
		}
		reached := int32(0)
		const inf = int32(1) << 30
		for _, v := range arr {
			if v >= 0 && v < inf {
				reached++
			}
		}
		resp.Reached = &reached
		if q.HasNode && int(q.Node) < len(arr) {
			v := arr[q.Node]
			resp.NodeValue = &v
		}
	case "cc":
		comp := res.Output.GetI("comp")
		seen := make(map[int32]struct{})
		for _, c := range comp {
			seen[c] = struct{}{}
		}
		n := int32(len(seen))
		resp.Components = &n
		if q.HasNode && int(q.Node) < len(comp) {
			v := comp[q.Node]
			resp.NodeValue = &v
		}
	case "pr":
		rank := res.Output.GetF("rank")
		k := q.TopK
		if k > len(rank) {
			k = len(rank)
		}
		idx := make([]int32, len(rank))
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool {
			if rank[idx[a]] != rank[idx[b]] {
				return rank[idx[a]] > rank[idx[b]]
			}
			return idx[a] < idx[b]
		})
		resp.TopK = make([]rankEntry, k)
		for i := 0; i < k; i++ {
			resp.TopK[i] = rankEntry{Node: idx[i], Rank: rank[idx[i]]}
		}
	}
	return resp
}

// handleStatz dumps the counter registry plus live queue depth and the
// trace-ring drop count (observability about the observability: a truncated
// trace must be visible, not silent).
func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	inflight, queued := s.adm.depth()
	snap := s.opts.Registry.Snapshot()
	snap["serve.inflight"] = float64(inflight)
	snap["serve.queued"] = float64(queued)
	snap["trace_dropped"] = float64(s.traceDropped())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
