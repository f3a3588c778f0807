package serve

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// Options configures a Server. The zero value serves with sane defaults:
// Intel machine model, 2 concurrent requests per core-slot equivalents, a
// bounded queue twice that deep, graceful degradation at 50%/80% occupancy.
type Options struct {
	// Machine is the hardware model queries execute on (default Intel8).
	Machine *machine.Config
	// Tasks is the engine launch width per request (default the machine's).
	Tasks int
	// Backend selects the kernel backend for vector attempts (default auto:
	// generated Go where available, interpreter otherwise). The backend that
	// actually served is reported per response.
	Backend core.Backend

	// MaxInflight bounds concurrently executing requests (default 4).
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot (default 2*MaxInflight).
	MaxQueue int
	// TenantCap bounds in-flight+queued requests per tenant (default
	// MaxInflight, so one tenant can saturate execution but not the queue;
	// negative disables).
	TenantCap int

	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration
	// MaxIters/MaxCycles/StallWindow populate each request's fault.Budget
	// (defaults: 1<<20 iterations, stall window 256, cycles uncapped).
	MaxIters    int
	MaxCycles   float64
	StallWindow int

	// CheckpointEvery/MaxRollbacks arm checkpoint-rollback recovery on the
	// vector attempts (default: every 16 iterations, 3 rollbacks).
	CheckpointEvery int
	MaxRollbacks    int

	// ShedVerifyAt and ScalarAt are the occupancy fractions where the
	// degradation ladder engages (defaults 0.5 and 0.8; see levelFor).
	ShedVerifyAt float64
	ScalarAt     float64

	// Inject arms per-request fault injection for chaos testing: every
	// request gets its own deterministic injector derived from InjectSeed
	// and a request counter. Nil serves faultlessly.
	Inject     *fault.InjectorConfig
	InjectSeed uint64

	// Registry collects service counters (default a fresh one; read it via
	// Server.Registry).
	Registry *obs.Registry
	// Trace, when set, records one span per request on the host clock.
	// The server serializes access — obs.Tracer itself is single-writer.
	Trace *obs.Tracer
	// RequestLog, when set, receives one structured JSON line per executed
	// request (request ID, tenant, kernel, backend, status, modeled cycles,
	// rollbacks, degradation rung). Lines are serialized; the writer need not
	// be concurrency-safe.
	RequestLog io.Writer

	// Store, when set, enables the mutation pipeline: /mutate appends to its
	// WAL, and compaction folds the accumulated delta into the next serving
	// snapshot. The server owns the store's delta lifecycle from then on.
	Store *graph.MutStore
	// CompactEvery triggers automatic compaction once that many batches are
	// pending (default 64; negative disables auto-compaction — explicit
	// Compact calls only).
	CompactEvery int
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = machine.Intel8()
	}
	if o.Tasks == 0 {
		o.Tasks = o.Machine.DefaultTasks
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.MaxInflight
	}
	switch {
	case o.TenantCap < 0:
		o.TenantCap = 0 // disabled
	case o.TenantCap == 0:
		o.TenantCap = o.MaxInflight
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxIters == 0 {
		o.MaxIters = 1 << 20
	}
	if o.StallWindow == 0 {
		o.StallWindow = 256
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 16
	}
	if o.MaxRollbacks == 0 {
		o.MaxRollbacks = 3
	}
	if o.ShedVerifyAt == 0 {
		o.ShedVerifyAt = 0.5
	}
	if o.ScalarAt == 0 {
		o.ScalarAt = 0.8
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 64
	}
	return o
}

// Server executes queries against an immutable graph snapshot on pooled
// per-request engines. It is safe for concurrent use. Each snapshot's CSR is
// never mutated — engines allocate all writable state privately, and fault
// injection (when armed) only ever targets engine-allocated arrays, so one
// tenant's faults cannot corrupt what other tenants read.
//
// With a mutation store attached, the served snapshot advances by epoch:
// mutations accumulate in a WAL-backed delta overlay, and compaction folds
// them into the next snapshot, which replaces the current one atomically
// after a validation gate. In-flight queries pin the snapshot they started
// on, so a swap mid-query is invisible to them.
type Server struct {
	opts Options
	snap atomic.Pointer[snapshot] // the currently-served epoch

	// mutMu serializes the mutation pipeline: WAL appends, compaction and
	// the snapshot swap. Queries never take it.
	mutMu    sync.Mutex
	store    *graph.MutStore
	prState  *kernels.PRDeltaState  // incremental pr-delta sentinel state
	gateHook func(*graph.CSR) error // test seam: extra compaction-gate check

	adm     *admission
	engines sync.Pool // *spmd.Engine, reused across requests via core.Config.Engine

	reqSeq atomic.Uint64 // per-request injector seed derivation
	ready  atomic.Bool

	// lifeMu guards the drain lifecycle: the draining flag and the in-flight
	// count change together, so a request can never slip in after Drain
	// decided the server is idle (a bare WaitGroup would race Add against
	// Wait here).
	lifeMu    sync.Mutex
	inflightN int
	idleCh    chan struct{} // non-nil while Drain waits; closed at zero
	drainingB bool

	rootCtx  context.Context // done => hard-stop: cancel in-flight budgets
	rootStop context.CancelFunc

	traceMu sync.Mutex
	logMu   sync.Mutex // serializes request-log lines

	// latency holds per-{tenant, kernel} request-latency histograms; qdepth
	// the admission-queue depth sampled at each arrival. Both feed /metrics.
	latency *labeledHist
	qdepth  *obs.Histogram

	idBase string        // process-unique prefix for generated request IDs
	idSeq  atomic.Uint64 // sequence for generated request IDs
}

// New builds a Server for g. The graph must outlive the server and must not
// be mutated while serving — all mutation flows through the attached store,
// which produces fresh snapshots rather than editing served ones. When
// Options.Store is set, g must be the store's base graph (pass
// store.Delta().Base()). Readiness requires SelfCheck.
func New(g *graph.CSR, opts Options) (*Server, error) {
	if g == nil || g.NumNodes() <= 0 {
		return nil, fmt.Errorf("serve: nil or empty graph")
	}
	o := opts.withDefaults()
	s := &Server{
		opts:    o,
		store:   o.Store,
		adm:     newAdmission(o.MaxInflight, o.MaxQueue, o.TenantCap),
		latency: newLabeledHist(latencyBoundsMS),
		qdepth:  obs.NewHistogram(queueDepthBounds),
		idBase:  strconv.FormatInt(time.Now().UnixNano(), 36),
	}
	epoch := uint64(1)
	if s.store != nil {
		if s.store.Delta().Base() != g {
			return nil, fmt.Errorf("serve: graph is not the mutation store's base")
		}
		epoch = s.store.Epoch()
	}
	s.snap.Store(newSnapshot(g, epoch))
	s.engines.New = func() any {
		return spmd.New(o.Machine, o.Machine.PreferredTarget, o.Tasks)
	}
	s.rootCtx, s.rootStop = context.WithCancel(context.Background())
	return s, nil
}

// Registry exposes the service counters.
func (s *Server) Registry() *obs.Registry { return s.opts.Registry }

// Graph returns the currently-served graph snapshot's CSR.
func (s *Server) Graph() *graph.CSR { return s.snap.Load().g }

// Epoch returns the currently-served snapshot epoch.
func (s *Server) Epoch() uint64 { return s.snap.Load().epoch }

// SelfCheck runs one verified BFS from node 0 through the full execution
// path and flips the server ready on success. Serving before a passing
// self-check returns 503 from /query and /readyz.
func (s *Server) SelfCheck(ctx context.Context) error {
	q := &Query{Kind: "bfs", Src: 0, Node: -1, TopK: defaultTopK, Tenant: "self-check"}
	if _, err := s.Execute(ctx, q); err != nil {
		return fmt.Errorf("serve: self-check: %w", err)
	}
	s.ready.Store(true)
	return nil
}

// Ready reports whether the server passed its self-check and is not
// draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.Draining() }

// Draining reports whether the server has stopped admitting new queries.
func (s *Server) Draining() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.drainingB
}

// BeginDrain stops admitting new queries; in-flight ones keep running.
func (s *Server) BeginDrain() {
	s.lifeMu.Lock()
	s.drainingB = true
	s.lifeMu.Unlock()
}

// beginRequest registers one query with the drain lifecycle; it fails once
// draining so admission-after-drain is impossible by construction.
func (s *Server) beginRequest() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.drainingB {
		return ErrDraining
	}
	s.inflightN++
	return nil
}

func (s *Server) endRequest() {
	s.lifeMu.Lock()
	s.inflightN--
	if s.inflightN == 0 && s.idleCh != nil {
		close(s.idleCh)
		s.idleCh = nil
	}
	s.lifeMu.Unlock()
}

// Drain performs graceful shutdown: new work is rejected immediately,
// in-flight queries get until ctx expires to finish, then their budgets are
// cancelled — the pipe-loop watchdog stops them mid-kernel with a typed
// deadline error. Drain returns when every query has exited.
func (s *Server) Drain(ctx context.Context) error {
	s.lifeMu.Lock()
	s.drainingB = true
	if s.inflightN == 0 {
		s.lifeMu.Unlock()
		s.rootStop()
		return nil
	}
	if s.idleCh == nil {
		s.idleCh = make(chan struct{})
	}
	idle := s.idleCh
	s.lifeMu.Unlock()

	select {
	case <-idle:
		s.rootStop()
		return nil
	case <-ctx.Done():
		s.rootStop() // hard-stop survivors via their budget contexts
		<-idle
		return fmt.Errorf("serve: drain deadline expired; in-flight queries cancelled: %w", ctx.Err())
	}
}

// Result is one served query: the response payload plus serving metadata.
type Result struct {
	Query    *Query
	Level    Level
	Epoch    uint64 // snapshot epoch the query executed against
	Path     string // which execution path served ("vector", "vector-retry" or "reference")
	Backend  string // kernel backend of the serving attempt ("" for the reference)
	Degraded bool
	Attempts int     // failed attempts before the serving one
	TimeMS   float64 // modeled kernel time (0 for the reference)
	Cycles   float64 // modeled cycles of the serving attempt (0 for the reference)
	WallMS   float64
	Output   *kernels.RunOutput
	Recovery kernels.RecoveryCounts
}

// Execute runs one parsed query end to end: admission, degradation-level
// selection, pooled-engine execution through the resilient chain, release.
// It is the transport-independent core of the /query handler (tests drive it
// directly). Telemetry invariant: the latency histogram records exactly one
// observation per Execute — on every path, including rejections — so its
// total count equals the serve.requests counter.
func (s *Server) Execute(ctx context.Context, q *Query) (out *Result, err error) {
	reg := s.opts.Registry
	reg.Add("serve.requests", 1)
	arrival := time.Now()
	defer func() {
		ms := float64(time.Since(arrival).Microseconds()) / 1e3
		s.latency.observe(q.Tenant, q.Kernel(), ms)
		s.logRequest(ctx, q, out, err, ms)
	}()

	// Pin the serving snapshot for the whole request: a compaction swap
	// mid-query must be invisible — every read this query performs sees one
	// epoch's graph.
	sn := s.snap.Load()
	sn.pin()
	defer sn.unpin()

	if err := q.Validate(sn.g.NumNodes()); err != nil {
		reg.Add("serve.rejected_400", 1)
		return nil, err
	}
	b, err := kernels.ByName(q.Kernel())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	if err := s.beginRequest(); err != nil {
		reg.Add("serve.rejected_503", 1)
		return nil, err
	}
	defer s.endRequest()

	// Admission: the wait in the bounded queue is covered by the request
	// deadline; a client that gives up waiting frees its queue slot.
	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()
	// Hard-stop path: a drain deadline cancels in-flight requests too.
	stop := context.AfterFunc(s.rootCtx, cancel)
	defer stop()

	// Arrival-sampled queue depth: what this request saw when it showed up.
	_, arrivalQueued := s.adm.depth()
	s.qdepth.Observe(float64(arrivalQueued))

	if err := s.adm.acquire(ctx, q.Tenant); err != nil {
		switch {
		case err == ErrTenantLimit:
			reg.Add("serve.rejected_429", 1)
		case err == ErrQueueFull:
			reg.Add("serve.rejected_503", 1)
		default: // ctx expired while queued
			reg.Add("serve.timeout_queued", 1)
			err = &fault.BudgetError{Resource: "deadline", Cause: err}
		}
		return nil, err
	}
	defer s.adm.release(q.Tenant)

	// Pick the degradation rung from occupancy at execution start.
	level := levelFor(s.adm.load(), s.opts.ShedVerifyAt, s.opts.ScalarAt)
	switch level {
	case LevelShedVerify:
		reg.Add("serve.shed_verify", 1)
	case LevelScalar:
		reg.Add("serve.scalar_forced", 1)
	}

	g := sn.g
	if b.NeedsSymmetric {
		g = sn.symmetrized()
	}

	cfg := core.Config{
		Machine:          s.opts.Machine,
		Tasks:            s.opts.Tasks,
		Backend:          s.opts.Backend,
		Src:              q.Src,
		Budget:           fault.Budget{MaxIters: s.opts.MaxIters, MaxCycles: s.opts.MaxCycles, StallWindow: s.opts.StallWindow},
		CheckpointEvery:  s.opts.CheckpointEvery,
		MaxRollbacks:     s.opts.MaxRollbacks,
		VerifyInvariants: true,
	}
	if s.opts.Inject != nil {
		// Deterministic per-request injector: same seed + same request
		// sequence reproduces the same fault trace.
		cfg.Inject = fault.NewInjector(s.opts.InjectSeed+s.reqSeq.Add(1), *s.opts.Inject)
	}
	if level != LevelScalar {
		// Pooled engine for the vector path; the reference touches none.
		e, _ := s.engines.Get().(*spmd.Engine)
		cfg.Engine = e
		defer s.engines.Put(e)
	}

	start := time.Now()
	var res *kernels.ResilientResult
	switch level {
	case LevelNormal:
		res, err = core.RunResilientVerifiedCtx(ctx, b, g, cfg)
	case LevelShedVerify:
		res, err = core.RunResilientCtx(ctx, b, g, cfg)
	default:
		res, err = core.RunReference(ctx, b, g, cfg)
	}
	wallMS := float64(time.Since(start).Microseconds()) / 1e3
	s.span(q, wallMS, err)

	if err != nil {
		reg.Add("serve.errors", 1)
		reg.Add("serve.err."+errClass(err), 1)
		return nil, err
	}

	out = &Result{
		Query:    q,
		Level:    level,
		Epoch:    sn.epoch,
		Path:     res.Path,
		Backend:  res.ServingBackend(),
		Degraded: res.Degraded(),
		Attempts: len(res.Errors()),
		WallMS:   wallMS,
		Output:   res.Output,
		Recovery: res.TotalRecovery(),
	}
	for _, a := range res.History {
		if a.Err == nil && a.Cycles > 0 {
			out.Cycles = a.Cycles
			out.TimeMS = s.opts.Machine.CyclesToNS(a.Cycles) / 1e6
		}
	}
	reg.Add("serve.ok", 1)
	if out.Degraded {
		reg.Add("serve.degraded", 1)
	}
	if out.Recovery.Rollbacks > 0 {
		reg.Add("serve.rollbacks", float64(out.Recovery.Rollbacks))
	}
	if out.Recovery.BadCheckpoints > 0 {
		reg.Add("serve.corruption_detected", float64(out.Recovery.BadCheckpoints))
	}
	inflight, queued := s.adm.depth()
	reg.Observe("serve.inflight", float64(inflight))
	reg.Observe("serve.queued", float64(queued))
	return out, nil
}

// span records one per-request trace span; the mutex makes the single-writer
// Tracer safe under concurrent requests.
func (s *Server) span(q *Query, wallMS float64, err error) {
	t := s.opts.Trace
	if t == nil {
		return
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	ts := t.HostNow() - wallMS*1e3
	t.CompleteArg(90, 0, "query:"+q.Kind, ts, wallMS*1e3, "status", int64(statusFor(err)))
}
