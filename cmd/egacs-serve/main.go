// Command egacs-serve is a long-lived multi-tenant graph-query daemon: it
// loads one graph into a shared read-only CSR and serves concurrent kernel
// queries (BFS/SSSP from arbitrary sources, PageRank top-k, component
// lookups) over HTTP/JSON. Every request runs on a pooled engine through the
// resilient execution chain with its own deadline and budget; admission
// control bounds the work queue with per-tenant caps, and under overload the
// server degrades gracefully instead of falling over: a query that starts
// while others are queued is served by the serial reference instead of the
// verified vector run, and a full queue rejects with 429/503.
//
// Examples:
//
//	egacs-serve -addr :8080 -input road -scale small
//	egacs-serve -addr :8080 -graph web.el -max-inflight 8 -tenant-cap 2
//	egacs-serve -addr :8080 -request-log requests.jsonl
//	egacs-serve -addr :8080 -wal-dir /var/lib/egacs   # accept mutations
//	curl 'localhost:8080/query?kind=bfs&src=0&node=25'
//	curl 'localhost:8080/query?kind=pr&k=10'
//	curl 'localhost:8080/metrics'    # Prometheus text exposition
//	curl -X POST localhost:8080/query -d '{"kind":"sssp","src":3,"tenant":"alice"}'
//	curl -X POST localhost:8080/mutate --data-binary $'+ 0 25 3\n- 7 12\n'
//
// With -wal-dir the daemon accepts streaming edge mutations on POST /mutate:
// each batch is validated, appended to a crash-consistent write-ahead log,
// and acked only once durable. Pending batches fold into a fresh serving
// snapshot by periodic compaction (-compact-every), gated by sentinel-query
// validation; queries keep serving the pinned epoch they started on. On boot
// the daemon replays the log — repairing a torn tail, rejecting corruption
// with typed errors — and recovers bit-identical state after any crash.
//
// SIGINT/SIGTERM triggers a graceful drain: readiness flips, new queries get
// 503, in-flight ones finish (up to -drain-timeout, then their budgets are
// cancelled), and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the bound address is printed)")
		input     = flag.String("input", "road", "generated input family: road|rmat|random")
		scale     = flag.String("scale", "small", "generated input scale: test|small|bench|large")
		graphFile = flag.String("graph", "", "load graph from file instead (binary CSR, edge list or DIMACS .gr)")
		seed      = flag.Uint64("seed", 42, "generator seed")
		machName  = flag.String("machine", "intel", "machine model queries execute on: intel|amd|phi|gpu")
		tasks     = flag.Int("tasks", 0, "engine task count per request (0 = machine default)")
		backend   = flag.String("backend", "auto", "kernel backend for vector attempts: auto|interp (auto prefers generated Go and degrades to the interpreter; responses report which backend served)")

		maxInflight = flag.Int("max-inflight", 4, "concurrently executing queries")
		queueDepth  = flag.Int("queue-depth", 8, "queries allowed to wait for a slot before 503")
		tenantCap   = flag.Int("tenant-cap", 0, "in-flight+queued queries per tenant (0 = max-inflight, -1 = unlimited)")

		reqTimeout = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		maxIters   = flag.Int("max-iters", 1<<20, "iteration budget per pipe loop")
		stallWin   = flag.Int("stall-window", 256, "identical-frontier iterations before non-convergence")
		ckEvery    = flag.Int("checkpoint-every", 16, "checkpoint pipe loops every N iterations (recoverable faults roll back)")

		flipProb   = flag.Float64("flip-inject", 0, "chaos: per-request silent bit-flip probability")
		transProb  = flag.Float64("transient-inject", 0, "chaos: per-request transient-fault probability")
		injectSeed = flag.Uint64("inject-seed", 1, "chaos injector seed (per-request seeds derive from it)")

		walDir       = flag.String("wal-dir", "", "enable mutations: durable store directory (created on first boot, recovered on later ones; -input/-graph only seed the first)")
		compactEvery = flag.Int("compact-every", 64, "fold the delta into a fresh snapshot every N mutation batches (<0 = manual /admin/compact only)")
		fsyncEvery   = flag.Int("fsync-every", 1, "fsync the WAL every N batches (group commit; 1 = every batch durable at ack)")

		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain window before in-flight queries are cancelled")
		metricsOut = flag.String("metrics", "", "write the service counter registry as JSONL to this file on shutdown")
		traceOut   = flag.String("trace", "", "write per-request spans as a Chrome trace-event file on shutdown")
		reqLog     = flag.String("request-log", "", "append one structured JSON line per request to this file (\"-\" = stderr); live Prometheus metrics are always at /metrics")
	)
	flag.Parse()

	m, err := machine.ByName(*machName)
	fail(err)
	be, err := core.ParseBackend(*backend)
	fail(err)

	// With -wal-dir an existing store is the source of truth: its snapshot +
	// replayed WAL define the graph, and -input/-graph only seed a first boot.
	var store *graph.MutStore
	var g *graph.CSR
	if *walDir != "" && storeExists(*walDir) {
		store, err = graph.OpenMutStore(*walDir, graph.StoreOptions{FsyncEvery: *fsyncEvery})
		fail(err)
		g = store.Delta().Base()
		st := store.Stats()
		fmt.Fprintf(os.Stderr,
			"egacs-serve: recovered %s: epoch %d, seq %d, replayed %d batches (%d torn tails repaired, %d pending)\n",
			*walDir, st.Epoch, st.LastSeq, st.Replayed, st.Truncated, st.Pending)
	} else {
		g, err = graph.Load(*graphFile, *input, *scale, *seed)
		fail(err)
		g.SortAdjacency()
		if *walDir != "" {
			fail(os.MkdirAll(*walDir, 0o755))
			store, err = graph.CreateMutStore(*walDir, g, graph.StoreOptions{FsyncEvery: *fsyncEvery})
			fail(err)
			g = store.Delta().Base()
			fmt.Fprintf(os.Stderr, "egacs-serve: created mutation store %s\n", *walDir)
		}
	}

	opts := serve.Options{
		Store:           store,
		CompactEvery:    *compactEvery,
		Machine:         m,
		Tasks:           *tasks,
		Backend:         be,
		MaxInflight:     *maxInflight,
		MaxQueue:        *queueDepth,
		TenantCap:       *tenantCap,
		RequestTimeout:  *reqTimeout,
		MaxIters:        *maxIters,
		StallWindow:     *stallWin,
		CheckpointEvery: *ckEvery,
		InjectSeed:      *injectSeed,
	}
	if *flipProb > 0 || *transProb > 0 {
		opts.Inject = &fault.InjectorConfig{BitFlip: *flipProb, Transient: *transProb}
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 18)
		opts.Trace = tracer
	}
	var logFile *os.File
	switch *reqLog {
	case "":
	case "-":
		opts.RequestLog = os.Stderr
	default:
		logFile, err = os.OpenFile(*reqLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fail(err)
		opts.RequestLog = logFile
	}

	s, err := serve.New(g, opts)
	fail(err)

	fmt.Fprintf(os.Stderr, "egacs-serve: graph %s (%d nodes, %d edges) on %s, self-check...\n",
		g.Name, g.NumNodes(), g.NumEdges(), m.Name)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = s.SelfCheck(ctx)
	cancel()
	fail(err)

	// Fold batches replayed from the WAL into the serving snapshot before
	// taking traffic, so a recovered daemon serves (and /graphz reports) the
	// full acked state, not the last compacted epoch.
	if store != nil && store.Stats().Pending > 0 {
		cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
		epoch, err := s.Compact(cctx)
		ccancel()
		fail(err)
		fmt.Fprintf(os.Stderr, "egacs-serve: boot compaction folded replayed batches, epoch %d\n", epoch)
	}

	// Catch SIGTERM before the readiness handshake: a signal sent the instant
	// the listen line is read must drain the daemon, not kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	fail(err)
	// The bound address on stdout is the daemon's readiness handshake: with
	// -addr :0 the harness reads the ephemeral port from here.
	fmt.Printf("listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "egacs-serve: %v, draining (timeout %v)\n", got, *drainTO)
	case err := <-serveErr:
		fail(err)
	}

	// Drain: stop admitting, let in-flight queries finish, hard-stop
	// stragglers via their budget contexts, then close the listener.
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTO)
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "egacs-serve: %v\n", err)
	}
	dcancel()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "egacs-serve: shutdown: %v\n", err)
	}
	scancel()

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		fail(err)
		fail(s.Registry().WriteJSONL(f))
		fail(f.Close())
	}
	if tracer != nil {
		fail(tracer.WriteFile(*traceOut))
	}
	if logFile != nil {
		fail(logFile.Close())
	}
	if store != nil {
		fail(store.Close())
	}
	fmt.Fprintln(os.Stderr, "egacs-serve: drained, bye")
}

// storeExists reports whether dir already holds a mutation store (its
// snapshot file is the marker — an empty or absent dir means first boot).
func storeExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "snapshot.bin"))
	return err == nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "egacs-serve:", err)
		os.Exit(1)
	}
}
