package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// newMutTestServer builds a ready Server over a fresh mutation store.
func newMutTestServer(t *testing.T, opts Options) (*Server, *graph.MutStore, *httptest.Server) {
	t.Helper()
	g := graph.Random(200, 1200, 16, 21)
	g.SortAdjacency()
	store, err := graph.CreateMutStore(filepath.Join(t.TempDir(), "store"), g, graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	opts.Store = store
	s, err := New(store.Delta().Base(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, store, ts
}

func TestMutateAppliesAndCompacts(t *testing.T) {
	s, store, _ := newMutTestServer(t, Options{CompactEvery: -1})
	ctx := context.Background()
	if s.Epoch() != 1 {
		t.Fatalf("boot epoch %d", s.Epoch())
	}
	res, err := s.Mutate(ctx, []graph.MutOp{
		{Op: graph.OpInsert, Src: 0, Dst: 5, W: 2},
		{Op: graph.OpDelete, Src: 1, Dst: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || res.Ops != 2 || res.Epoch != 1 || res.Pending != 1 {
		t.Fatalf("mutate result %+v", res)
	}
	// The served graph is still the old snapshot until compaction.
	before := graph.Hash(s.Graph())
	epoch, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("epoch after compaction: %d / %d", epoch, s.Epoch())
	}
	if graph.Hash(s.Graph()) == before {
		t.Fatal("compaction did not swap the snapshot")
	}
	// The swapped graph equals the delta fold of the acked ops.
	want, err := store.Delta().Compact()
	if err != nil {
		t.Fatal(err)
	}
	if graph.Hash(s.Graph()) != graph.Hash(want) {
		t.Fatal("served snapshot diverges from the folded delta")
	}
	// Compacting with nothing pending is a no-op at the same epoch.
	if epoch, err := s.Compact(ctx); err != nil || epoch != 2 {
		t.Fatalf("idle compaction: epoch=%d err=%v", epoch, err)
	}
}

func TestMutateAutoCompaction(t *testing.T) {
	s, _, _ := newMutTestServer(t, Options{CompactEvery: 3})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := s.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: int32(i), Dst: int32(i + 1), W: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && res.Compacted {
			t.Fatalf("batch %d compacted early", i)
		}
		if i == 2 && (!res.Compacted || res.Epoch != 2 || res.Pending != 0) {
			t.Fatalf("third batch should auto-compact: %+v", res)
		}
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after auto-compaction", s.Epoch())
	}
}

func TestMutateDisabledAndInvalid(t *testing.T) {
	s, _ := newTestServer(t, Options{}) // no store
	ctx := context.Background()
	if _, err := s.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: 0, Dst: 1, W: 1}}); !errors.Is(err, ErrMutationsDisabled) {
		t.Fatalf("disabled: err = %v", err)
	}
	if _, err := s.Compact(ctx); !errors.Is(err, ErrMutationsDisabled) {
		t.Fatalf("disabled compact: err = %v", err)
	}

	ms, _, _ := newMutTestServer(t, Options{})
	if _, err := ms.Mutate(ctx, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch: err = %v", err)
	}
	if _, err := ms.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: 0, Dst: 99999, W: 1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range op: err = %v", err)
	}
	if got := ms.MutStats(); got.Appends != 0 {
		t.Fatalf("rejected mutations reached the WAL: %+v", got)
	}
}

// TestMutateOversizedBatchRejected pins the durability/replay agreement at
// the serving layer: a batch above the WAL record limit is a 400-class
// rejection BEFORE anything is logged — acking it would write a record that
// replay refuses, bricking every later boot.
func TestMutateOversizedBatchRejected(t *testing.T) {
	s, store, _ := newMutTestServer(t, Options{CompactEvery: -1})
	n := s.Graph().NumNodes()
	ops := make([]graph.MutOp, graph.MaxWALBatchOps+1)
	for i := range ops {
		ops[i] = graph.MutOp{Op: graph.OpInsert, Src: int32(i) % n, Dst: int32(i/int(n)) % n, W: 1}
	}
	_, err := s.Mutate(context.Background(), ops)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized batch: err = %v, want ErrBadRequest", err)
	}
	if st := store.Stats(); st.Appends != 0 || st.WALBytes != 0 {
		t.Fatalf("oversized batch reached the WAL: %+v", st)
	}
	// The store still takes normal batches afterwards.
	if res, err := s.Mutate(context.Background(), ops[:4]); err != nil || res.Seq != 1 {
		t.Fatalf("append after oversized rejection: res=%+v err=%v", res, err)
	}
}

// TestMutateDurableIndicator checks the group-commit ack contract surfaced
// to clients: under FsyncEvery=N only every Nth batch is acked synced, and
// the MutateResult reports which side of the fsync the ack landed on.
func TestMutateDurableIndicator(t *testing.T) {
	g := graph.Random(64, 256, 8, 11)
	g.SortAdjacency()
	store, err := graph.CreateMutStore(filepath.Join(t.TempDir(), "store"), g, graph.StoreOptions{FsyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s, err := New(store.Delta().Base(), Options{Store: store, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, wantDurable := range []bool{false, true, false, true} {
		res, err := s.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: int32(i), Dst: int32(i + 1), W: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Durable != wantDurable {
			t.Fatalf("batch %d: Durable = %v, want %v", res.Seq, res.Durable, wantDurable)
		}
	}
}

func TestCompactGateFailureRollsBack(t *testing.T) {
	s, store, _ := newMutTestServer(t, Options{CompactEvery: -1})
	ctx := context.Background()
	if _, err := s.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: 2, Dst: 3, W: 1}}); err != nil {
		t.Fatal(err)
	}
	oldG := s.Graph()
	gateErr := errors.New("sentinel divergence")
	s.gateHook = func(*graph.CSR) error { return gateErr }
	_, err := s.Compact(ctx)
	if !errors.Is(err, ErrGateFailed) {
		t.Fatalf("gate failure: err = %v, want ErrGateFailed", err)
	}
	if s.Graph() != oldG || s.Epoch() != 1 {
		t.Fatal("failed gate swapped the snapshot anyway")
	}
	if st := store.Stats(); st.Pending != 1 || st.Epoch != 1 {
		t.Fatalf("failed gate mutated the store: %+v", st)
	}
	// Clearing the hook lets the same pending delta compact cleanly — the
	// WAL kept everything.
	s.gateHook = nil
	if epoch, err := s.Compact(ctx); err != nil || epoch != 2 {
		t.Fatalf("retry after gate failure: epoch=%d err=%v", epoch, err)
	}
	// Queries on the new epoch still pass through the normal path.
	if _, err := s.Execute(ctx, &Query{Kind: "bfs", Src: 0, Node: -1, TopK: 3, Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactErrorClassification splits the two compaction failure channels:
// a gate rejection is ErrGateFailed and counts as a gate failure, while a
// non-validation abort (here: the request's context already cancelled) must
// be neither — the gate-failure signal stays clean for chaos monitors.
func TestCompactErrorClassification(t *testing.T) {
	s, _, _ := newMutTestServer(t, Options{CompactEvery: -1})
	ctx := context.Background()
	if _, err := s.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: 2, Dst: 3, W: 1}}); err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := s.Compact(cancelled)
	if err == nil || errors.Is(err, ErrGateFailed) {
		t.Fatalf("cancelled compaction: err = %v, want a non-gate error", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compaction: err = %v, want context.Canceled", err)
	}
	if gf, _ := s.Registry().Get("serve.mut.gate_failures"); gf != 0 {
		t.Fatalf("cancellation counted as a gate failure (%v)", gf)
	}
	if io, _ := s.Registry().Get("serve.mut.compact_io_errors"); io != 1 {
		t.Fatalf("serve.mut.compact_io_errors = %v, want 1", io)
	}

	s.gateHook = func(*graph.CSR) error { return errors.New("sentinel divergence") }
	if _, err := s.Compact(ctx); !errors.Is(err, ErrGateFailed) {
		t.Fatalf("gate rejection: err = %v, want ErrGateFailed", err)
	}
	if gf, _ := s.Registry().Get("serve.mut.gate_failures"); gf != 1 {
		t.Fatalf("serve.mut.gate_failures = %v, want 1", gf)
	}
	if io, _ := s.Registry().Get("serve.mut.compact_io_errors"); io != 1 {
		t.Fatalf("gate rejection leaked into compact_io_errors (%v)", io)
	}
}

// TestSnapshotIsolationDifferential is the -race isolation proof: concurrent
// queries during sustained mutation and compaction must each return output
// valid for SOME pinned epoch — checked differentially against a frozen copy
// of that epoch's graph captured at swap time.
func TestSnapshotIsolationDifferential(t *testing.T) {
	s, _, _ := newMutTestServer(t, Options{CompactEvery: -1, MaxInflight: 8, MaxQueue: 64})
	ctx := context.Background()

	// Frozen per-epoch graph copies (epoch 1 = boot graph). The map is only
	// written by the mutator goroutine, under mu. Each epoch is recorded at
	// the compaction gate, before the swap: recording it after Compact
	// returned let a reader finish a query on the new epoch first.
	var mu sync.Mutex
	frozen := map[uint64]*graph.CSR{1: s.Graph()}
	s.gateHook = func(folded *graph.CSR) error {
		mu.Lock()
		frozen[s.Epoch()+1] = folded
		mu.Unlock()
		return nil
	}

	ops, err := graph.GenMutations(s.Graph(), 99, graph.MutGenOptions{Count: 240, DeleteFrac: 0.3, MaxWeight: 16})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator: append batches, compact every few, freeze each epoch
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(ops); i += 8 {
			if _, err := s.Mutate(ctx, ops[i:i+8]); err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
			if (i/8)%3 == 2 {
				if _, err := s.Compact(ctx); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()

	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := int32(r * 7)
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := s.Execute(ctx, &Query{Kind: "bfs", Src: src, Node: -1, TopK: 3, Tenant: fmt.Sprintf("r%d", r)})
				if err != nil {
					// Admission rejections under load are fine; isolation
					// violations are not.
					continue
				}
				mu.Lock()
				eg := frozen[res.Epoch]
				mu.Unlock()
				if eg == nil {
					t.Errorf("query served epoch %d with no frozen copy", res.Epoch)
					return
				}
				want := kernels.RefBFS(eg, src)
				got := res.Output.GetI("lvl")
				if len(got) != len(want) {
					t.Errorf("epoch %d: lvl length %d vs %d", res.Epoch, len(got), len(want))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("epoch %d: lvl[%d] = %d, frozen-copy reference %d — query saw a torn snapshot",
							res.Epoch, i, got[i], want[i])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if s.Epoch() < 2 {
		t.Fatal("test never advanced an epoch; isolation was not exercised")
	}
}

func TestMutateHTTP(t *testing.T) {
	s, _, ts := newMutTestServer(t, Options{CompactEvery: -1})

	// Accept a batch in the shared text format.
	resp, err := http.Post(ts.URL+"/mutate", "text/plain", strings.NewReader("+ 0 5 2\n- 1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	var mr mutateResponse
	json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Seq != 1 || mr.Ops != 2 || !mr.Durable {
		t.Fatalf("mutate: status=%d body=%+v", resp.StatusCode, mr)
	}

	// Malformed op → 400 with the standard envelope.
	resp, err = http.Post(ts.URL+"/mutate", "text/plain", strings.NewReader("* nope\n"))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error != "bad-request" {
		t.Fatalf("bad mutate: status=%d body=%+v", resp.StatusCode, eb)
	}

	// GET is not allowed.
	resp, _ = http.Get(ts.URL + "/mutate")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate: %d", resp.StatusCode)
	}

	// /graphz before compaction: epoch 1, one pending batch.
	var gz graphzResponse
	if code := getJSON(t, ts.URL+"/graphz", &gz); code != http.StatusOK {
		t.Fatalf("/graphz: %d", code)
	}
	if gz.Epoch != 1 || gz.Pending != 1 || !gz.Mutations || gz.LastSeq != 1 {
		t.Fatalf("/graphz: %+v", gz)
	}
	wantHash := fmt.Sprintf("%016x", graph.Hash(s.Graph()))
	if gz.Hash != wantHash {
		t.Fatalf("/graphz hash %s, want %s", gz.Hash, wantHash)
	}

	// Force compaction over HTTP; epoch advances and /graphz agrees.
	resp, err = http.Post(ts.URL+"/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Epoch uint64 `json:"epoch"`
	}
	json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.Epoch != 2 {
		t.Fatalf("/admin/compact: status=%d epoch=%d", resp.StatusCode, cr.Epoch)
	}
	var gz2 graphzResponse // fresh: omitempty fields would survive a reused decode
	if code := getJSON(t, ts.URL+"/graphz", &gz2); code != http.StatusOK || gz2.Epoch != 2 || gz2.Pending != 0 {
		t.Fatalf("/graphz after compact: code=%d %+v", code, gz2)
	}
}

func TestMutateHTTPDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/mutate", "text/plain", strings.NewReader("+ 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/mutate without store: %d", resp.StatusCode)
	}
	if !strings.Contains(eb.Cause, "mutations disabled") {
		t.Fatalf("cause %q", eb.Cause)
	}
	// /graphz still works on a static server.
	var gz graphzResponse
	if code := getJSON(t, ts.URL+"/graphz", &gz); code != http.StatusOK || gz.Mutations {
		t.Fatalf("/graphz static: code=%d %+v", code, gz)
	}
}

func TestMutationMetricsAndRequestLog(t *testing.T) {
	var logBuf bytes.Buffer
	s, _, ts := newMutTestServer(t, Options{CompactEvery: -1, RequestLog: &logBuf})
	ctx := context.Background()
	if _, err := s.Mutate(ctx, []graph.MutOp{{Op: graph.OpInsert, Src: 0, Dst: 9, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(ctx, &Query{Kind: "bfs", Src: 0, Node: -1, TopK: 3, Tenant: "t"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(raw)
	for _, want := range []string{
		"egacs_mut_epoch 2",
		"egacs_mut_pinned_snapshots 0",
		"egacs_mut_wal_bytes",
		"egacs_mut_pending_batches 0",
		"egacs_mut_last_seq 1",
		"egacs_mut_replayed_batches_total 0",
		"egacs_mut_torn_tails_repaired_total 0",
		"egacs_serve_mut_applied_total 1",
		"egacs_serve_mut_ops_total 1",
		"egacs_serve_mut_compactions_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The request log line for the query carries the epoch it ran against.
	line := logBuf.String()
	if !strings.Contains(line, `"epoch":2`) {
		t.Fatalf("request log missing epoch: %s", line)
	}
}
