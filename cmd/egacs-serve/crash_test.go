package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph"
)

// crashPoints enumerates every named point of the mutation pipeline the
// daemon can be SIGKILLed at, with the hit count that lands mid-stream (the
// snapshot points fire once during store creation, so their second hit is the
// compaction-time write).
var crashPoints = []struct {
	name  string
	count int
}{
	{"append-pre-write", 4},
	{"append-pre-sync", 4},
	{"append-post-sync", 4},
	{"applied", 4},
	{"compact-built", 1},
	{"snapshot-written", 2},
	{"snapshot-renamed", 2},
	{"compact-persisted", 1},
	{"rotate", 1},
	{"pruned", 1},
	{"swap", 1},
}

// TestCrashRecoveryAnywhere is the kill-anywhere harness: for every pipeline
// point it boots the real daemon on a fresh WAL directory, streams mutation
// batches at it until the injected SIGKILL lands, restarts the daemon on the
// same directory, and requires the recovered graph to be bit-identical
// (structural hash) to replaying some acked-or-longer prefix of the exact
// batches sent. An acked batch disappearing, a torn batch surviving, or any
// divergence between replay and the delta overlay fails the hash comparison.
func TestCrashRecoveryAnywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery harness skipped in -short mode")
	}
	bin := buildDaemon(t)

	// The daemon's boot graph (-input road -scale test -seed 7), replicated
	// here so expected post-recovery states can be computed locally.
	base, err := graph.Load("", "road", "test", 7)
	if err != nil {
		t.Fatal(err)
	}
	base.SortAdjacency()
	ops, err := graph.GenMutations(base, 7, graph.MutGenOptions{Count: 24, DeleteFrac: 0.25, MaxWeight: 16})
	if err != nil {
		t.Fatal(err)
	}
	const batchOps = 2
	var batches [][]graph.MutOp
	for i := 0; i < len(ops); i += batchOps {
		batches = append(batches, ops[i:i+batchOps])
	}

	// wantHash[k] is the structural hash after folding the first k batches:
	// the complete set of states a crash at any instant may legally recover
	// to (k below the acked count is an isolation violation, checked later).
	wantHash := make([]uint64, len(batches)+1)
	wantHash[0] = graph.Hash(base)
	d := graph.NewDelta(base, 0)
	for k, b := range batches {
		if err := d.Apply(graph.Batch{Seq: uint64(k + 1), Ops: b}); err != nil {
			t.Fatal(err)
		}
		g, err := d.Compact()
		if err != nil {
			t.Fatal(err)
		}
		wantHash[k+1] = graph.Hash(g)
	}

	for _, pt := range crashPoints {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")

			// Phase 1: boot with the injected crashpoint and stream batches
			// until the SIGKILL lands.
			cmd, base1, stderr1 := startDaemon(t, bin, walDir,
				fmt.Sprintf("EGACS_CRASHPOINT=%s:%d", pt.name, pt.count))
			acked := 0
			for _, b := range batches {
				if postBatch(base1, b) != nil {
					break // daemon died mid-request; the batch is unacked
				}
				acked++
			}
			err := waitExit(cmd, 20*time.Second)
			ws, ok := exitSignal(err)
			if !ok || ws != syscall.SIGKILL {
				t.Fatalf("daemon at %s: exit %v (want SIGKILL)\nstderr: %s", pt.name, err, stderr1.String())
			}
			if acked == len(batches) {
				t.Fatalf("crashpoint %s never fired (all %d batches acked)", pt.name, acked)
			}

			// Phase 2: restart on the same directory; recovery must replay to
			// a bit-identical prefix state covering every acked batch.
			cmd2, base2, stderr2 := startDaemon(t, bin, walDir)
			var gz struct {
				Epoch   uint64 `json:"epoch"`
				Hash    string `json:"hash"`
				LastSeq uint64 `json:"last_seq"`
				Pending int    `json:"pending_batches"`
				Torn    int    `json:"torn_tails_repaired"`
			}
			getGraphz(t, base2, &gz)
			recovered := -1
			for k, h := range wantHash {
				if gz.Hash == fmt.Sprintf("%016x", h) {
					recovered = k
					break
				}
			}
			if recovered < 0 {
				t.Fatalf("recovered hash %s matches no batch prefix (acked %d)\nstderr: %s",
					gz.Hash, acked, stderr2.String())
			}
			if recovered < acked {
				t.Fatalf("durability violation: %d batches acked but state replays only %d", acked, recovered)
			}
			if gz.LastSeq != uint64(recovered) {
				t.Errorf("last_seq %d, want %d (the recovered prefix)", gz.LastSeq, recovered)
			}
			if gz.Pending != 0 {
				t.Errorf("boot compaction left %d pending batches", gz.Pending)
			}
			t.Logf("%s: acked %d, recovered %d/%d batches (epoch %d, %d torn tails repaired)",
				pt.name, acked, recovered, len(batches), gz.Epoch, gz.Torn)

			// The recovered daemon keeps working: one more batch, clean drain.
			if err := postBatch(base2, batches[len(batches)-1]); err != nil {
				t.Errorf("post-recovery mutate: %v", err)
			}
			cmd2.Process.Signal(syscall.SIGTERM)
			if err := waitExit(cmd2, 20*time.Second); err != nil {
				t.Errorf("recovered daemon did not drain cleanly: %v\nstderr: %s", err, stderr2.String())
			}
		})
	}
}

// startDaemon boots the built binary on an ephemeral port with mutations
// enabled on walDir, waits for readiness, and returns the running command,
// base URL and captured stderr. Extra env entries (crashpoint injection) are
// appended to the inherited environment.
func startDaemon(t *testing.T, bin, walDir string, extraEnv ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-input", "road", "-scale", "test", "-seed", "7",
		"-wal-dir", walDir, "-compact-every", "3", "-fsync-every", "1",
		"-drain-timeout", "10s",
	)
	cmd.Env = append(os.Environ(), extraEnv...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v\nstderr: %s", err, stderr.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	go io.Copy(io.Discard, stdout)
	base := "http://" + addr
	waitReady(t, base)
	return cmd, base, &stderr
}

// postBatch sends one mutation batch in the text stream format; a nil error
// means the daemon acked it as durable.
func postBatch(base string, ops []graph.MutOp) error {
	var buf bytes.Buffer
	if err := graph.WriteMutations(&buf, ops); err != nil {
		return err
	}
	resp, err := http.Post(base+"/mutate", "text/plain", &buf)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return nil
}

func getGraphz(t *testing.T, base string, out any) {
	t.Helper()
	resp, err := http.Get(base + "/graphz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/graphz: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// waitExit waits for the process with a timeout; it returns cmd.Wait's error.
func waitExit(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("process did not exit within %v", timeout)
	}
}

// exitSignal extracts the terminating signal from a cmd.Wait error.
func exitSignal(err error) (syscall.Signal, bool) {
	ee, ok := err.(*exec.ExitError)
	if !ok {
		return 0, false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() {
		return 0, false
	}
	return ws.Signal(), true
}
