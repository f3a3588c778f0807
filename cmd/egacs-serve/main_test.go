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
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestServeSmoke is the end-to-end daemon check: build the real binary, boot
// it on an ephemeral port, hit it from concurrent clients with mixed query
// kinds, then SIGTERM it and require a clean graceful drain (exit 0). This is
// the `make serve-smoke` target.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test skipped in -short mode")
	}
	bin := buildDaemon(t)

	metrics := filepath.Join(t.TempDir(), "metrics.jsonl")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-input", "road", "-scale", "test",
		"-max-inflight", "4", "-queue-depth", "8",
		"-flip-inject", "0.01", "-transient-inject", "0.01",
		"-metrics", metrics,
		"-wal-dir", filepath.Join(t.TempDir(), "wal"), "-compact-every", "4",
		"-drain-timeout", "10s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The bound address is the readiness handshake on stdout.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v\nstderr: %s", err, stderr.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	base := "http://" + addr
	go io.Copy(io.Discard, stdout)

	waitReady(t, base)

	const clients = 8
	kinds := []string{
		"/query?kind=bfs&src=0&node=12",
		"/query?kind=sssp&src=3",
		"/query?kind=pr&k=5",
		"/query?kind=cc&node=7",
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(kinds)+16)

	// One writer mutates the graph while the query clients run: every batch
	// must ack durable, and the compactions it trips must never disturb an
	// in-flight query (those hold their pinned snapshot).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			body := fmt.Sprintf("+ %d %d %d\n- %d %d\n", i, i+1, i%7+1, i, i+1)
			resp, err := http.Post(base+"/mutate", "text/plain", strings.NewReader(body))
			if err != nil {
				errs <- fmt.Errorf("mutator batch %d: %v", i, err)
				return
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("mutator batch %d: status %d body %s", i, resp.StatusCode, payload)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range kinds {
				url := fmt.Sprintf("%s%s&tenant=client%d", base, q, c)
				resp, err := http.Get(url)
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var m map[string]any
					if err := json.Unmarshal(body, &m); err != nil {
						errs <- fmt.Errorf("client %d: bad JSON %q: %v", c, body, err)
						return
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusUnprocessableEntity:
					// legal under load / injected faults
				default:
					errs <- fmt.Errorf("client %d: status %d body %s", c, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not drain within 30s\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("expected drain message in stderr, got: %s", stderr.String())
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics file not written: %v", err)
	}
}

// buildDaemon builds the real egacs-serve binary into a test temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "egacs-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// TestSIGTERMAtReadiness sends SIGTERM the instant the readiness line is read,
// over many boots, and requires every daemon to drain and exit 0. A daemon
// that announces readiness before it catches the signal dies of it instead
// whenever the signal lands in that gap.
func TestSIGTERMAtReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon boot loop skipped in -short mode")
	}
	bin := buildDaemon(t)
	const boots = 10
	for i := 0; i < boots; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-input", "road", "-scale", "test",
			"-drain-timeout", "5s")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := bufio.NewReader(stdout).ReadString('\n'); err != nil {
			cmd.Process.Kill()
			t.Fatalf("boot %d: reading listen line: %v\nstderr: %s", i, err, stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, stdout)
		err = waitExit(cmd, 20*time.Second)
		if sig, ok := exitSignal(err); ok {
			t.Fatalf("boot %d: daemon killed by %v at readiness instead of draining\nstderr: %s", i, sig, stderr.String())
		}
		if err != nil || !strings.Contains(stderr.String(), "drained, bye") {
			t.Fatalf("boot %d: daemon did not drain cleanly: %v\nstderr: %s", i, err, stderr.String())
		}
	}
}
