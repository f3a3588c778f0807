package perfhist

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestBenchDiff is the drift-free regression gate behind `make bench-diff`
// and the writer behind `make bench`: load and validate every committed
// BENCH_*.json, print the trajectory, re-measure the deterministic series
// (modeled cycles with per-class attribution, allocs/op) from the working
// tree, and fail on any >2% regression against the last accepted report that
// BENCH_ALLOWLIST.json does not waive. With BENCH_OUT set, the measurement is
// written there as the next report — only once the gate has passed.
//
// Because the modeled series are bit-reproducible, an unchanged tree passes
// on any machine. The allocs/op gate is skipped (loudly) when the baseline
// was written by a different Go toolchain, since allocation counts are a
// property of the compiler as much as of this repo's code.
func TestBenchDiff(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	hist, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	latest := hist.Latest()
	if latest == nil {
		t.Fatal("no bench reports found at the repo root")
	}
	var buf strings.Builder
	hist.WriteTrajectory(&buf)
	t.Logf("performance trajectory (%d reports, all valid):\n%s", len(hist.Reports), buf.String())

	if latest.SchemaVersion < 2 {
		t.Fatalf("latest report %s has schema_version %d; the gate needs the v2 cycle_attribution columns — run `make bench`",
			filepath.Base(latest.Path), latest.SchemaVersion)
	}
	allow, err := LoadAllowlist(filepath.Join(root, "BENCH_ALLOWLIST.json"))
	if err != nil {
		t.Fatal(err)
	}
	head, err := MeasureHead()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	if latest.GoVersion != runtime.Version() {
		opts.SkipAllocs = true
		t.Logf("allocs/op gate skipped: baseline written by %s, this toolchain is %s",
			latest.GoVersion, runtime.Version())
	}
	if raceEnabled {
		opts.SkipAllocs = true
		t.Log("allocs/op gate skipped: race-detector instrumentation allocates")
	}
	same, allocDelta := 0, 0.0
	for key, b := range latest.Rows {
		h := head.Rows[key]
		if h.ModeledCycles == b.ModeledCycles {
			same++
		}
		allocDelta = math.Max(allocDelta, math.Abs(h.CoopAllocsOp-b.CoopAllocsOp))
	}
	t.Logf("vs %s: modeled_cycles bit-identical on %d of %d rows; allocs/op within %.1f",
		filepath.Base(latest.Path), same, len(latest.Rows), allocDelta)
	for _, r := range Compare(latest, head, allow, opts) {
		t.Errorf("regression vs %s: %s", filepath.Base(latest.Path), r)
	}

	out := os.Getenv("BENCH_OUT")
	switch {
	case out == "":
	case t.Failed():
		t.Logf("BENCH_OUT: %s not written, the gate failed", out)
	case raceEnabled:
		t.Fatalf("BENCH_OUT: refusing to record race-instrumented allocation counts in %s", out)
	default:
		if err := head.Write(out); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", out, len(head.Rows))
	}
}
