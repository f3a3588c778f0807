package perfhist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// validReport is a legacy (unversioned) report: no attribution, and a row
// without a layout tag, which parses as csr.
const validReport = `{
  "generated": "2026-08-08T00:00:00Z", "go_version": "go1.24.0",
  "kernels": [
    {"kernel": "cc", "layout": "csr", "modeled_cycles": 100,
     "cooperative_allocs_per_op": 50, "cooperative_wall_ns_per_op": 1000},
    {"kernel": "cc", "layout": "sell", "modeled_cycles": 90},
    {"kernel": "pr", "modeled_cycles": 200, "cooperative_allocs_per_op": 80}
  ]
}`

// validReportV2 carries a cycle_attribution map on every row whose class
// totals re-fold to modeled_cycles exactly.
const validReportV2 = `{
  "schema_version": 2,
  "generated": "2026-09-01T00:00:00Z", "go_version": "go1.24.0",
  "kernels": [
    {"kernel": "cc", "layout": "csr", "modeled_cycles": 100,
     "cooperative_allocs_per_op": 55,
     "cycle_attribution": {"valu": 60, "barrier": 40}},
    {"kernel": "pr", "modeled_cycles": 200.5, "cooperative_allocs_per_op": 80,
     "cycle_attribution": {"gather_scatter": 150.25, "launch": 50.25}}
  ]
}`

type mutation struct{ name, from, to, want string }

// checkMutations requires valid to parse and every single-edit mutation of
// it to be rejected with an error mentioning want.
func checkMutations(t *testing.T, valid string, cases []mutation) {
	t.Helper()
	if _, err := parseReport([]byte(valid)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := strings.Replace(valid, tc.from, tc.to, 1)
			if doc == valid {
				t.Fatalf("mutation %q did not apply", tc.from)
			}
			_, err := parseReport([]byte(doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestValidateBenchReport mutation-tests the row checks every report passes
// at load time: unique kernel/layout rows, a known layout, positive modeled
// cycles, and no attribution in a report whose version predates it.
func TestValidateBenchReport(t *testing.T) {
	checkMutations(t, validReport, []mutation{
		{"zero cycles", `"modeled_cycles": 200`, `"modeled_cycles": 0`, "modeled_cycles"},
		{"bad layout", `"layout": "csr"`, `"layout": "coo"`, "unknown layout"},
		{"duplicate", `"layout": "sell"`, `"layout": "csr"`, "duplicate"},
		{"missing go_version", `"go_version": "go1.24.0"`, `"go_version": ""`, "go_version"},
		{"attribution predates version", `"modeled_cycles": 200,`,
			`"modeled_cycles": 200, "cycle_attribution": {"valu": 200},`, "predates"},
	})
	for _, doc := range []string{`{"go_version": "go1.24.0", "kernels": []}`, `not json`} {
		if _, err := parseReport([]byte(doc)); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
}

// TestValidateBenchReportVersioned mutation-tests the schema-version gate
// and the per-row attribution checks of version 2 on: a future version is
// rejected rather than read with its new fields ignored, and every row must
// carry attribution with known class names, non-negative values and a
// bit-exact re-fold to modeled_cycles.
func TestValidateBenchReportVersioned(t *testing.T) {
	checkMutations(t, validReportV2, []mutation{
		{"future version", `"schema_version": 2`, `"schema_version": 5`, "unknown schema_version"},
		{"negative version", `"schema_version": 2`, `"schema_version": -1`, "unknown schema_version"},
		{"missing attribution", `"cycle_attribution": {"valu": 60, "barrier": 40}`,
			`"cycle_attribution_x": {"valu": 60, "barrier": 40}`, "missing cycle_attribution"},
		{"unknown class", `"valu": 60`, `"warp_divergence": 60`, "unknown cost class"},
		{"negative class total", `"barrier": 40`, `"barrier": -40`, "want >= 0"},
		{"sum mismatch", `"barrier": 40`, `"barrier": 40.5`, "must match bit-exactly"},
	})
}

func TestLoadAndTrajectory(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "BENCH_1.json", validReport)
	writeFile(t, dir, "BENCH_2.json", validReportV2)
	writeFile(t, dir, "OTHER.json", `{}`)

	hist, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Reports) != 2 || hist.Latest().Seq != 2 {
		t.Fatalf("got %d reports, latest %+v; want 2 reports, latest seq 2", len(hist.Reports), hist.Latest())
	}
	if _, ok := hist.Reports[0].Rows["pr/csr"]; !ok {
		t.Fatal("legacy untagged row did not normalize to pr/csr")
	}

	var buf strings.Builder
	hist.WriteTrajectory(&buf)
	out := buf.String()
	// Shared rows cc/csr and pr/csr: pr's cycles grew 200 -> 200.5, so the
	// cycles geomean is sqrt(1.0025) = +0.1%; cc's allocs grew 50 -> 55, so
	// the allocs geomean is sqrt(1.1) = +4.9%.
	for _, want := range []string{"BENCH_2.json", "+0.1%", "+4.9%"} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory missing %q:\n%s", want, out)
		}
	}

	// One invalid committed report fails the whole load, naming the file.
	writeFile(t, dir, "BENCH_3.json", `{"p50_ms": 1.5, "classes": {}}`)
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "BENCH_3.json") {
		t.Fatalf("Load with an invalid report: err = %v, want it to name BENCH_3.json", err)
	}
}

// TestReportRoundTrip writes a measured report, loads it back through the
// validating parser, and gates it against a fresh measurement: the gate
// passes and every modeled series comes back bit-for-bit.
func TestReportRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("two more measurements add minutes under -race; TestBenchDiff already runs MeasureHead there")
	}
	first, err := MeasureHead()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := first.Write(filepath.Join(dir, "BENCH_1.json")); err != nil {
		t.Fatal(err)
	}
	hist, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := hist.Latest()
	if stored.SchemaVersion != SchemaVersion || stored.GoVersion != first.GoVersion {
		t.Fatalf("stored header = v%d %s, want v%d %s",
			stored.SchemaVersion, stored.GoVersion, SchemaVersion, first.GoVersion)
	}
	fresh, err := MeasureHead()
	if err != nil {
		t.Fatal(err)
	}
	if regs := Compare(stored, fresh, nil, Options{}); len(regs) != 0 {
		t.Fatalf("fresh measurement regressed against its own stored report: %v", regs)
	}
	if len(stored.Rows) != len(fresh.Rows) {
		t.Fatalf("stored %d rows, fresh %d", len(stored.Rows), len(fresh.Rows))
	}
	for key, s := range stored.Rows {
		f := fresh.Rows[key]
		if s.ModeledCycles != f.ModeledCycles || s.LaneUtil != f.LaneUtil ||
			!reflect.DeepEqual(s.Attribution, f.Attribution) {
			t.Errorf("%s: stored %v cycles (util %v, %v), fresh %v (util %v, %v)",
				key, s.ModeledCycles, s.LaneUtil, s.Attribution, f.ModeledCycles, f.LaneUtil, f.Attribution)
		}
	}
}

// TestCompareInjectedRegression injects a ≥2% modeled-cycle regression into
// a synthetic head and checks the gate fails naming the kernel AND the cost
// class that grew, while the unchanged head passes, sub-threshold noise
// passes, and an allowlist entry waives the failure.
func TestCompareInjectedRegression(t *testing.T) {
	base := &Report{Rows: map[string]Row{
		"bfs/csr": {Kernel: "bfs", Layout: "csr", ModeledCycles: 100000,
			CoopAllocsOp: 1000,
			Attribution:  map[string]float64{"valu": 60000, "barrier": 40000}},
	}}
	clean := &Report{Rows: map[string]Row{
		"bfs/csr": {Kernel: "bfs", Layout: "csr", ModeledCycles: 100000,
			CoopAllocsOp: 1004, // inside Tol+AllocEps
			Attribution:  map[string]float64{"valu": 60000, "barrier": 40000}},
	}}
	if regs := Compare(base, clean, nil, Options{}); len(regs) != 0 {
		t.Fatalf("clean head flagged: %v", regs)
	}

	regressed := &Report{Rows: map[string]Row{
		"bfs/csr": {Kernel: "bfs", Layout: "csr", ModeledCycles: 103000,
			CoopAllocsOp: 1000,
			Attribution:  map[string]float64{"valu": 60000, "barrier": 43000}},
	}}
	regs := Compare(base, regressed, nil, Options{})
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	msg := regs[0].String()
	for _, want := range []string{"bfs/csr", "modeled_cycles", "barrier"} {
		if !strings.Contains(msg, want) {
			t.Errorf("regression %q does not name %q", msg, want)
		}
	}

	allow := &Allowlist{Entries: []AllowEntry{{
		Kernel: "bfs", Layout: "csr", Metric: "modeled_cycles",
		Reason: "accepted: new barrier accounting",
	}}}
	if regs := Compare(base, regressed, allow, Options{}); len(regs) != 0 {
		t.Fatalf("allowlisted regression still flagged: %v", regs)
	}
}

func TestCompareAllocAndMissingRow(t *testing.T) {
	base := &Report{Rows: map[string]Row{
		"bfs/csr": {Kernel: "bfs", Layout: "csr", ModeledCycles: 1000, CoopAllocsOp: 1000},
		"cc/csr":  {Kernel: "cc", Layout: "csr", ModeledCycles: 1000, CoopAllocsOp: 1000},
	}}
	head := &Report{Rows: map[string]Row{
		"bfs/csr": {Kernel: "bfs", Layout: "csr", ModeledCycles: 1000, CoopAllocsOp: 1100},
	}}
	regs := Compare(base, head, nil, Options{})
	if len(regs) != 2 {
		t.Fatalf("got %v, want alloc regression + missing row", regs)
	}
	if regs[0].Metric != "cooperative_allocs_per_op" || regs[1].Metric != "row" {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	if regs := Compare(base, head, nil, Options{SkipAllocs: true}); len(regs) != 1 {
		t.Fatalf("SkipAllocs still gates allocs: %v", regs)
	}
}

func TestAllowlistValidation(t *testing.T) {
	dir := t.TempDir()
	if a, err := LoadAllowlist(filepath.Join(dir, "absent.json")); err != nil || len(a.Entries) != 0 {
		t.Fatalf("missing allowlist: a=%v err=%v, want empty", a, err)
	}
	writeFile(t, dir, "bad.json", `{"entries": [{"kernel": "bfs", "metric": "modeled_cycles"}]}`)
	if _, err := LoadAllowlist(filepath.Join(dir, "bad.json")); err == nil {
		t.Fatal("entry without reason accepted")
	}
}
