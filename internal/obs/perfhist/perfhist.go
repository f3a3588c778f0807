// Package perfhist owns the repo's committed performance record, the
// BENCH_*.json reports: it is the only code that reads or writes their
// format. Every report holds deterministic series only — modeled cycles with
// their per-cost-class attribution, cooperative allocs/op and lane
// utilization — which are properties of the code alone and reproduce on any
// machine, so a change between two reports is a real change in the program.
// Host wall-clock time is measured by the separate benchmark/ module, not
// here.
//
// MeasureHead produces a report from the working tree, Write stores it, Load
// parses and validates every committed report, WriteTrajectory renders the
// history and Compare gates a new measurement against the last accepted one.
package perfhist

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the version Write stamps on new reports. Version 2 added
// the per-row cycle_attribution map, version 3 a wall-clock mutation section;
// version 4 reports carry the deterministic series only. Reports written
// before versioning carry no schema_version and parse as legacy.
const SchemaVersion = 4

// Row is one kernel/layout point of one report.
type Row struct {
	Kernel        string  `json:"kernel"`
	Layout        string  `json:"layout"`
	ModeledCycles float64 `json:"modeled_cycles"`
	CoopAllocsOp  float64 `json:"cooperative_allocs_per_op"`
	LaneUtil      float64 `json:"lane_utilization"`
	// Attribution holds the per-cost-class modeled-cycle totals; it re-folds
	// to ModeledCycles bit-exactly (schema v2 on; nil before that).
	Attribution map[string]float64 `json:"cycle_attribution,omitempty"`
}

// Key is the row's identity across reports.
func (r *Row) Key() string { return r.Kernel + "/" + r.Layout }

// Report is one parsed BENCH_N.json.
type Report struct {
	Seq           int
	Path          string
	SchemaVersion int
	GoVersion     string
	Graph         string
	Rows          map[string]Row
}

// document is the on-disk shape of a report. Fields of older schemas (the
// wall-clock columns) are ignored on read.
type document struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Generated     string `json:"generated"`
	GoVersion     string `json:"go_version"`
	Graph         string `json:"graph,omitempty"`
	Kernels       []Row  `json:"kernels"`
}

// Write stores r as a schema-version-SchemaVersion report, rows sorted by key.
func (r *Report) Write(path string) error {
	doc := document{
		SchemaVersion: SchemaVersion,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     r.GoVersion,
		Graph:         r.Graph,
	}
	for _, row := range r.Rows {
		doc.Kernels = append(doc.Kernels, row)
	}
	sort.Slice(doc.Kernels, func(i, j int) bool { return doc.Kernels[i].Key() < doc.Kernels[j].Key() })
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("perfhist: %w", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("perfhist: %w", err)
	}
	return nil
}

// History is the ordered sequence of reports found in a directory.
type History struct {
	Reports []Report
}

var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Load reads and validates every BENCH_<n>.json in dir, in ascending n. A
// file that fails validation fails the load: the record is only as
// trustworthy as its worst report.
func Load(dir string) (*History, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("perfhist: %w", err)
	}
	h := &History{}
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("perfhist: %w", err)
		}
		rep, err := parseReport(raw)
		if err != nil {
			return nil, fmt.Errorf("perfhist: %s: %w", e.Name(), err)
		}
		fmt.Sscanf(m[1], "%d", &rep.Seq)
		rep.Path = path
		h.Reports = append(h.Reports, rep)
	}
	sort.Slice(h.Reports, func(i, j int) bool { return h.Reports[i].Seq < h.Reports[j].Seq })
	return h, nil
}

// parseReport decodes and validates one report: a known schema version, a
// toolchain, at least one row, unique kernel/layout rows with a known layout
// and positive modeled cycles, and — from schema v2 on — a cycle_attribution
// map per row whose known, non-negative classes re-fold to modeled_cycles
// bit-exactly (no epsilon: both sides are folds of the same buckets, and
// encoding/json round-trips float64 exactly).
func parseReport(raw []byte) (Report, error) {
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return Report{}, err
	}
	if doc.SchemaVersion < 0 || doc.SchemaVersion > SchemaVersion {
		return Report{}, fmt.Errorf("unknown schema_version %d (this build understands <= %d)",
			doc.SchemaVersion, SchemaVersion)
	}
	if doc.GoVersion == "" {
		return Report{}, fmt.Errorf("missing go_version")
	}
	if len(doc.Kernels) == 0 {
		return Report{}, fmt.Errorf("no kernel rows")
	}
	rep := Report{
		SchemaVersion: doc.SchemaVersion,
		GoVersion:     doc.GoVersion,
		Graph:         doc.Graph,
		Rows:          make(map[string]Row, len(doc.Kernels)),
	}
	for _, row := range doc.Kernels {
		if row.Kernel == "" {
			return Report{}, fmt.Errorf("row without a kernel name")
		}
		switch row.Layout {
		case "":
			row.Layout = "csr" // pre-layout reports carry no tag
		case "csr", "sell":
		default:
			return Report{}, fmt.Errorf("%s: unknown layout %q", row.Kernel, row.Layout)
		}
		key := row.Key()
		if _, dup := rep.Rows[key]; dup {
			return Report{}, fmt.Errorf("duplicate row for %s", key)
		}
		if row.ModeledCycles <= 0 {
			return Report{}, fmt.Errorf("%s: modeled_cycles = %v, want > 0", key, row.ModeledCycles)
		}
		if err := checkAttribution(key, doc.SchemaVersion, &row); err != nil {
			return Report{}, err
		}
		rep.Rows[key] = row
	}
	return rep, nil
}

// checkAttribution validates one row's cycle_attribution against the
// report's schema version.
func checkAttribution(key string, version int, row *Row) error {
	if version < 2 {
		if len(row.Attribution) != 0 {
			return fmt.Errorf("%s: cycle_attribution present but schema_version %d predates it", key, version)
		}
		return nil
	}
	if len(row.Attribution) == 0 {
		return fmt.Errorf("%s: schema_version %d row missing cycle_attribution", key, version)
	}
	for name, v := range row.Attribution {
		if _, ok := obs.ParseCostClass(name); !ok {
			return fmt.Errorf("%s: unknown cost class %q in cycle_attribution", key, name)
		}
		if v < 0 {
			return fmt.Errorf("%s: cycle_attribution[%q] = %v, want >= 0", key, name, v)
		}
	}
	if got := obs.SumClassMap(row.Attribution); got != row.ModeledCycles {
		return fmt.Errorf("%s: cycle_attribution sums to %v, modeled_cycles = %v (must match bit-exactly)",
			key, got, row.ModeledCycles)
	}
	return nil
}

// Latest returns the highest-numbered report, nil on an empty history.
func (h *History) Latest() *Report {
	if len(h.Reports) == 0 {
		return nil
	}
	return &h.Reports[len(h.Reports)-1]
}

// geomeanRatio folds the per-row cur/prev ratio of one series over the
// shared rows. sel extracts the series; rows where either side is
// non-positive are skipped.
func geomeanRatio(prev, cur *Report, sel func(*Row) float64) float64 {
	prod, n := 1.0, 0
	for key, c := range cur.Rows {
		p, ok := prev.Rows[key]
		if !ok {
			continue
		}
		pv, cv := sel(&p), sel(&c)
		if pv <= 0 || cv <= 0 {
			continue
		}
		prod *= cv / pv
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// WriteTrajectory renders the history as a table: one line per report with
// the geomean change of modeled cycles and allocs/op against the previous
// report over the rows both carry.
func (h *History) WriteTrajectory(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-10s %5s %9s %9s\n", "report", "go", "rows", "cycles", "allocs")
	for i := range h.Reports {
		r := &h.Reports[i]
		cyc, al := "-", "-"
		if i > 0 {
			prev := &h.Reports[i-1]
			cyc = ratioStr(geomeanRatio(prev, r, func(x *Row) float64 { return x.ModeledCycles }))
			al = ratioStr(geomeanRatio(prev, r, func(x *Row) float64 { return x.CoopAllocsOp }))
		}
		fmt.Fprintf(w, "%-14s %-10s %5d %9s %9s\n", filepath.Base(r.Path), r.GoVersion, len(r.Rows), cyc, al)
	}
}

func ratioStr(r float64) string {
	if r <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(r-1))
}
