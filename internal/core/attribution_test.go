package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestAttributionSumsExactly pins the observatory's core contract: for every
// benchmark, input family, execution mode and kernel backend, the per-class
// per-phase attribution buckets fold back to the engine's modeled clock
// bit-exactly — no epsilon. The buckets are the primary accounting (the clock
// is defined as their canonical fold), so any drift here means a charge
// bypassed the buckets or the fold order diverged.
//
// The same sweep is also a differential gate on the attribution itself:
// within each scheduler family the per-phase per-class breakdown must be
// identical, not just the total. The two deferred modes (cooperative and
// parallel) and both backends form one equivalence class — the repo's
// bitwise guarantee; the legacy live scheduler models contended atomics
// differently, so it forms its own class (both backends must still agree).
// A scheduler or backend leaking into *where* cycles are attributed would
// pass a total-only check and still corrupt every profile built on top.
func TestAttributionSumsExactly(t *testing.T) {
	t.Parallel()
	modes := []struct {
		name string
		exec HostExec
	}{
		{"live", HostLive},
		{"cooperative", HostCooperative},
		{"parallel", HostParallel},
	}
	backends := []struct {
		name string
		be   Backend
	}{
		{"interp", BackendInterp},
		{"compiled", BackendAuto},
	}
	for _, b := range kernels.All() {
		for _, raw := range testGraphs() {
			g := PrepareGraph(b, raw)
			base := map[bool]obs.Attribution{}
			baseFrom := map[bool]string{}
			for _, be := range backends {
				for _, mode := range modes {
					live := mode.exec == HostLive
					res, err := Run(b, g, Config{Tasks: 4, HostExec: mode.exec, Backend: be.be})
					if err != nil {
						t.Fatalf("%s/%s %s/%s: %v", b.Name, raw.Name, be.name, mode.name, err)
					}
					attr := res.Engine.Attribution()
					cycles := res.Engine.TimeCycles()
					if got := attr.Total(); got != cycles {
						t.Errorf("%s/%s %s/%s: attribution total %v != modeled cycles %v (diff %v)",
							b.Name, raw.Name, be.name, mode.name, got, cycles, got-cycles)
					}
					// The bench serialization path round-trips the non-zero class
					// totals through a map; the canonical class-order re-fold of
					// that map must reproduce the clock exactly too.
					if got := obs.SumClassMap(attr.ClassMap()); got != cycles {
						t.Errorf("%s/%s %s/%s: class-map refold %v != modeled cycles %v",
							b.Name, raw.Name, be.name, mode.name, got, cycles)
					}
					if attr.Wasted != 0 {
						t.Errorf("%s/%s %s/%s: clean run reports %v wasted cycles",
							b.Name, raw.Name, be.name, mode.name, attr.Wasted)
					}
					if _, ok := base[live]; !ok {
						base[live], baseFrom[live] = attr, be.name+"/"+mode.name
					} else if !reflect.DeepEqual(base[live], attr) {
						t.Errorf("%s/%s: attribution diverges between %s and %s/%s",
							b.Name, raw.Name, baseFrom[live], be.name, mode.name)
					}
				}
			}
		}
	}
}

// TestAttributionRollbackInvisible: a run that is hit by injected transient
// faults, rolls back and re-executes must end with the identical attribution
// breakdown to an undisturbed run — rollback rewinds the buckets along with
// the clock, and re-execution re-charges them deterministically. The wasted
// (rolled-back) cycles live outside the folded buckets, in the recovery
// counters. The sweep requires at least one rollback so it cannot pass
// vacuously.
func TestAttributionRollbackInvisible(t *testing.T) {
	g0 := recoveryGraph()
	totalRollbacks := 0
	for _, name := range []string{"bfs-wl", "sssp-nf", "pr-delta"} {
		b := mustKernel(t, name)
		g := PrepareGraph(b, g0)
		for _, mode := range []HostExec{HostCooperative, HostParallel} {
			clean, err := Run(b, g, Config{Tasks: 4, HostExec: mode})
			if err != nil {
				t.Fatalf("%s mode %d clean: %v", name, mode, err)
			}
			rec, err := Run(b, g, Config{
				Tasks:           4,
				HostExec:        mode,
				CheckpointEvery: 1,
				MaxRollbacks:    200,
				Inject:          fault.NewInjector(42, fault.Config{Transient: 0.15}),
			})
			if err != nil {
				t.Fatalf("%s mode %d recovering: %v", name, mode, err)
			}
			totalRollbacks += rec.Recovery.Rollbacks
			ca, ra := clean.Engine.Attribution(), rec.Engine.Attribution()
			if !reflect.DeepEqual(ca, ra) {
				t.Errorf("%s mode %d: attribution diverges between clean and recovered run", name, mode)
			}
			if got := ra.Total(); got != rec.Engine.TimeCycles() {
				t.Errorf("%s mode %d: recovered attribution total %v != cycles %v",
					name, mode, got, rec.Engine.TimeCycles())
			}
		}
	}
	if totalRollbacks == 0 {
		t.Error("no rollbacks occurred anywhere in the sweep; injection is not exercising recovery")
	}
}

// TestAttributionCollapsedProfile sanity-checks the flamegraph rendering: a
// worklist kernel's collapsed-stack profile must mention the pipe-loop phase
// and at least the worklist and gather/scatter cost classes, and every line
// must have the root;phase;class shape.
func TestAttributionCollapsedProfile(t *testing.T) {
	b := mustKernel(t, "bfs-wl")
	g := PrepareGraph(b, recoveryGraph())
	res, err := Run(b, g, Config{Tasks: 4, HostExec: HostCooperative})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	attr := res.Engine.Attribution()
	attr.WriteCollapsed(&sb, "bfs-wl")
	out := sb.String()
	for _, want := range []string{"bfs-wl;", ";worklist ", ";gather_scatter "} {
		if !strings.Contains(out, want) {
			t.Errorf("collapsed profile missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Count(line, ";") != 2 || !strings.Contains(line, " ") {
			t.Errorf("malformed collapsed line %q", line)
		}
	}
}
