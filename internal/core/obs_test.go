package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// The determinism surface the observability layer guarantees, pinned by the
// tests below:
//
//   - The modeled-clock track (spans, counters, instants: name, track,
//     timestamp, duration, argument) is bit-identical across repeated runs in
//     every execution mode — host scheduling never leaks into it.
//   - Cooperative-deferred and parallel execution produce bit-identical
//     modeled tracks, metrics series and cycle attribution: they run the same
//     deferred-effect semantics and differ only in host scheduling.
//   - ExecLive is a semantically different scheduler (immediate cross-task
//     atomic visibility inside a segment), so on work-efficient kernels like
//     bfs-wl it legitimately executes different work (fewer duplicate
//     relaxations) and its timeline differs where the work differs. Where
//     live does identical work (pr), its stats match the deferred modes
//     exactly and its per-phase cycles agree to float-accumulation order.
//
// The all-three-modes attribution proof on a mode-invariant workload lives in
// internal/spmd (TestProfileIdenticalAcrossModes).

// obsModes are the execution strategies the observability layer must agree
// across.
var obsModes = []struct {
	name string
	exec HostExec
}{
	{"live", HostLive},
	{"cooperative", HostCooperative},
	{"parallel", HostParallel},
}

// obsKernelNames: the worklist-driven flagship and the dense iterative
// kernel, per the tentpole's determinism requirement.
var obsKernelNames = []string{"bfs-wl", "pr"}

func obsBench(t *testing.T, name string) *kernels.Benchmark {
	t.Helper()
	b, err := kernels.ByName(name)
	if err != nil {
		t.Fatalf("kernel %s: %v", name, err)
	}
	return b
}

func eventDiff(t *testing.T, prefix string, got, ref []obs.Event) {
	t.Helper()
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s: modeled timeline diverges at event %d:\n got %+v\nwant %+v",
				prefix, i, got[i], ref[i])
		}
	}
	t.Fatalf("%s: modeled event count diverges: %d vs %d", prefix, len(got), len(ref))
}

// TestTraceModeledTimelineDeterministic: in every mode the modeled track must
// be bit-identical across repeated runs, and the two deferred modes must be
// bit-identical to each other. The host-clock track is real wall time and is
// exempt.
func TestTraceModeledTimelineDeterministic(t *testing.T) {
	for _, name := range obsKernelNames {
		b := obsBench(t, name)
		g := PrepareGraph(b, graph.RMAT(9, 8, 16, 7))
		perMode := map[string][]obs.Event{}
		for _, mode := range obsModes {
			for trial := 0; trial < 2; trial++ {
				tr := obs.NewTracer(0)
				_, err := Run(b, g, Config{Tasks: 4, HostExec: mode.exec, Trace: tr})
				if err != nil {
					t.Fatalf("%s/%s trial %d: %v", name, mode.name, trial, err)
				}
				if tr.Dropped() != 0 {
					t.Fatalf("%s/%s: tracer dropped %d events at default capacity",
						name, mode.name, tr.Dropped())
				}
				got := tr.ModeledEvents()
				if len(got) == 0 {
					t.Fatalf("%s/%s: no modeled events recorded", name, mode.name)
				}
				if ref, seen := perMode[mode.name]; seen {
					if !reflect.DeepEqual(got, ref) {
						eventDiff(t, name+"/"+mode.name+" rerun", got, ref)
					}
				} else {
					perMode[mode.name] = got
				}
			}
		}
		if !reflect.DeepEqual(perMode["cooperative"], perMode["parallel"]) {
			eventDiff(t, name+" cooperative vs parallel",
				perMode["parallel"], perMode["cooperative"])
		}
	}
}

// TestProfilePhaseSumsMatchAcrossModes is the differential gate for per-phase
// cycle attribution at the kernel level: parallel execution is bit-identical
// to the cooperative reference. Live execution — different semantics, see the
// file comment — must still list the same phases, and on pr (identical work
// in all modes) agree on whole-run stats exactly and on per-phase cycles to
// float-accumulation order.
func TestProfilePhaseSumsMatchAcrossModes(t *testing.T) {
	for _, name := range obsKernelNames {
		b := obsBench(t, name)
		g := PrepareGraph(b, graph.RMAT(9, 8, 16, 7))
		attrs := map[string]obs.Attribution{}
		stats := map[string]spmd.Stats{}
		for _, mode := range obsModes {
			res, err := Run(b, g, Config{Tasks: 4, HostExec: mode.exec})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode.name, err)
			}
			if mode.exec == HostParallel && !res.Engine.DeferredExec() {
				t.Errorf("%s: HostParallel ran on the live scheduler", name)
			}
			a := res.Engine.Attribution()
			if len(a.Phases) == 0 {
				t.Fatalf("%s/%s: empty attribution", name, mode.name)
			}
			attrs[mode.name] = a
			stats[mode.name] = res.Stats
		}
		if !reflect.DeepEqual(attrs["cooperative"], attrs["parallel"]) {
			t.Errorf("%s: phase attribution diverges between deferred modes:\ncooperative %+v\nparallel    %+v",
				name, attrs["cooperative"], attrs["parallel"])
		}
		if name == "pr" && stats["live"] != stats["cooperative"] {
			t.Errorf("pr: stats diverge between live and deferred:\nlive     %+v\ndeferred %+v",
				stats["live"], stats["cooperative"])
		}
		live, coop := attrs["live"].Phases, attrs["cooperative"].Phases
		if len(live) != len(coop) {
			t.Errorf("%s: live attribution has %d phases, deferred %d", name, len(live), len(coop))
			continue
		}
		for i := range live {
			lp, cp := &live[i], &coop[i]
			if lp.Phase != cp.Phase {
				t.Errorf("%s: phase %d is %q live, %q deferred", name, i, lp.Phase, cp.Phase)
				continue
			}
			if name != "pr" {
				continue
			}
			lc, cc := lp.Total(), cp.Total()
			if d := math.Abs(lc - cc); d > 1e-9*math.Abs(cc) {
				t.Errorf("%s/%s: cycles %v (live) vs %v (deferred) beyond accumulation-order tolerance",
					name, lp.Phase, lc, cc)
			}
		}
	}
}

// TestMetricsSeriesDeterministicAcrossModes: per-iteration metrics rows
// derive only from modeled state, so they must be repeatable in every mode
// and bit-identical between the two deferred modes.
func TestMetricsSeriesDeterministicAcrossModes(t *testing.T) {
	for _, name := range obsKernelNames {
		b := obsBench(t, name)
		g := PrepareGraph(b, graph.RMAT(9, 8, 16, 7))
		perMode := map[string][]obs.IterSample{}
		for _, mode := range obsModes {
			for trial := 0; trial < 2; trial++ {
				m := obs.NewMetrics(0)
				_, err := Run(b, g, Config{Tasks: 4, HostExec: mode.exec, Metrics: m})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, mode.name, err)
				}
				rows := m.Rows()
				if len(rows) == 0 {
					t.Fatalf("%s/%s: no metrics rows", name, mode.name)
				}
				if ref, seen := perMode[mode.name]; seen {
					if !reflect.DeepEqual(rows, ref) {
						t.Errorf("%s/%s: metrics series differs across reruns", name, mode.name)
					}
				} else {
					perMode[mode.name] = rows
				}
			}
		}
		if !reflect.DeepEqual(perMode["cooperative"], perMode["parallel"]) {
			t.Errorf("%s: metrics series diverges between deferred modes", name)
		}
	}
}

// TestTraceExportEndToEnd: a traced run exports schema-valid Chrome trace
// JSON containing both clocks and the expected track structure.
func TestTraceExportEndToEnd(t *testing.T) {
	b := obsBench(t, "bfs-wl")
	g := PrepareGraph(b, graph.RMAT(8, 8, 16, 3))
	tr := obs.NewTracer(0)
	m := obs.NewMetrics(0)
	if _, err := Run(b, g, Config{Tasks: 4, Trace: tr, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails schema validation: %v", err)
	}
	var sawHost, sawModeled, sawIter, sawSwap bool
	for _, ev := range tr.Events() {
		switch ev.Pid {
		case obs.ProcHost:
			sawHost = true
		case obs.ProcModeled:
			sawModeled = true
			if ev.Tid == obs.TidPipe && ev.Ph == 'X' {
				sawIter = true
			}
			if ev.Name == "worklist-swap" {
				sawSwap = true
			}
		}
	}
	if !sawHost || !sawModeled || !sawIter || !sawSwap {
		t.Errorf("trace missing expected tracks/events: host=%v modeled=%v iter=%v swap=%v",
			sawHost, sawModeled, sawIter, sawSwap)
	}
	var mbuf bytes.Buffer
	if err := m.WriteJSONL(&mbuf); err != nil {
		t.Fatal(err)
	}
	if mbuf.Len() == 0 {
		t.Error("metrics JSONL empty")
	}
}
