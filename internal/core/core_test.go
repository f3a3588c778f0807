package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/vec"
)

// testGraphs returns small instances of the three input families.
func testGraphs() []*graph.CSR {
	return graph.Suite(graph.ScaleTest, 7)
}

// TestMSTKeyRange pins mst's input contract: the widest weight whose packed
// weight|edge key stays below the no-edge sentinel verifies, and one more is
// a typed ErrUnsupportedInput from Run instead of a wrong answer.
func TestMSTKeyRange(t *testing.T) {
	mst := mustKernel(t, "mst")
	if _, err := RunVerified(mst, PrepareGraph(mst, bridgeGraph(127)), Config{Tasks: 4}); err != nil {
		t.Fatalf("weight 127: %v", err)
	}
	_, err := Run(mst, PrepareGraph(mst, bridgeGraph(128)), Config{Tasks: 4})
	if !errors.Is(err, fault.ErrUnsupportedInput) {
		t.Fatalf("weight 128: err = %v, want ErrUnsupportedInput", err)
	}
}

// TestAllMachinesRun exercises the three CPU models and the GPU model.
func TestAllMachinesRun(t *testing.T) {
	raw := graph.Road(12, 12, 16, 5)
	b := mustKernel(t, "bfs-wl")
	for _, m := range []*machine.Config{
		machine.Intel8(), machine.AMD32(), machine.Phi72(), machine.QuadroP5000(),
	} {
		res, err := RunVerified(b, raw, Config{Machine: m})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.TimeMS <= 0 {
			t.Errorf("%s: no modeled time", m.Name)
		}
	}
}

func TestSerialConfig(t *testing.T) {
	cfg := SerialConfig(machine.Intel8())
	if cfg.Target != vec.TargetScalar || cfg.Tasks != 1 {
		t.Fatal("serial config wrong")
	}
	b, _ := kernels.ByName("bfs-wl")
	g := graph.Road(10, 10, 8, 2)
	res, err := RunVerified(b, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar build: no vector gathers, one lane per op.
	if res.Stats.LaneUtilization(1) > 1.0 {
		t.Error("scalar utilization exceeds 1")
	}
}

// TestIOReducesLaunches: without IO, every pipe round launches tasks; with
// IO, one launch total per pipe.
func TestIOReducesLaunches(t *testing.T) {
	b, _ := kernels.ByName("bfs-wl")
	g := graph.Road(16, 16, 8, 3) // diameter ~ 30: many rounds
	noIO := opt.Options{}
	withIO := opt.Options{IO: true}
	r1, err := Run(b, g, Config{Opts: &noIO, Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(b, g, Config{Opts: &withIO, Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Launches != 1 {
		t.Errorf("outlined launches = %d, want 1", r2.Stats.Launches)
	}
	if r1.Stats.Launches < 20 {
		t.Errorf("per-iteration launches = %d, expected many rounds", r1.Stats.Launches)
	}
	// Removing launches from the critical path must not slow things down.
	if r2.TimeMS > r1.TimeMS {
		t.Errorf("IO slower: %v ms vs %v ms", r2.TimeMS, r1.TimeMS)
	}
}

// TestCCReducesAtomicPushes reproduces the Table V effect: task-level
// cooperative conversion cuts atomic pushes by about the SIMD width.
func TestCCReducesAtomicPushes(t *testing.T) {
	b, _ := kernels.ByName("bfs-wl")
	g := graph.RMAT(9, 8, 16, 4)
	unopt := opt.Options{NP: true}
	withCC := opt.Options{NP: true, CC: true}
	r1, err := Run(b, g, Config{Opts: &unopt})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(b, g, Config{Opts: &withCC})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.AtomicPushes == 0 || r1.Stats.AtomicPushes == 0 {
		t.Fatal("no pushes recorded")
	}
	ratio := float64(r1.Stats.AtomicPushes) / float64(r2.Stats.AtomicPushes)
	if ratio < 2 {
		t.Errorf("CC push reduction = %.2fx, want substantial", ratio)
	}
}

// TestFiberCCFurtherReducesPushes: bfs-cx's expand kernel reserves in bulk,
// cutting pushes far below even task-level CC (Table V's 36.5x extra).
func TestFiberCCFurtherReducesPushes(t *testing.T) {
	b, _ := kernels.ByName("bfs-cx")
	g := graph.RMAT(9, 8, 16, 4)
	taskCC := opt.Options{NP: true, CC: true}
	fiberCC := opt.All()
	r1, err := RunVerified(b, g, Config{Opts: &taskCC})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunVerified(b, g, Config{Opts: &fiberCC})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.AtomicPushes >= r1.Stats.AtomicPushes {
		t.Errorf("fiber CC pushes %d >= task CC pushes %d",
			r2.Stats.AtomicPushes, r1.Stats.AtomicPushes)
	}
}

// TestNPImprovesUtilization reproduces the Table IV effect on a skewed
// graph: nested parallelism raises inner-loop SIMD lane utilization.
func TestNPImprovesUtilization(t *testing.T) {
	b, _ := kernels.ByName("bfs-wl")
	g := graph.RMAT(10, 8, 16, 6) // skewed: bad serial utilization
	serial := opt.Options{IO: true}
	np := opt.Options{IO: true, NP: true, CC: true}
	r1, err := Run(b, g, Config{Opts: &serial})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(b, g, Config{Opts: &np})
	if err != nil {
		t.Fatal(err)
	}
	u1 := r1.Stats.LaneUtilization(16)
	u2 := r2.Stats.LaneUtilization(16)
	if u2 <= u1 {
		t.Errorf("NP utilization %v <= serial %v", u2, u1)
	}
	if u2 < 0.5 {
		t.Errorf("NP utilization %v, want > 0.5", u2)
	}
}

// TestSIMDBeatsSerial: the plain SIMD build must outperform the serial build
// in modeled time (the Fig. 6 +SIMD effect).
func TestSIMDBeatsSerial(t *testing.T) {
	b, _ := kernels.ByName("bfs-wl")
	g := graph.Random(2048, 16384, 16, 8)
	serial, err := Run(b, g, SerialConfig(machine.Intel8()))
	if err != nil {
		t.Fatal(err)
	}
	o := opt.All()
	simd, err := Run(b, g, Config{Tasks: 1, NoSMT: true, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	if simd.TimeMS >= serial.TimeMS {
		t.Errorf("1-task SIMD %v ms not faster than serial %v ms", simd.TimeMS, serial.TimeMS)
	}
}

// TestMTScales: multi-tasking must speed up a sufficiently large run.
func TestMTScales(t *testing.T) {
	b, _ := kernels.ByName("pr")
	g := graph.Random(4096, 32768, 16, 9)
	o := opt.All()
	t1, err := Run(b, g, Config{Tasks: 1, NoSMT: true, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Run(b, g, Config{Tasks: 8, NoSMT: true, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	if sp := t1.TimeMS / t8.TimeMS; sp < 2 {
		t.Errorf("8-task speedup = %.2fx, want > 2x", sp)
	}
}

// TestDeterministicAcrossRuns: identical configs yield identical results,
// times and statistics.
func TestDeterministicAcrossRuns(t *testing.T) {
	b, _ := kernels.ByName("sssp-nf")
	g := graph.Road(16, 16, 32, 11)
	first := snapshot(Run(b, g, Config{}))
	if err := first.diff(snapshot(Run(b, g, Config{})), fAll, nil); err != nil || first.err != "" {
		t.Errorf("nondeterministic run: %v (%s)", err, first.err)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	b, _ := kernels.ByName("bfs-wl")
	bad := *b.Prog
	bad.Kernels = nil
	badBench := &kernels.Benchmark{Name: "broken", Prog: &bad}
	if _, err := Run(badBench, graph.Road(4, 4, 4, 1), Config{}); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestFootprint(t *testing.T) {
	b, _ := kernels.ByName("bfs-wl")
	g := graph.Road(16, 16, 8, 1)
	res, err := Run(b, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance.FootprintBytes() <= g.FootprintBytes() {
		t.Error("footprint must exceed the bare graph")
	}
}
