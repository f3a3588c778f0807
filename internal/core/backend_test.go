package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/compiled"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// runBothBackends executes the same configuration once pinned to the
// interpreter and once on the generated backend (BackendAuto on a covered
// configuration), asserting each ran what it should, and returns both results.
func runBothBackends(t *testing.T, b *kernels.Benchmark, g *graph.CSR, cfg Config) (interp, comp *Result) {
	t.Helper()
	ci := cfg
	ci.Backend = BackendInterp
	interp, err := Run(b, g, ci)
	if err != nil {
		t.Fatalf("%s interp: %v", b.Name, err)
	}
	cc := cfg
	cc.Backend = BackendAuto
	comp, err = Run(b, g, cc)
	if err != nil {
		t.Fatalf("%s compiled: %v", b.Name, err)
	}
	if interp.Backend != "interp" || comp.Backend != "compiled" {
		t.Fatalf("%s: backend pin not honored: %q / %q", b.Name, interp.Backend, comp.Backend)
	}
	return interp, comp
}

// requireBitIdentical compares the two results of a differential pair: modeled
// time, the full statistics counters and every output array must match bit for
// bit (floats compared on their bit patterns — the backends must take the
// exact same accumulation order, not merely be numerically close).
func requireBitIdentical(t *testing.T, label string, interp, comp *Result) {
	t.Helper()
	if interp.TimeMS != comp.TimeMS {
		t.Errorf("%s: modeled time diverges: interp %v ms, compiled %v ms",
			label, interp.TimeMS, comp.TimeMS)
	}
	if !reflect.DeepEqual(interp.Stats, comp.Stats) {
		t.Errorf("%s: stats diverge:\ninterp   %+v\ncompiled %+v",
			label, interp.Stats, comp.Stats)
	}
	ii, fi := snapshotOutputs(interp)
	ic, fc := snapshotOutputs(comp)
	for name, want := range ii {
		got := ic[name]
		if len(got) != len(want) {
			t.Errorf("%s: array %q length diverges", label, name)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: array %q diverges at [%d]: interp %d, compiled %d",
					label, name, i, want[i], got[i])
				break
			}
		}
	}
	for name, want := range fi {
		got := fc[name]
		if len(got) != len(want) {
			t.Errorf("%s: array %q length diverges", label, name)
			continue
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Errorf("%s: array %q diverges at [%d]: interp %v, compiled %v",
					label, name, i, want[i], got[i])
				break
			}
		}
	}
}

// TestCompiledMatchesInterpBitwise is the tentpole differential gate for the
// generated-Go backend: every benchmark (the paper's ten plus the two
// extensions), on every input family, under all three host execution modes,
// must produce bit-identical modeled time, statistics and outputs on both
// backends — the interpreter is the oracle, the generated code the candidate.
func TestCompiledMatchesInterpBitwise(t *testing.T) {
	modes := []struct {
		name string
		h    HostExec
	}{
		{"live", HostLive},
		{"cooperative", HostCooperative},
		{"parallel", HostParallel},
	}
	for _, b := range kernels.AllWithExtensions() {
		for _, raw := range testGraphs() {
			g := PrepareGraph(b, raw)
			for _, mode := range modes {
				label := b.Name + "/" + raw.Name + "/" + mode.name
				interp, comp := runBothBackends(t, b, g, Config{Tasks: 4, HostExec: mode.h})
				requireBitIdentical(t, label, interp, comp)
				if err := Verify(b, g, comp); err != nil {
					t.Errorf("%s: compiled output fails reference verification: %v", label, err)
				}
			}
		}
	}
}

// TestCompiledMatchesInterpUnderSell runs the differential gate with the
// SELL-C-σ layout policy on, so the generated dense-column loops and their
// runtime CSR-vs-SELL dispatch are compared against the interpreter's, not
// just the CSR paths.
func TestCompiledMatchesInterpUnderSell(t *testing.T) {
	for _, b := range kernels.AllWithExtensions() {
		g := PrepareGraph(b, graph.RMAT(9, 8, 16, 4))
		interp, comp := runBothBackends(t, b, g,
			Config{Tasks: 4, HostExec: HostParallel, Layout: LayoutSell})
		if interp.Layout != comp.Layout {
			t.Fatalf("%s: layout decision diverges: %q vs %q", b.Name, interp.Layout, comp.Layout)
		}
		requireBitIdentical(t, b.Name+"/sell", interp, comp)
		if comp.Layout == "sell" && comp.Stats.SellColumns == 0 {
			t.Errorf("%s: SELL attached but compiled run pushed no dense columns", b.Name)
		}
	}
}

// TestCompiledMatchesInterpUnderFaults drives both backends through identical
// fault-injection schedules with checkpointing, rollback and invariant
// verification on. Because generated kernels draw from the injector in the
// interpreter's exact order, the two runs must see the same faults, take the
// same rollbacks and end in the same state — recovery counters included.
func TestCompiledMatchesInterpUnderFaults(t *testing.T) {
	g0 := recoveryGraph()
	names := []string{"bfs-wl", "sssp-nf", "cc", "pr"}
	rates := []fault.Config{
		{Transient: 0.15},                  // pipe-window faults: rollback traffic
		{BitFlip: 0.3},                     // silent corruption: invariant rejections
		{GatherIndex: 0.001, BitFlip: 0.1}, // kernel-level draws inside generated code
	}
	totalRollbacks := 0
	for _, name := range names {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := PrepareGraph(b, g0)
		for ri, rate := range rates {
			for _, seed := range []uint64{7, 42} {
				// Each run gets its own injector: the PRNG is stateful, and
				// the whole point is that both backends draw the identical
				// stream from identical fresh state.
				cfg := func(bk Backend) Config {
					return Config{
						Backend:          bk,
						Tasks:            4,
						HostExec:         HostParallel,
						CheckpointEvery:  1,
						MaxRollbacks:     200,
						VerifyInvariants: true,
						Budget:           fault.Budget{MaxIters: 5000, StallWindow: 128},
						Inject:           fault.NewInjector(seed, rate),
					}
				}
				label := fmt.Sprintf("%s/rate#%d/seed%d", name, ri, seed)
				interp, ierr := Run(b, g, cfg(BackendInterp))
				comp, cerr := Run(b, g, cfg(BackendAuto))
				if (ierr == nil) != (cerr == nil) {
					t.Errorf("%s: error divergence: interp %v, compiled %v", label, ierr, cerr)
					continue
				}
				if ierr != nil {
					// Both runs died: they must have died the same death, at
					// the same modeled instant.
					if ierr.Error() != cerr.Error() {
						t.Errorf("%s: error text divergence:\ninterp   %v\ncompiled %v",
							label, ierr, cerr)
					}
					continue
				}
				if interp.Backend != "interp" || comp.Backend != "compiled" {
					t.Fatalf("%s: backend pin not honored: %q / %q",
						label, interp.Backend, comp.Backend)
				}
				requireBitIdentical(t, label, interp, comp)
				if interp.Recovery != comp.Recovery {
					t.Errorf("%s: recovery counters diverge: interp %+v, compiled %+v",
						label, interp.Recovery, comp.Recovery)
				}
				totalRollbacks += comp.Recovery.Rollbacks
			}
		}
	}
	if totalRollbacks == 0 {
		t.Error("no rollbacks anywhere in the sweep: injection misconfigured, gate is vacuous")
	}
}

// TestCompiledBackendFallback pins the degradation contract: a BackendAuto
// request the generated code cannot serve must not fail the run — core falls
// back to the interpreter, reports it in Result.Backend, and the outputs still
// verify. Covered gaps: a vector width the emitter does not target, and an
// optimization configuration whose post-opt IR fingerprint differs from what
// the checked-in code was generated from.
func TestCompiledBackendFallback(t *testing.T) {
	b, err := kernels.ByName("bfs-wl")
	if err != nil {
		t.Fatal(err)
	}
	g := PrepareGraph(b, graph.Road(16, 16, 8, 3))

	res, err := Run(b, g, Config{Backend: BackendAuto, Target: vec.TargetAVX2x4})
	if err != nil {
		t.Fatalf("width fallback: %v", err)
	}
	if res.Backend != "interp" {
		t.Errorf("width 4 run reports backend %q, want interp fallback", res.Backend)
	}
	if err := Verify(b, g, res); err != nil {
		t.Errorf("width fallback output: %v", err)
	}

	noNP := opt.Options{IO: true, CC: true}
	res, err = Run(b, g, Config{Backend: BackendAuto, Opts: &noNP})
	if err != nil {
		t.Fatalf("opt fallback: %v", err)
	}
	if res.Backend != "interp" {
		t.Errorf("non-default opt run reports backend %q, want interp fallback", res.Backend)
	}
	if err := Verify(b, g, res); err != nil {
		t.Errorf("opt fallback output: %v", err)
	}

	// The underlying error is typed: EnableCompiled on an uncovered
	// combination wraps compiled.ErrBackendUnsupported, which is what core
	// keys its degradation on.
	prog, err := opt.Apply(b.Prog, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := codegen.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := spmd.New(machine.Intel8(), vec.TargetAVX512x16, 4)
	inst, err := mod.Bind(e, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.EnableCompiled(); !errors.Is(err, compiled.ErrBackendUnsupported) {
		t.Errorf("EnableCompiled on uncovered program: got %v, want ErrBackendUnsupported", err)
	}
	if inst.CompiledEnabled() {
		t.Error("failed EnableCompiled left the backend enabled")
	}
}

// TestBackendKnobParses pins the CLI spellings.
func TestBackendKnobParses(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Backend
	}{{"", BackendAuto}, {"auto", BackendAuto}, {"interp", BackendInterp}} {
		got, err := ParseBackend(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBackend(%q) = %v, %v", c.in, got, err)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("Backend(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	// "compiled" names what ran (Result.Backend); it is not a knob value.
	for _, bad := range []string{"jit", "compiled"} {
		if _, err := ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend accepted %q", bad)
		}
	}
}

// FuzzBackendDifferential fuzzes the differential oracle itself: arbitrary
// small random graphs, a benchmark picked by the fuzzer, both backends, and
// the bit-identity requirement. Any interpreter/generated-code divergence the
// structured matrix misses is a crash here.
func FuzzBackendDifferential(f *testing.F) {
	f.Add(uint16(64), uint16(256), uint8(8), uint8(0), uint8(0))
	f.Add(uint16(200), uint16(900), uint8(16), uint8(3), uint8(1))
	f.Add(uint16(33), uint16(70), uint8(1), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, n, m uint16, maxW, bi, seed uint8) {
		if n < 2 {
			n = 2
		}
		if n > 512 {
			n = 512
		}
		if m > 4096 {
			m = 4096
		}
		benches := kernels.AllWithExtensions()
		b := benches[int(bi)%len(benches)]
		g := PrepareGraph(b, graph.Random(int32(n), int(m), int32(maxW)+1, uint64(seed)+1))
		cfg := Config{Tasks: 4, HostExec: HostCooperative, Src: int32(seed) % int32(n)}

		ci := cfg
		ci.Backend = BackendInterp
		interp, ierr := Run(b, g, ci)
		cc := cfg
		cc.Backend = BackendAuto
		comp, cerr := Run(b, g, cc)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("error divergence: interp %v, compiled %v", ierr, cerr)
		}
		if ierr != nil {
			if ierr.Error() != cerr.Error() {
				t.Fatalf("error text divergence: interp %v, compiled %v", ierr, cerr)
			}
			return
		}
		requireBitIdentical(t, b.Name, interp, comp)
	})
}
