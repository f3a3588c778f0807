package core

import (
	"errors"
	"testing"

	"repro/internal/codegen"
	"repro/internal/compiled"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// TestCompiledBackendFallback pins the degradation contract: a BackendAuto
// request the generated code cannot serve must not fail the run — core falls
// back to the interpreter, reports it in Result.Backend, and the outputs still
// verify. Covered gaps: a vector width the emitter does not target, and an
// optimization configuration whose post-opt IR fingerprint differs from what
// the checked-in code was generated from.
func TestCompiledBackendFallback(t *testing.T) {
	b := mustKernel(t, "bfs-wl")
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
		if err := snapshot(interp, ierr).diff(snapshot(comp, cerr), fAll&^fBackend, nil); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	})
}
