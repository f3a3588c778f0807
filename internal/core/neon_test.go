package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/vec"
)

func mustParseOpts(t *testing.T, s string) opt.Options {
	t.Helper()
	o, err := opt.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// The ARM NEON target is this reproduction's extension of the paper's stated
// future work ("leave evaluation of ARM NEON to future work"). These tests
// pin its semantics: full correctness, AVX1-like feature set (no gathers,
// scatters or mask registers), and a SIMD win over serial on the ARM machine
// model despite emulated gathers.

func TestNEONFeatureSet(t *testing.T) {
	for _, tgt := range []vec.Target{vec.TargetNEON4, vec.TargetNEON8} {
		if tgt.HasNativeGather() || tgt.HasNativeScatter() || tgt.HasMaskRegisters() {
			t.Errorf("%v: NEON must not have gathers, scatters or opmasks", tgt)
		}
	}
	if vec.TargetNEON4.NativeWidth() != 4 {
		t.Error("NEON native width must be 4 (128-bit)")
	}
	// Emulated gathers cost per-lane scalar sequences, like AVX1.
	if vec.TargetNEON4.Lower(vec.ClassGather, true) != vec.TargetAVX1x4.Lower(vec.ClassGather, true) {
		t.Error("NEON gather lowering should match the AVX1 emulation")
	}
	for _, name := range []string{"neon", "neon-i32x4", "neon-i32x8"} {
		if _, err := vec.ParseTarget(name); err != nil {
			t.Errorf("ParseTarget(%q): %v", name, err)
		}
	}
	back, err := vec.ParseTarget(vec.TargetNEON8.String())
	if err != nil || back != vec.TargetNEON8 {
		t.Errorf("round trip: %v, %v", back, err)
	}
}

func TestNEONBeatsSerialOnARM(t *testing.T) {
	g := graph.Random(4096, 32768, 16, 9)
	b := mustKernel(t, "bfs-wl")
	m := machine.ARM64()
	src := g.MaxDegreeNode()
	serial, err := Run(b, g, func() Config {
		c := SerialConfig(m)
		c.Src = src
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	neon, err := Run(b, g, Config{Machine: m, Tasks: 1, NoSMT: true, Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if neon.TimeMS >= serial.TimeMS {
		t.Errorf("1-task NEON %v ms not faster than serial %v ms", neon.TimeMS, serial.TimeMS)
	}
	// But the win is smaller than AVX512's on Intel at the same width
	// budget: emulated gathers eat into it.
	intel := machine.Intel8()
	iSerial, err := Run(b, g, func() Config {
		c := SerialConfig(intel)
		c.Src = src
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	iSIMD, err := Run(b, g, Config{Machine: intel, Tasks: 1, NoSMT: true, Src: src})
	if err != nil {
		t.Fatal(err)
	}
	neonGain := serial.TimeMS / neon.TimeMS
	avxGain := iSerial.TimeMS / iSIMD.TimeMS
	if neonGain >= avxGain {
		t.Errorf("NEON gain %.2fx should trail avx512 gain %.2fx", neonGain, avxGain)
	}
}

func TestARMByName(t *testing.T) {
	m, err := machine.ByName("graviton")
	if err != nil || m.PreferredTarget != vec.TargetNEON4 {
		t.Fatalf("ByName(graviton) = %v, %v", m, err)
	}
}

// TestKCoreExtensionEndToEnd runs the k-core extension through the full
// pipeline on all inputs and optimization extremes.
func TestKCoreExtensionEndToEnd(t *testing.T) {
	b := mustKernel(t, "kcore")
	for _, raw := range graph.Suite(graph.ScaleTest, 3) {
		g := PrepareGraph(b, raw)
		for _, opts := range []string{"none", "all"} {
			o := mustParseOpts(t, opts)
			if _, err := RunVerified(b, g, Config{Opts: &o, Tasks: 4}); err != nil {
				t.Errorf("%s/%s: %v", raw.Name, opts, err)
			}
		}
	}
}

// TestPRDeltaExtensionEndToEnd verifies residual PageRank across inputs and
// optimization extremes.
func TestPRDeltaExtensionEndToEnd(t *testing.T) {
	b := mustKernel(t, "pr-delta")
	for _, raw := range graph.Suite(graph.ScaleTest, 5) {
		for _, opts := range []string{"none", "all"} {
			o := mustParseOpts(t, opts)
			if _, err := RunVerified(b, raw, Config{Opts: &o, Tasks: 4}); err != nil {
				t.Errorf("%s/%s: %v", raw.Name, opts, err)
			}
		}
	}
}
