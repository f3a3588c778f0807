// Package kernels defines the ten benchmark graph algorithms of the paper's
// evaluation (Table VIII) as IrGL IR programs: four BFS variants (worklist,
// claim/expand, topology-driven, hybrid), near-far SSSP, connected
// components, triangle counting, maximal independent set, PageRank, and
// Boruvka MST — together with serial reference implementations used to
// verify every compiled configuration's output.
package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Inf is the "unreached" distance/level marker (fits int32 with headroom for
// weight additions).
const Inf int32 = 1 << 30

// Benchmark couples a program with its input requirements and a verifier.
type Benchmark struct {
	Name string
	// Prog is the unoptimized program; run it through opt.Apply.
	Prog *ir.Program
	// NeedsSymmetric marks algorithms defined on undirected graphs (cc,
	// tri, mis, mst); the harness symmetrizes inputs for them.
	NeedsSymmetric bool
	// OrderSensitive marks algorithms whose outputs depend on the order
	// nodes are processed in — float accumulation rounds differently under
	// a reordering. The layout policy pins them to CSR: a SELL layout's
	// degree-sorted sweep order would change their bits. Integer fixpoint
	// kernels (BFS levels, components, MIS, MST, triangle counts) converge
	// to order-independent results and stay eligible.
	OrderSensitive bool
	// DenseSweep marks kernels whose dominant edge loop sweeps the whole
	// domain at full occupancy every round (cc, tri, mst): the static
	// per-kernel minimum on the calibrated machine model, measured by the
	// layout bench experiment. The auto layout policy attaches SELL-C-σ
	// only to these; frontier-driven and convergence-order-sensitive
	// kernels keep CSR (forcing -layout=sell still overrides).
	DenseSweep bool
	// Check, when set, rejects a prepared input the program cannot handle
	// with a fault.ErrUnsupportedInput; core.Run calls it before compiling.
	Check func(g *graph.CSR) error
	// Params returns input-specific parameter defaults (e.g. SSSP delta).
	Params func(g *graph.CSR) map[string]int32
	// Verify checks outputs (by bound array) against the serial reference.
	Verify func(g *graph.CSR, get func(name string) []int32, getF func(name string) []float32, src int32) error
	// Reference computes the benchmark's output arrays serially: the last
	// resort of RunResilient's degradation chain. The returned maps use the
	// same array names as the compiled program, so Verify accepts them.
	Reference func(g *graph.CSR, params map[string]int32, src int32) *RunOutput
}

// builders lists every benchmark constructor under the name it builds, the
// paper's suite first in presentation order (Table VIII), then the
// extensions. It exists so ByName can construct the one benchmark asked for:
// building an IR program costs a few KB, and the serving layer resolves a
// name on every request.
var builders = []struct {
	name  string
	build func() *Benchmark
}{
	{"bfs-wl", BFSWL}, {"bfs-cx", BFSCX}, {"bfs-tp", BFSTP}, {"bfs-hb", BFSHB},
	{"sssp-nf", SSSPNF}, {"cc", CC}, {"tri", TRI}, {"mis", MIS}, {"pr", PR}, {"mst", MST},
	{"kcore", KCore}, {"pr-delta", PRDelta},
}

// paperSuite is the number of leading builders that are the paper's suite.
const paperSuite = 10

func buildAll(n int) []*Benchmark {
	out := make([]*Benchmark, 0, n)
	for _, b := range builders[:n] {
		out = append(out, b.build())
	}
	return out
}

// All returns the paper's benchmark suite in presentation order (Table VIII).
func All() []*Benchmark { return buildAll(paperSuite) }

// AllWithExtensions returns the paper suite followed by the extensions.
func AllWithExtensions() []*Benchmark { return buildAll(len(builders)) }

// ByName returns the named benchmark (paper suite or extension).
func ByName(name string) (*Benchmark, error) {
	for _, b := range builders {
		if b.name == name {
			return b.build(), nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// Names lists the paper suite's benchmark names in order.
func Names() []string {
	out := make([]string, paperSuite)
	for i, b := range builders[:paperSuite] {
		out[i] = b.name
	}
	return out
}

func verifyLevels(g *graph.CSR, got []int32, src int32) error {
	want := RefBFS(g, src)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bfs level of node %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
