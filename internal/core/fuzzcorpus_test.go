package core

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// corpusBytes decodes one `go test fuzz v1` seed-corpus file with a single
// []byte argument.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a v1 fuzz corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: bad []byte literal: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzCorpusTriggersInvariant ties the graph-reader fuzz corpus to the
// invariant layer: the chain-invariant-trigger seed parses into a valid graph
// (the reader contract the fuzzer enforces) whose long-diameter BFS gives the
// checkpoint validators many iterations to observe injected bit flips — so
// corrupting a run over it demonstrably trips an invariant violation and
// recovers. This pins the corpus entry as a live fixture for the failure
// model, not just reader coverage.
func TestFuzzCorpusTriggersInvariant(t *testing.T) {
	data := corpusBytes(t, "../graph/testdata/fuzz/FuzzReadEdgeList/chain-invariant-trigger")
	g0, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("corpus seed no longer parses: %v", err)
	}
	if verr := g0.Validate(); verr != nil {
		t.Fatalf("corpus seed violates the reader contract: %v", verr)
	}
	b := mustKernel(t, "bfs-wl")
	g := PrepareGraph(b, g0)
	for seed := uint64(1); seed <= 80; seed++ {
		res, err := Run(b, g, Config{
			Src:              0,
			Tasks:            4,
			HostExec:         HostCooperative,
			CheckpointEvery:  1,
			MaxRollbacks:     200,
			VerifyInvariants: true,
			Inject:           fault.NewInjector(seed, fault.Config{BitFlip: 0.4}),
		})
		if err != nil || res.Recovery.BadCheckpoints == 0 {
			continue
		}
		if Verify(b, g, res) != nil {
			continue
		}
		t.Logf("seed %d: corpus graph corruption detected (%d bad checkpoints, %d rollbacks) and recovered",
			seed, res.Recovery.BadCheckpoints, res.Recovery.Rollbacks)
		return
	}
	t.Error("no seed in [1,80] trips an invariant violation on the corpus graph")
}
