package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// TestModelGolden is a cost-model regression tripwire: the flagship
// configuration on a fixed input must stay within a band around the values
// recorded when the model was calibrated (bfs-wl, road 64x64 seed 1, Intel
// defaults). A deliberate model retune should update these bands; an
// accidental one should fail here.
func TestModelGolden(t *testing.T) {
	g := graph.Road(64, 64, 64, 1)
	b := mustKernel(t, "bfs-wl")
	res, err := RunVerified(b, g, Config{Src: g.MaxDegreeNode()})
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, center float64) {
		if got < center*0.8 || got > center*1.2 {
			t.Errorf("%s = %.4g drifted beyond ±20%% of calibrated %.4g", name, got, center)
		}
	}
	within("time-ms", res.TimeMS, 0.20)
	within("instructions", float64(res.Stats.Instructions), 34000)
	within("atomics", float64(res.Stats.Atomics), 7600)
	if res.Stats.Launches != 1 {
		t.Errorf("launches = %d, want 1 (iteration outlining)", res.Stats.Launches)
	}
	u := res.Stats.LaneUtilization(16)
	if u < 0.55 || u > 0.95 {
		t.Errorf("lane utilization = %.2f outside calibrated band", u)
	}
}

// TestInstanceRerun: an Instance can be re-run (fresh init) and produces the
// same outputs; engine time accumulates across runs unless reset.
func TestInstanceRerun(t *testing.T) {
	g := graph.Road(16, 16, 8, 2)
	b, _ := kernels.ByName("sssp-nf")
	res, err := Run(b, g, Config{Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := append([]int32(nil), res.Instance.ArrayI("dist")...)
	t1 := res.Engine.TimeMS()

	res.Instance.Run() // second run, same instance
	if got := res.Engine.TimeMS(); got <= t1 {
		t.Error("engine time should accumulate across runs")
	}
	for i, d := range res.Instance.ArrayI("dist") {
		if d != first[i] {
			t.Fatalf("re-run changed dist[%d]", i)
		}
	}
	res.Engine.ResetTime()
	if res.Engine.TimeMS() != 0 {
		t.Error("ResetTime failed")
	}
	if err := Verify(b, g, res); err != nil {
		t.Fatal(err)
	}
}
