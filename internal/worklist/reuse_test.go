package worklist

import (
	"testing"

	"repro/internal/spmd"
	"repro/internal/vec"
)

// fillSentinel writes v into every item slot of w, below and beyond the tail,
// and leaves size items live.
func fillSentinel(w *WL, v int32, size int32) {
	for i := range w.Items.I {
		w.Items.I[i] = v
	}
	w.tail.I[0] = size
}

// requireZero fails unless every item slot of w and its tail read zero.
func requireZero(t *testing.T, tenant string, w *WL) {
	t.Helper()
	if w.Size() != 0 {
		t.Fatalf("%s: %s starts with size %d", tenant, w.Name, w.Size())
	}
	for i, v := range w.Items.I {
		if v != 0 {
			t.Fatalf("%s: %s.items[%d] = %#x, a prior tenant's data", tenant, w.Name, i, v)
		}
	}
	if cap(w.Items.I) != w.Cap() {
		t.Fatalf("%s: %s.items reaches %d slots past its capacity", tenant, w.Name, cap(w.Items.I)-w.Cap())
	}
}

// TestResetAllIsolatesWorklistStorage is the isolation rule of engine-owned
// worklist storage: the engine hands a run's item and tail arrays to the next
// run after ResetAll, so the reuse must clear them. Tenant A fills its lists
// with sentinels; tenant B takes smaller lists and tenant C lists of A's size
// again, reaching slots B never saw. Neither may read anything of A's, and
// A's output array, which is not worklist storage, must keep its contents.
func TestResetAllIsolatesWorklistStorage(t *testing.T) {
	const sentinel = 0x41414141
	e := newEngine(spmd.ExecDeferred)

	out := e.AllocI("tenantA.out", 64)
	a := NewPair(e, "pipe", 64)
	far := New(e, "far", 64)
	for i := range out.I {
		out.I[i] = sentinel
	}
	for _, w := range []*WL{a.In, a.Out, far} {
		fillSentinel(w, sentinel, 5)
	}

	e.ResetAll(vec.TargetAVX512x16, 4)
	b := NewPair(e, "pipe", 32)
	bFar := New(e, "far", 32)
	if &b.In.Items.I[0] != &a.In.Items.I[0] {
		t.Fatal("tenant B did not get tenant A's first slab back: storage is not reused")
	}
	for _, w := range []*WL{b.In, b.Out, bFar} {
		requireZero(t, "tenant B", w)
	}

	e.ResetAll(vec.TargetAVX512x16, 4)
	c := NewPair(e, "pipe", 64)
	cFar := New(e, "far", 64)
	grown := New(e, "extra", 128) // a slab the earlier runs never had
	for _, w := range []*WL{c.In, c.Out, cFar, grown} {
		requireZero(t, "tenant C", w)
	}

	for i, v := range out.I {
		if v != sentinel {
			t.Fatalf("tenant A's output out[%d] = %#x after reuse, want the sentinel", i, v)
		}
	}
}
