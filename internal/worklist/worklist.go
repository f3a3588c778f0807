// Package worklist implements the concurrent dense worklists that
// work-efficient EGACS kernels use to track active nodes (Section III-C).
// A worklist is an items array plus a shared tail counter; pushes reserve
// space by atomically advancing the tail. Three push strategies mirror the
// paper's cooperative-conversion levels:
//
//   - PushLanes: one hardware atomic per active lane (unoptimized).
//   - PushCoop: popcnt(lanemask()) + one atomic + packed_store_active per
//     vector (task-level cooperative conversion).
//   - Reserve + WriteReserved: a single atomic for many vectors' worth of
//     pushes whose count is known in advance (fiber-level cooperative
//     conversion, applicable to bfs-cx and bfs-hb).
package worklist

import (
	"repro/internal/fault"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// DebugPanics restores the legacy crash-on-overflow behavior: capacity
// violations panic instead of surfacing typed errors. Tests of the overflow
// detection itself use it; production paths leave it off.
var DebugPanics bool

// WL is one dense worklist.
type WL struct {
	Name  string
	Items *spmd.Array
	tail  *spmd.Array // single shared scalar
	e     *spmd.Engine
	id    int32 // dense push-target id (deferred batch-table slot)
	// Grow lets the list reallocate (doubling) instead of failing when a
	// push or init exceeds capacity. Injected overflows fire regardless,
	// so fault campaigns exercise the overflow path even on growable lists.
	Grow bool
}

// New allocates a worklist with the given capacity. Its items and tail live
// in the engine's scratch storage (spmd.Engine.AllocScratchI): a list is
// valid until the engine's next ResetAll, which hands the storage to the
// next run.
func New(e *spmd.Engine, name string, capacity int) *WL {
	return &WL{
		Name:  name,
		Items: e.AllocScratchI(name+".items", capacity),
		tail:  e.AllocScratchI(name+".tail", 1),
		e:     e,
		id:    e.RegisterPushTarget(),
	}
}

// PushID implements spmd.PushTarget: the engine-assigned dense id deferred
// tasks use to find this list's staging batch without hashing.
func (w *WL) PushID() int32 { return w.id }

// Cap returns the worklist capacity.
func (w *WL) Cap() int { return w.Items.Len() }

// Size returns the current item count (host-side, uncounted).
func (w *WL) Size() int32 { return w.tail.I[0] }

// SizeCounted returns the item count as a counted uniform scalar load.
func (w *WL) SizeCounted(tc *spmd.TaskCtx) int32 {
	return tc.ScalarLoadI(w.tail, 0)
}

// Clear empties the worklist (host-side).
func (w *WL) Clear() { w.tail.I[0] = 0 }

// InitSequence fills the worklist with 0..n-1 (host-side, e.g. the initial
// all-nodes worklist of CC or MIS). Exceeding capacity grows the list when
// Grow is set and returns a typed overflow error otherwise.
func (w *WL) InitSequence(n int32) error {
	w.Clear()
	if err := w.ensureRoom(n); err != nil {
		return err
	}
	for i := int32(0); i < n; i++ {
		w.Items.I[i] = i
	}
	w.tail.I[0] = n
	return nil
}

// InitWith fills the worklist with the given items (host-side).
func (w *WL) InitWith(items ...int32) error {
	w.Clear()
	if err := w.ensureRoom(int32(len(items))); err != nil {
		return err
	}
	copy(w.Items.I, items)
	w.tail.I[0] = int32(len(items))
	return nil
}

// Slice returns the current items (aliasing storage; host-side inspection).
func (w *WL) Slice() []int32 { return w.Items.I[:w.Size()] }

// Get gathers items at the given positions for active lanes.
func (w *WL) Get(tc *spmd.TaskCtx, pos vec.Vec, m vec.Mask, old vec.Vec) vec.Vec {
	tc.GatherIP(w.Items, &pos, m, false, &old)
	return old
}

// overflowErr builds the typed error for a failed room check.
func (w *WL) overflowErr(n int32, injected bool) *fault.OverflowError {
	return &fault.OverflowError{
		Worklist: w.Name, Size: w.tail.I[0], Push: n,
		Cap: int32(w.Cap()), Injected: injected,
	}
}

// grow reallocates the items array to hold at least need elements, doubling
// capacity. The swap only happens while the engine is single-threaded — in
// live mode exactly one task runs at a time, and in the deferred modes grow
// is reached only from host-side init or boundary materialization — and
// positions already reserved stay valid.
func (w *WL) grow(need int) {
	newCap := 2 * w.Cap()
	if newCap < need {
		newCap = need
	}
	items := w.e.AllocScratchI(w.Name+".items", newCap)
	copy(items.I, w.Items.I)
	w.Items = items
}

// ensureRoom makes room for n more items. Forced-overflow injection yields a
// typed error regardless of Grow; genuine exhaustion grows the list when
// Grow is set, panics under DebugPanics, and returns a typed error otherwise.
func (w *WL) ensureRoom(n int32) error {
	if w.e != nil && w.e.Inject.ForceOverflow(w.Name) {
		return w.overflowErr(n, true)
	}
	need := int(w.tail.I[0]) + int(n)
	if need <= w.Cap() {
		return nil
	}
	if w.Grow {
		w.grow(need)
		return nil
	}
	err := w.overflowErr(n, false)
	if DebugPanics {
		panic(err.Error())
	}
	return err
}

// checkRoom is the task-side room check: a violation unwinds the task with a
// typed error that the enclosing Launch returns.
func (w *WL) checkRoom(tc *spmd.TaskCtx, n int32) {
	if err := w.ensureRoom(n); err != nil {
		tc.Fail(err)
	}
}

// PushLanes pushes active lanes of val with one atomic reservation per lane:
// the unoptimized vector-to-scalar atomic pattern.
//
// Deferred tasks stage the items into a private batch that materializes at
// the segment boundary in task order; the cost sequence (per-lane tail
// atomics, scatter op, per-slot item accesses) mirrors the live path.
func (w *WL) PushLanes(tc *spmd.TaskCtx, val vec.Vec, m vec.Mask) {
	n := int32(m.PopCount())
	if n == 0 {
		return
	}
	if tc.Deferred() {
		b := tc.Batch(w)
		for i := int32(0); i < n; i++ {
			tc.NoteShared(w.tail, 0)
		}
		tc.CountAtomics(int(n), true, true)
		off := b.StageMasked(val, m, tc.Width)
		tc.Op(vec.ClassScatter, true)
		tc.NoteStaged(b, off, n)
		return
	}
	w.checkRoom(tc, n)
	slots := tc.AtomicAddLanesContended(w.tail, 0, m, true)
	tc.ScatterIP(w.Items, &slots, &val, m)
}

// PushCoop pushes active lanes with task-level cooperative conversion:
// popcnt of the lane mask, a single atomic reservation, and a packed store
// (the push_task pattern from Section III-C).
func (w *WL) PushCoop(tc *spmd.TaskCtx, val vec.Vec, m vec.Mask) {
	n := int32(m.PopCount())
	if n == 0 {
		// The mask popcount still executes.
		tc.ScalarOps(1)
		return
	}
	if tc.Deferred() {
		tc.ScalarOps(1) // popcnt(lanemask())
		tc.NoteShared(w.tail, 0)
		tc.CountAtomics(1, true, true)
		b := tc.Batch(w)
		off := b.StageMasked(val, m, tc.Width)
		tc.Op(vec.ClassPacked, true)
		tc.NoteStaged(b, off, n)
		return
	}
	w.checkRoom(tc, n)
	tc.ScalarOps(1) // popcnt(lanemask())
	idx := tc.AtomicAddScalar(w.tail, 0, n, true)
	tc.PackedStore(w.Items, idx, val, m)
}

// Reserve atomically reserves n slots and returns the starting index:
// fiber-level cooperative conversion where the total push count is known in
// advance. Deferred tasks reserve inside their private batch and get a
// batch-relative position; WriteReserved resolves against the same batch, so
// callers that treat the result as an advancing cursor work unchanged.
func (w *WL) Reserve(tc *spmd.TaskCtx, n int32) int32 {
	if tc.Deferred() {
		b := tc.Batch(w)
		if n == 0 {
			return b.Len()
		}
		tc.NoteShared(w.tail, 0)
		tc.CountAtomics(1, true, true)
		return b.ReserveSlots(n)
	}
	if n == 0 {
		return w.tail.I[0]
	}
	w.checkRoom(tc, n)
	return tc.AtomicAddScalar(w.tail, 0, n, true)
}

// WriteReserved packs active lanes of val into previously reserved space at
// pos and returns the number written (no atomic).
func (w *WL) WriteReserved(tc *spmd.TaskCtx, pos int32, val vec.Vec, m vec.Mask) int32 {
	if tc.Deferred() {
		b := tc.Batch(w)
		tc.Op(vec.ClassPacked, true)
		n := b.WriteAt(pos, val, m, tc.Width)
		tc.NoteStaged(b, pos, n)
		return n
	}
	return int32(tc.PackedStore(w.Items, pos, val, m))
}

// Materialize implements spmd.PushTarget: it commits one task's staged items
// at the current tail — the deterministic reservation step of the deferred
// merge — growing the list when permitted and returning the backing array
// and start index so staged cost traces can resolve to real addresses.
func (w *WL) Materialize(items []int32) (*spmd.Array, int32, error) {
	if err := w.ensureRoom(int32(len(items))); err != nil {
		return nil, 0, err
	}
	start := w.tail.I[0]
	copy(w.Items.I[start:], items)
	w.tail.I[0] = start + int32(len(items))
	return w.Items, start, nil
}

var _ spmd.PushTarget = (*WL)(nil)

// PushHost appends an item without cost accounting (pipe setup between
// launches).
func (w *WL) PushHost(item int32) error {
	if err := w.ensureRoom(1); err != nil {
		return err
	}
	w.Items.I[w.tail.I[0]] = item
	w.tail.I[0]++
	return nil
}

// Pair is a double-buffered in/out worklist pair, swapped between pipe
// iterations.
type Pair struct {
	In, Out *WL
}

// NewPair allocates a double-buffered pair.
func NewPair(e *spmd.Engine, name string, capacity int) *Pair {
	return &Pair{
		In:  New(e, name+".in", capacity),
		Out: New(e, name+".out", capacity),
	}
}

// Swap exchanges in and out and clears the new out, recording the swap (with
// the new frontier size) on the engine's trace when one is attached. Swaps
// happen at single-writer points — the host pipeline or the task-0 control
// segment of an outlined program — so the unsynchronized note is safe.
func (p *Pair) Swap() {
	p.In, p.Out = p.Out, p.In
	p.Out.Clear()
	p.In.e.NoteSwap(int(p.In.Size()))
}
