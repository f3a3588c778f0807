package spmd

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/vec"
)

// Deferred execution splits what a task computes from how its effects and
// costs are ordered, so tasks can run concurrently while modeled time stays
// bit-identical to the serial reference:
//
//   - Every task observes the segment-start committed state plus its own
//     writes (a private epoch-stamped shadow of each array it wrote).
//     Cross-task writes become visible only at the next barrier — each task
//     behaves like the first task of a cooperative schedule.
//   - Writes and atomics append to a private, ordered operation log; memory
//     accesses append (addr, kind) events to a private trace; worklist
//     pushes stage into private batches.
//   - At every barrier and launch boundary the engine merges task state in
//     task order: batches materialize into the shared worklists
//     (deterministic reservation), traces replay through machine.MemModel
//     (reproducing the serial access order, hence identical hit levels and
//     stalls), operation logs apply, and stat shards fold into Engine.Stats.
//
// Both the cooperative reference scheduler (ExecDeferred) and the parallel
// scheduler (ExecParallel) execute exactly this semantics with exactly this
// merge order, so their modeled cycles, instruction counts and outputs are
// bit-identical by construction.
//
// The per-lane hot path (loadI/storeI/noteAccess/Batch) is allocation-free
// and hash-free in steady state: pending writes live in direct-indexed
// shadow buffers invalidated by an epoch bump, push batches resolve through
// a dense-id table, and all segment buffers are pooled with capacity
// carried across segments, launches and engines (defPool).

// shadow is one task's pending-write view of one array: a direct-indexed
// buffer of packed (epoch stamp, value bits) words. An element holds a
// pending write iff sv[idx]>>32 == epoch, so clearing the whole shadow at a
// segment boundary is a single counter bump — no per-element work, no map —
// and a lookup or store touches ONE cache line per element instead of the
// two a split stamp/value pair would cost (the deferred write path is the
// hottest loop in the whole cost model). Value bits hold the int32 directly
// or the float32's IEEE bits; the array's kind decides the interpretation.
type shadow struct {
	arr   *Array
	sv    []uint64 // stamp<<32 | value bits
	epoch uint32
}

// clear invalidates every pending element in O(1) by advancing the epoch.
// On the (astronomically rare) wrap to 0 the packed words are rewritten so
// stale stamps can never alias a future epoch.
func (sh *shadow) clear() {
	sh.epoch++
	if sh.epoch == 0 {
		for i := range sh.sv {
			sh.sv[i] = 0
		}
		sh.epoch = 1
	}
}

// Operation-log opcodes. Adds merge as commutative deltas; mins and CASes
// merge against the live value so the committed state transitions exactly
// once per location regardless of how many tasks believe they won.
const (
	opStoreI = uint8(iota)
	opStoreF
	opAddI
	opAddF
	opMinI
	opCASI
)

// memOp is one logged write, applied to the committed arrays at merge time.
// The array is carried as its dense engine-assigned id rather than a
// pointer: the ops log is the largest per-segment stream the deferred path
// appends to, and a pointer field would drag a GC write barrier into every
// store/add/min/CAS on the hot path (and pad the struct to 32 bytes).
type memOp struct {
	idx int32
	iv  int32   // value (store/add/min/CAS-new)
	old int32   // CAS expected value
	fv  float32 // float value
	aid int32   // dense Array id (Engine.arrays index)
	op  uint8
}

// Access-trace encoding: one int64 per event, carrying a repeat count so a
// run of accesses to one cache line (or one staged-slot range) costs one
// trace word instead of one per lane:
//
//	committed: rep<<56 | addr<<3 | kind<<1 | 0
//	staged:    rep<<56 | batch<<34 | offset<<3 | kind<<1 | 1
//
// rep is the number of extra repeats beyond the first access (0..127, the
// sign bit stays clear). A committed word with rep > 0 encodes rep+1
// back-to-back accesses of the same kind to the same line: replay probes the
// hierarchy once and accounts the repeats as guaranteed L1 hits
// (machine.MemModel.RepeatHits), so replay work scales with touched lines, not
// lanes. A staged word with rep > 0 encodes rep+1 consecutive batch slots;
// their absolute addresses resolve at materialization, so replay expands
// them individually.
const (
	accStagedBit  = int64(1)
	accKindShift  = 1
	accAddrShift  = 3
	accOffMask    = int64(1)<<31 - 1
	accBatchShift = 34
	accBatchMask  = int64(1)<<22 - 1
	accAddrMask   = int64(1)<<53 - 1
	accCountShift = 56
	accMaxCount   = int64(127)
)

// PushTarget is implemented by worklists: Materialize commits a task's
// staged items at the current tail (growing if permitted) and reports the
// backing array and start index so staged trace events can be resolved.
// PushID returns the target's dense engine-assigned id
// (Engine.RegisterPushTarget), which tasks use to index their batch table
// without hashing.
type PushTarget interface {
	Materialize(items []int32) (*Array, int32, error)
	PushID() int32
}

// PushBatch accumulates one task's staged pushes to one target within a
// segment. Offsets into the batch are stable; the batch's absolute position
// is assigned at merge time in task order, reproducing the layout a serial
// schedule would produce. Batches are pooled per task context: reset returns
// them to a free list with item capacity intact.
type PushBatch struct {
	target PushTarget
	id     int32 // dense PushTarget id (batchTab slot)
	index  int   // position in the task's batch list (trace encoding)
	items  []int32

	// Resolved at materialization.
	arr   *Array
	start int32
}

// Len returns the number of staged items.
func (b *PushBatch) Len() int32 { return int32(len(b.items)) }

// StageMasked appends the active lanes of val in lane order and returns
// their starting offset within the batch.
func (b *PushBatch) StageMasked(val vec.Vec, m vec.Mask, width int) int32 {
	off := int32(len(b.items))
	for i := 0; i < width; i++ {
		if m.Bit(i) {
			b.items = append(b.items, val[i])
		}
	}
	return off
}

// ReserveSlots extends the batch by n zeroed slots and returns their
// starting offset (the deferred analogue of an atomic tail reservation).
func (b *PushBatch) ReserveSlots(n int32) int32 {
	off := int32(len(b.items))
	for j := int32(0); j < n; j++ {
		b.items = append(b.items, 0)
	}
	return off
}

// WriteAt packs the active lanes of val into the batch starting at pos and
// returns the number written, extending the batch if a kernel writes past
// its reservation.
func (b *PushBatch) WriteAt(pos int32, val vec.Vec, m vec.Mask, width int) int32 {
	k := pos
	for i := 0; i < width; i++ {
		if !m.Bit(i) {
			continue
		}
		if int(k) < len(b.items) {
			b.items[k] = val[i]
		} else {
			b.items = append(b.items, val[i])
		}
		k++
	}
	return k - pos
}

// Segment costing modes. A segment starts undecided. The driver may mark it
// stage-free (MarkStageFree) before its first access: stage-free cooperative
// segments probe the memory hierarchy immediately during execution — tasks
// run serially in task order, so the probe order is exactly the order a
// trace replay would produce — and charge each stall to the task's class
// bucket at the probe, as a live task does. That sum is the one a replay
// would produce: the access-stall classes receive no other charge during a
// deferred segment (atomic stalls have their own classes), aggregateSegment
// zeroes the buckets at every segment end, and the stall table is rebuilt
// only at launch, so 0+a1+a2+… in place is the replay's 0+(a1+a2+…). Any
// access before a mark locks the segment into recording mode, and parallel
// launches always record: concurrent tasks cannot touch the shared hierarchy
// mid-segment.
const (
	segUndecided = uint8(iota)
	segRecording
	segImmediate
)

// deferredCtx is one task's private effect state for the current segment.
// Contexts are pooled on the engine across launches, so the shadow buffers,
// logs and batches below keep their capacity for the lifetime of a kernel
// pipeline.
type deferredCtx struct {
	// shadows holds this task's pending-write buffers, direct-indexed by
	// Array id (engine-assigned, dense). Entries persist across segments
	// and launches; a segment boundary only bumps each shadow's epoch.
	shadows []*shadow

	ops []memOp
	acc []int64

	// mode is the segment's costing mode (segUndecided / segRecording /
	// segImmediate).
	mode uint8

	batches  []*PushBatch
	batchTab []*PushBatch // direct-indexed by PushTarget id
	freeB    []*PushBatch

	// lastA/lastSh memoize the most recent shadowFor resolution. Kernel
	// inner loops hammer one array across consecutive lanes and ops, so the
	// common case collapses to a single pointer compare.
	lastA  *Array
	lastSh *shadow

	// dedupShift enables line-level trace compression when non-zero: two
	// consecutive accesses with equal addr>>dedupShift share a cache line,
	// so the second is recorded as a repeat. Zero (no compression) when a
	// pager is attached, because page-residency bookkeeping needs every
	// access replayed at its own address.
	dedupShift uint

	serialAtomics float64

	// phLog records the names of this task's phase transitions during the
	// segment; the merge boundary replays it through the attribution cursor
	// and reset clears it. Capacity persists across segments via the pool.
	phLog []string

	// gen is the engine reuse generation this context's dense-id-keyed
	// state was built under (see Engine.gen / Engine.ResetAll).
	gen uint64
}

// dropLayout discards the context's layout-dependent state: shadow buffers
// and the batch table, both direct-indexed by dense engine-assigned ids that
// a reused engine reissues from 0. Called on first acquisition after an
// Engine.ResetAll; layout-independent capacity (ops, traces, pooled batch
// item slices) survives. Stale pointers are nilled before truncation so they
// can never resurface through a later in-place append over the same backing
// array.
func (d *deferredCtx) dropLayout() {
	d.lastA, d.lastSh = nil, nil
	for i := range d.shadows {
		d.shadows[i] = nil
	}
	d.shadows = d.shadows[:0]
	for i := range d.batchTab {
		d.batchTab[i] = nil
	}
	d.batchTab = d.batchTab[:0]
}

// shadowFor returns the task's shadow for a, creating it lazily sized to the
// array. Array ids are dense per engine, so the slow path is a slice index;
// the fast path is one pointer compare against the last resolution.
func (d *deferredCtx) shadowFor(a *Array) *shadow {
	if a == d.lastA {
		return d.lastSh
	}
	id := int(a.id)
	if id >= len(d.shadows) {
		d.shadows = append(d.shadows, make([]*shadow, id+1-len(d.shadows))...)
	}
	sh := d.shadows[id]
	if sh == nil {
		sh = &shadow{arr: a, sv: make([]uint64, a.Len()), epoch: 1}
		d.shadows[id] = sh
	} else if sh.arr != a {
		// Ids are engine-scoped; a collision means an array from a foreign
		// engine reached this engine's launch.
		panic(fmt.Sprintf("spmd: array %q does not belong to this engine", a.Name))
	}
	d.lastA, d.lastSh = a, sh
	return sh
}

// reset clears the segment state, keeping allocated capacity: shadows are
// invalidated by epoch bumps and batches return to the free list.
func (d *deferredCtx) reset() {
	for _, sh := range d.shadows {
		if sh != nil {
			sh.clear()
		}
	}
	for _, b := range d.batches {
		d.batchTab[b.id] = nil
		b.target = nil
		b.arr = nil
		b.items = b.items[:0]
		d.freeB = append(d.freeB, b)
	}
	d.batches = d.batches[:0]
	d.ops = d.ops[:0]
	d.acc = d.acc[:0]
	d.mode = segUndecided
	d.serialAtomics = 0
	d.phLog = d.phLog[:0]
}

// loadI reads one element under the task's view: its own pending write if
// present, the segment-start committed value otherwise. The lookup is one
// packed-word read and an epoch compare — no hashing, no allocation.
func (d *deferredCtx) loadI(a *Array, idx int32) int32 {
	if id := int(a.id); id < len(d.shadows) {
		if sh := d.shadows[id]; sh != nil {
			if w := sh.sv[idx]; uint32(w>>32) == sh.epoch {
				return int32(uint32(w))
			}
		}
	}
	return a.I[idx]
}

func (d *deferredCtx) loadF(a *Array, idx int32) float32 {
	if id := int(a.id); id < len(d.shadows) {
		if sh := d.shadows[id]; sh != nil {
			if w := sh.sv[idx]; uint32(w>>32) == sh.epoch {
				return math.Float32frombits(uint32(w))
			}
		}
	}
	return a.F[idx]
}

func (d *deferredCtx) storeI(a *Array, idx, v int32) {
	sh := d.shadowFor(a)
	sh.sv[idx] = uint64(sh.epoch)<<32 | uint64(uint32(v))
	d.ops = append(d.ops, memOp{aid: a.id, idx: idx, op: opStoreI, iv: v})
}

func (d *deferredCtx) storeF(a *Array, idx int32, v float32) {
	sh := d.shadowFor(a)
	sh.sv[idx] = uint64(sh.epoch)<<32 | uint64(math.Float32bits(v))
	d.ops = append(d.ops, memOp{aid: a.id, idx: idx, op: opStoreF, fv: v})
}

func (d *deferredCtx) addI(a *Array, idx, delta int32) int32 {
	sh := d.shadowFor(a)
	old := a.I[idx]
	if w := sh.sv[idx]; uint32(w>>32) == sh.epoch {
		old = int32(uint32(w))
	}
	sh.sv[idx] = uint64(sh.epoch)<<32 | uint64(uint32(old+delta))
	d.ops = append(d.ops, memOp{aid: a.id, idx: idx, op: opAddI, iv: delta})
	return old
}

func (d *deferredCtx) addF(a *Array, idx int32, delta float32) {
	sh := d.shadowFor(a)
	old := a.F[idx]
	if w := sh.sv[idx]; uint32(w>>32) == sh.epoch {
		old = math.Float32frombits(uint32(w))
	}
	sh.sv[idx] = uint64(sh.epoch)<<32 | uint64(math.Float32bits(old+delta))
	d.ops = append(d.ops, memOp{aid: a.id, idx: idx, op: opAddF, fv: delta})
}

// applyOp commits one logged write, resolving the array through the engine's
// dense registry. Values were counted at execution time; application is
// functional only.
func applyOp(e *Engine, o *memOp) {
	a := e.arrays[o.aid]
	switch o.op {
	case opStoreI:
		a.I[o.idx] = o.iv
	case opStoreF:
		a.F[o.idx] = o.fv
	case opAddI:
		a.I[o.idx] += o.iv
	case opAddF:
		a.F[o.idx] += o.fv
	case opMinI:
		if o.iv < a.I[o.idx] {
			a.I[o.idx] = o.iv
		}
	case opCASI:
		if a.I[o.idx] == o.old {
			a.I[o.idx] = o.iv
		}
	}
}

// --- TaskCtx deferred plumbing ---

// Deferred reports whether this task runs with deferred effects (private
// shards merged at barriers). The worklist package branches on it to stage
// pushes instead of mutating shared tails.
func (tc *TaskCtx) Deferred() bool { return tc.def != nil }

// MarkStageFree declares that the current segment will stage no worklist
// pushes, letting a cooperative deferred task probe the memory hierarchy
// immediately, and charge each stall at the probe, instead of recording an
// access trace. Tasks run serially in task order in that mode, so immediate
// probes evolve the cache in exactly the order a merge-time replay would, and
// the stalls add up in each class bucket in the replay's float order (see the
// segment modes) — modeled time, statistics and hit counters are
// bit-identical to a recorded segment. The mark must precede the segment's
// first access (a prior access locks recording mode) and is ignored in live
// mode (no deferral) and parallel mode (concurrent tasks must not touch the
// shared hierarchy mid-segment). Every task of a launch runs the same driver code,
// so all tasks of a segment decide identically and the global probe order
// is preserved.
func (tc *TaskCtx) MarkStageFree() {
	if d := tc.def; d != nil && tc.serialDef && d.mode == segUndecided {
		d.mode = segImmediate
	}
}

// noteAccess accounts one memory access. Live mode and stage-free
// cooperative segments page and probe the cache and charge the stall
// immediately; recording mode appends a trace event replayed at the segment
// boundary — folding the access into the previous trace word when both hit
// the same cache line, so gather/scatter runs over hot lines cost one word,
// not one per lane. All paths charge through the same Mem.Access probe and
// the engine's premultiplied stall table, so stalls are identical by
// construction.
func (tc *TaskCtx) noteAccess(addr int64, kind machine.AccessKind) {
	if d := tc.def; d != nil && d.mode != segImmediate {
		d.mode = segRecording
		if s := d.dedupShift; s != 0 {
			if n := len(d.acc); n > 0 {
				last := d.acc[n-1]
				if last&accStagedBit == 0 &&
					(last>>accKindShift)&3 == int64(kind) &&
					last>>accCountShift < accMaxCount &&
					((last>>accAddrShift)&accAddrMask)>>s == addr>>s {
					d.acc[n-1] = last + 1<<accCountShift
					return
				}
			}
		}
		d.acc = append(d.acc, addr<<accAddrShift|int64(kind)<<accKindShift)
		return
	}
	e := tc.E
	if e.Pager != nil {
		tc.touchPage(addr)
	}
	tc.stl[accCostClass[kind]] += e.stallTab[kind][e.Mem.Access(tc.core, addr)]
}

// Batch returns the task's staging batch for the given push target, creating
// it on first use. Creation order is the materialization order within the
// task, mirroring the program order of a serial schedule. Targets resolve
// through a dense-id table; batch objects are pooled across segments.
func (tc *TaskCtx) Batch(t PushTarget) *PushBatch {
	d := tc.def
	if d.mode == segImmediate {
		// The driver promised a stage-free segment (MarkStageFree) and the
		// kernel staged anyway: its probes already hit the hierarchy, so
		// recording can no longer reproduce the serial order. This is a
		// driver bug (the push analysis missed a staging path), never a
		// data-dependent condition — fail loudly.
		panic("spmd: worklist push in a segment marked stage-free")
	}
	id := int(t.PushID())
	if id < len(d.batchTab) {
		if b := d.batchTab[id]; b != nil {
			return b
		}
	} else {
		d.batchTab = append(d.batchTab, make([]*PushBatch, id+1-len(d.batchTab))...)
	}
	var b *PushBatch
	if n := len(d.freeB); n > 0 {
		b = d.freeB[n-1]
		d.freeB = d.freeB[:n-1]
	} else {
		b = &PushBatch{}
	}
	b.target, b.id, b.index = t, int32(id), len(d.batches)
	d.batchTab[id] = b
	d.batches = append(d.batches, b)
	return b
}

// NoteShared records a cost-only access to a shared scalar location (a
// worklist tail) in the task's trace.
func (tc *TaskCtx) NoteShared(a *Array, idx int32) {
	tc.noteAccess(a.Addr(idx), machine.AccPlain)
}

// NoteStaged records n cost-only accesses to staged batch slots [off,off+n):
// their absolute addresses resolve at materialization. Consecutive slots
// pack into run-length trace words.
func (tc *TaskCtx) NoteStaged(b *PushBatch, off, n int32) {
	d := tc.def
	for n > 0 {
		c := int64(n) - 1
		if c > accMaxCount {
			c = accMaxCount
		}
		d.acc = append(d.acc,
			c<<accCountShift|int64(b.index)<<accBatchShift|
				int64(off)<<accAddrShift|
				int64(machine.AccPlain)<<accKindShift|accStagedBit)
		off += int32(c) + 1
		n -= int32(c) + 1
	}
}

// CountAtomics exposes atomic-instruction accounting to the worklist
// package's deferred push paths.
func (tc *TaskCtx) CountAtomics(n int, contended, push bool) {
	tc.countAtomics(n, contended, push)
}

// --- Engine-side merge ---

// replayAccesses replays one task's trace through the memory model and
// pager, charging exposed stalls to the task. A committed word's repeats are
// guaranteed L1 hits (the first access of the run installed the line and
// nothing intervened), so they account through MemModel.RepeatHits without
// re-probing; stalls still accumulate per access to keep the float sum
// bit-identical to an uncompressed replay.
//
// Stalls accumulate in per-kind locals (replay order within each kind) and
// fold into the task's per-class buckets at the end. During a recording
// segment the access-stall classes receive nothing — atomic stalls live in
// their own classes — so each class bucket is zero here and the final add
// reproduces exactly the sum a live run accumulated in place (0 + x == x;
// every charge is non-negative, so no -0 can arise). A stage-free segment has
// an empty trace: its stalls were charged at the probe.
func (e *Engine) replayAccesses(tc *TaskCtx) {
	d := tc.def
	mem := e.Mem
	core := tc.core
	paged := e.Pager != nil
	ls := mem.LineShift()
	tags, tmask := mem.L1View(core)
	var st [4]float64
	for _, ev := range d.acc {
		kind := machine.AccessKind((ev >> accKindShift) & 3)
		rep := int(ev >> accCountShift)
		if ev&accStagedBit != 0 {
			b := d.batches[(ev>>accBatchShift)&accBatchMask]
			off := int32((ev >> accAddrShift) & accOffMask)
			for j := int32(0); j <= int32(rep); j++ {
				addr := b.arr.Addr(b.start + off + j)
				if paged {
					tc.touchPage(addr)
				}
				if line := addr >> ls; !paged && tags[line&tmask] == int32(line) {
					mem.RepeatHits(1) // inline L1-hit probe
					st[kind] += e.stallTab[kind][machine.L1]
				} else {
					st[kind] += e.stallTab[kind][mem.Access(core, addr)]
				}
			}
			continue
		}
		addr := (ev >> accAddrShift) & accAddrMask
		if paged {
			tc.touchPage(addr)
		}
		if line := addr >> ls; !paged && tags[line&tmask] == int32(line) {
			mem.RepeatHits(1) // inline L1-hit probe
			st[kind] += e.stallTab[kind][machine.L1]
		} else {
			st[kind] += e.stallTab[kind][mem.Access(core, addr)]
		}
		if rep > 0 {
			mem.RepeatHits(rep)
			if c := e.stallTab[kind][machine.L1]; c != 0 {
				for j := 0; j < rep; j++ {
					st[kind] += c
				}
			}
		}
	}
	for k := 0; k < 4; k++ {
		tc.stl[accCostClass[k]] += st[k]
	}
}

// mergeSegment commits all tasks' deferred state in task order: batches
// materialize (deterministic reservation), traces replay (deterministic
// cache evolution), operation logs apply, stat shards and serialized-atomic
// floors fold in. A materialization failure (worklist overflow on a
// non-growable list) aborts the merge with a task-attributed typed error.
func (e *Engine) mergeSegment(tcs []*TaskCtx) error {
	for _, tc := range tcs {
		d := tc.def
		if d == nil {
			continue
		}
		for _, b := range d.batches {
			arr, start, err := b.target.Materialize(b.items)
			if err != nil {
				return fmt.Errorf("task %d (kernel %q, iteration %d): %w",
					tc.Index, e.phaseName(), e.iter.Load(), err)
			}
			b.arr, b.start = arr, start
		}
		e.replayAccesses(tc)
		for i := range d.ops {
			applyOp(e, &d.ops[i])
		}
		// Replay the task's phase transitions through the attribution cursor
		// in task order — the order live execution would have moved it — so
		// the segment cost aggregated after this merge charges to the same
		// phase in every mode. Registration order is also reproduced, which
		// keeps bucket slot ids mode-invariant.
		for _, name := range d.phLog {
			e.attrMark(name)
		}
		e.Stats.Add(&tc.shard)
		tc.shard = Stats{}
		e.segSerialAtomics += d.serialAtomics
		d.reset()
	}
	return nil
}
