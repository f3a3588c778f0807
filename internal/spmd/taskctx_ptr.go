package spmd

import (
	"math"
	"math/bits"

	"repro/internal/machine"
	"repro/internal/vec"
)

// Vector memory and atomic primitives. Operands and results travel through
// pointers so the 128-byte vec.Vec values stay in the caller's frame; only
// active lanes of a destination are written (merge semantics).
//
// Every primitive is the same three steps:
//
//  1. the instruction charge (Op/InnerOp, or countAtomics after an atomic);
//  2. the accounting funnel — chargeLanes for indexed lanes, chargeRun for a
//     unit-stride run — which bounds-checks every active lane and charges its
//     memory access, in ascending lane order, in whichever costing mode the
//     segment is in. This is the one place a vector lane access is costed;
//  3. a data-movement pass (the "mover"): through the task's shadow view and
//     op log when effects are deferred, straight on the array otherwise.
//
// Charging all lanes and then moving all lanes is bit-identical to doing both
// lane by lane: the funnel appends only to the access trace, the stall
// buckets and the cache model, a mover only to the op log, the shadow and the
// arrays — disjoint state, so each stream sees the same appends in the same
// ascending-lane order either way. A bounds violation unwinds from the
// funnel, before any lane of the op has moved.

// recAccess appends one committed-access trace event to acc with the same
// line-level run folding noteAccess performs (same staged-bit, kind, count
// and line checks, in the same order), operating on a caller-hoisted slice so
// the recording loop stays call-free per lane. ds must be non-zero (the
// engine disables folding under a pager by zeroing dedupShift, and those runs
// take the per-lane noteAccess path).
func recAccess(acc []int64, addr, k64 int64, ds uint) []int64 {
	if n := len(acc) - 1; n >= 0 {
		last := acc[n]
		if last&accStagedBit == 0 &&
			(last>>accKindShift)&3 == k64 &&
			last>>accCountShift < accMaxCount &&
			((last>>accAddrShift)&accAddrMask)>>ds == addr>>ds {
			acc[n] = last + 1<<accCountShift
			return acc
		}
	}
	return append(acc, addr<<accAddrShift|k64<<accKindShift)
}

// chargeLanes is the accounting funnel: it validates idx's active lanes
// against a and charges one access of the given kind per lane, ascending.
// Live tasks and stage-free cooperative segments probe the hierarchy and add
// the stall to the task's class bucket; recording segments append run-folded
// trace words. With a pager attached every mode goes lane by lane through
// noteAccess, which pages each address. Loop-invariant state is hoisted into
// locals and flushed before a bounds violation at lane k unwinds the task, so
// lanes below k are charged exactly as checkLane+noteAccess would have.
func (tc *TaskCtx) chargeLanes(op string, a *Array, idx *vec.Vec, m vec.Mask, kind machine.AccessKind) {
	if m == 0 {
		return // no access: must not lock an undecided segment into recording
	}
	e, d := tc.E, tc.def
	if e.Pager != nil {
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			tc.checkLane(op, a, i, idx[i])
			tc.noteAccess(a.Addr(idx[i]), kind)
		}
		return
	}
	base, un := a.Base, uint32(a.Len())
	bad := -1
	if d != nil && d.mode != segImmediate {
		d.mode = segRecording
		ds, k64 := d.dedupShift, int64(kind)
		acc := d.acc
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			if uint32(ii) >= un {
				bad = i
				break
			}
			acc = recAccess(acc, base+int64(ii)*4, k64, ds)
		}
		d.acc = acc
	} else {
		mm, core := e.Mem, tc.core
		ls := mm.LineShift()
		tags, tmask := mm.L1View(core)
		tab, cls := &e.stallTab[kind], accCostClass[kind]
		l1c, stall := tab[machine.L1], tc.stl[cls]
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			if uint32(ii) >= un {
				bad = i
				break
			}
			addr := base + int64(ii)*4
			if line := addr >> ls; tags[line&tmask] == int32(line) {
				mm.RepeatHits(1) // inline L1-hit probe
				stall += l1c
			} else {
				stall += tab[mm.Access(core, addr)]
			}
		}
		tc.stl[cls] = stall
	}
	if bad >= 0 {
		tc.checkLane(op, a, bad, idx[bad]) // out of range: fails the task
	}
}

// chargeRun is the funnel for a unit-stride run a[start+i]: the leading lane
// pays the full load latency (AccLoad), continuation lanes stall only when
// their line is not already in L1 (AccStream). Lane 0 precedes every other
// lane, so two chargeLanes calls keep ascending lane order.
func (tc *TaskCtx) chargeRun(op string, a *Array, start int32, m vec.Mask) {
	var idx vec.Vec
	for i := 0; i < tc.Width; i++ {
		idx[i] = start + int32(i)
	}
	tc.chargeLanes(op, a, &idx, m&1, machine.AccLoad)
	tc.chargeLanes(op, a, &idx, m&^1, machine.AccStream)
}

// shadowView returns the task's pending-write view of a for lane loads: the
// packed stamp|value words and current epoch, or a nil slice when the task is
// live or has no shadow for a (then committed values are authoritative).
func (tc *TaskCtx) shadowView(a *Array) ([]uint64, uint32) {
	if d := tc.def; d != nil {
		if id := int(a.id); id < len(d.shadows) {
			if sh := d.shadows[id]; sh != nil {
				return sh.sv, sh.epoch
			}
		}
	}
	return nil, 0
}

// GatherIP gathers a.I[idx[i]] into dst for active lanes with full cost
// accounting. inner marks inner-loop operations for utilization measurement.
func (tc *TaskCtx) GatherIP(a *Array, idx *vec.Vec, m vec.Mask, inner bool, dst *vec.Vec) {
	idx = tc.corruptIdx("gather", a, idx, m)
	if inner {
		tc.InnerOp(vec.ClassGather, true, m.PopCount())
	} else {
		tc.Op(vec.ClassGather, true)
	}
	tc.chargeLanes("gather", a, idx, m, tc.gatherKind())
	src := a.I
	sv, ep := tc.shadowView(a)
	for bs := uint32(m); bs != 0; bs &= bs - 1 {
		i := bits.TrailingZeros32(bs)
		ii := idx[i]
		v := src[ii]
		if sv != nil {
			if wd := sv[ii]; uint32(wd>>32) == ep {
				v = int32(uint32(wd))
			}
		}
		dst[i] = v
	}
}

// GatherFP is GatherIP for float arrays.
func (tc *TaskCtx) GatherFP(a *Array, idx *vec.Vec, m vec.Mask, inner bool, dst *vec.FVec) {
	idx = tc.corruptIdx("gather", a, idx, m)
	if inner {
		tc.InnerOp(vec.ClassGather, true, m.PopCount())
	} else {
		tc.Op(vec.ClassGather, true)
	}
	tc.chargeLanes("gather", a, idx, m, tc.gatherKind())
	src := a.F
	sv, ep := tc.shadowView(a)
	for bs := uint32(m); bs != 0; bs &= bs - 1 {
		i := bits.TrailingZeros32(bs)
		ii := idx[i]
		v := src[ii]
		if sv != nil {
			if wd := sv[ii]; uint32(wd>>32) == ep {
				v = math.Float32frombits(uint32(wd))
			}
		}
		dst[i] = v
	}
}

// LoadVecIP performs a unit-stride vector load from a.I[start:] into dst.
func (tc *TaskCtx) LoadVecIP(a *Array, start int32, m vec.Mask, dst *vec.Vec) {
	tc.Op(vec.ClassVLoad, m != vec.FullMask(tc.Width))
	tc.chargeRun("vload", a, start, m)
	src := a.I
	sv, ep := tc.shadowView(a)
	for bs := uint32(m); bs != 0; bs &= bs - 1 {
		i := bits.TrailingZeros32(bs)
		ii := start + int32(i)
		v := src[ii]
		if sv != nil {
			if wd := sv[ii]; uint32(wd>>32) == ep {
				v = int32(uint32(wd))
			}
		}
		dst[i] = v
	}
}

// ScatterIP scatters val to a.I[idx[i]] for active lanes. Stores retire
// through the write buffer; no exposed stall is charged (AccPlain), matching
// the scalar-store treatment. Conflicting lanes resolve highest-lane-wins.
func (tc *TaskCtx) ScatterIP(a *Array, idx, val *vec.Vec, m vec.Mask) {
	idx = tc.corruptIdx("scatter", a, idx, m)
	tc.Op(vec.ClassScatter, true)
	tc.chargeLanes("scatter", a, idx, m, machine.AccPlain)
	if d := tc.def; d != nil {
		sh := d.shadowFor(a)
		sv, epHi, aid, ops := sh.sv, uint64(sh.epoch)<<32, a.id, d.ops
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			sv[ii] = epHi | uint64(uint32(val[i]))
			ops = append(ops, memOp{aid: aid, idx: ii, op: opStoreI, iv: val[i]})
		}
		d.ops = ops
		return
	}
	dst := a.I
	for bs := uint32(m); bs != 0; bs &= bs - 1 {
		i := bits.TrailingZeros32(bs)
		dst[idx[i]] = val[i]
	}
}

// ScatterFP is ScatterIP for float arrays.
func (tc *TaskCtx) ScatterFP(a *Array, idx *vec.Vec, val *vec.FVec, m vec.Mask) {
	idx = tc.corruptIdx("scatter", a, idx, m)
	tc.Op(vec.ClassScatter, true)
	tc.chargeLanes("scatter", a, idx, m, machine.AccPlain)
	if d := tc.def; d != nil {
		sh := d.shadowFor(a)
		sv, epHi, aid, ops := sh.sv, uint64(sh.epoch)<<32, a.id, d.ops
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			sv[ii] = epHi | uint64(math.Float32bits(val[i]))
			ops = append(ops, memOp{aid: aid, idx: ii, op: opStoreF, fv: val[i]})
		}
		d.ops = ops
		return
	}
	dst := a.F
	for bs := uint32(m); bs != 0; bs &= bs - 1 {
		i := bits.TrailingZeros32(bs)
		dst[idx[i]] = val[i]
	}
}

// AtomicMinLanesP performs per-lane atomic mins on distinct locations,
// returning a mask of lanes that lowered the stored value (SSSP/BFS relax).
// A deferred task's improved mask is computed against its own view; the
// logged mins merge monotonically (committed values only decrease), so the
// converged fixed point is unaffected.
func (tc *TaskCtx) AtomicMinLanesP(a *Array, idx, val *vec.Vec, m vec.Mask) vec.Mask {
	idx = tc.corruptIdx("scatter", a, idx, m)
	tc.chargeLanes("atomic-min", a, idx, m, machine.AccPlain)
	var improved vec.Mask
	src := a.I
	if d := tc.def; d != nil {
		sh := d.shadowFor(a)
		sv, ep, epHi, aid, ops := sh.sv, sh.epoch, uint64(sh.epoch)<<32, a.id, d.ops
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			cur := src[ii]
			if wd := sv[ii]; uint32(wd>>32) == ep {
				cur = int32(uint32(wd))
			}
			if val[i] < cur {
				sv[ii] = epHi | uint64(uint32(val[i]))
				ops = append(ops, memOp{aid: aid, idx: ii, op: opMinI, iv: val[i]})
				improved = improved.Set(i)
			}
		}
		d.ops = ops
	} else {
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			if ii := idx[i]; val[i] < src[ii] {
				src[ii] = val[i]
				improved = improved.Set(i)
			}
		}
	}
	tc.countAtomics(m.PopCount(), false, false)
	return improved
}

// AtomicCASLanesP performs per-lane compare-and-swap on distinct locations,
// returning the mask of lanes that won (stored new). A deferred task wins
// against its own view; at merge the logged CAS applies only if the
// committed value still matches, so each location transitions exactly once.
func (tc *TaskCtx) AtomicCASLanesP(a *Array, idx, old, new *vec.Vec, m vec.Mask) vec.Mask {
	idx = tc.corruptIdx("scatter", a, idx, m)
	tc.chargeLanes("atomic-cas", a, idx, m, machine.AccPlain)
	var won vec.Mask
	src := a.I
	if d := tc.def; d != nil {
		sh := d.shadowFor(a)
		sv, ep, epHi, aid, ops := sh.sv, sh.epoch, uint64(sh.epoch)<<32, a.id, d.ops
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			cur := src[ii]
			if wd := sv[ii]; uint32(wd>>32) == ep {
				cur = int32(uint32(wd))
			}
			if cur == old[i] {
				sv[ii] = epHi | uint64(uint32(new[i]))
				ops = append(ops, memOp{aid: aid, idx: ii, op: opCASI, iv: new[i], old: old[i]})
				won = won.Set(i)
			}
		}
		d.ops = ops
	} else {
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			if ii := idx[i]; src[ii] == old[i] {
				src[ii] = new[i]
				won = won.Set(i)
			}
		}
	}
	tc.countAtomics(m.PopCount(), false, false)
	return won
}

// AtomicAddLanesP performs per-lane atomic adds: a.I[idx[i]] += val[i] for
// active lanes (the unoptimized vector-to-vector atomic class, lowered to a
// hardware atomic per active lane). push marks worklist pushes for Table V.
func (tc *TaskCtx) AtomicAddLanesP(a *Array, idx, val *vec.Vec, m vec.Mask, push bool) {
	idx = tc.corruptIdx("scatter", a, idx, m)
	tc.chargeLanes("atomic-add", a, idx, m, machine.AccPlain)
	src := a.I
	if d := tc.def; d != nil {
		sh := d.shadowFor(a)
		sv, ep, epHi, aid, ops := sh.sv, sh.epoch, uint64(sh.epoch)<<32, a.id, d.ops
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			old := src[ii]
			if wd := sv[ii]; uint32(wd>>32) == ep {
				old = int32(uint32(wd))
			}
			sv[ii] = epHi | uint64(uint32(old+val[i]))
			ops = append(ops, memOp{aid: aid, idx: ii, op: opAddI, iv: val[i]})
		}
		d.ops = ops
	} else {
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			src[idx[i]] += val[i]
		}
	}
	tc.countAtomics(m.PopCount(), false, push)
}

// AtomicAddFLanesP performs per-lane atomic float adds on distinct locations
// (lowered to compare-exchange loops on hardware, as ISPC does for float
// atomics — the pattern that makes PageRank atomic-heavy). Deferred tasks
// log deltas that merge in task order — the same accumulation order as the
// cooperative schedule, so float sums are bit-identical.
func (tc *TaskCtx) AtomicAddFLanesP(a *Array, idx *vec.Vec, val *vec.FVec, m vec.Mask) {
	idx = tc.corruptIdx("scatter", a, idx, m)
	tc.chargeLanes("atomic-add", a, idx, m, machine.AccPlain)
	src := a.F
	if d := tc.def; d != nil {
		sh := d.shadowFor(a)
		sv, ep, epHi, aid, ops := sh.sv, sh.epoch, uint64(sh.epoch)<<32, a.id, d.ops
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			ii := idx[i]
			old := src[ii]
			if wd := sv[ii]; uint32(wd>>32) == ep {
				old = math.Float32frombits(uint32(wd))
			}
			sv[ii] = epHi | uint64(math.Float32bits(old+val[i]))
			ops = append(ops, memOp{aid: aid, idx: ii, op: opAddF, fv: val[i]})
		}
		d.ops = ops
	} else {
		for bs := uint32(m); bs != 0; bs &= bs - 1 {
			i := bits.TrailingZeros32(bs)
			src[idx[i]] += val[i]
		}
	}
	tc.countAtomics(m.PopCount(), false, false)
}
