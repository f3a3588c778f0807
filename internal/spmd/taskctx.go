package spmd

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// TaskCtx is the per-task execution context handed to launch bodies. It
// exposes the ISPC builtins (taskIndex/taskCount/programCount), cost-counted
// memory and atomic primitives, and the in-kernel barrier.
//
// Kernels (interpreted or generated) perform all vector computation through
// internal/vec directly and report instruction costs through Op/InnerOp;
// memory and atomics go through the methods here so that cache, paging and
// contention modeling see every access. Scalar and packed-store primitives
// live in this file and charge through noteAccess; the vector gather/
// scatter/load/atomic primitives live in taskctx_ptr.go and charge through
// the chargeLanes funnel.
//
// In live mode (ExecLive) every primitive mutates shared engine state
// immediately. In the deferred modes the task accounts into a private stats
// shard (st points at shard), records memory accesses into a private trace,
// and routes reads/writes through its deferredCtx; the engine merges
// everything at barrier and launch boundaries in task order.
type TaskCtx struct {
	E     *Engine
	Index int // taskIndex
	Count int // taskCount
	Width int // programCount

	hw, core int

	// st is where instruction/atomic statistics accumulate: &E.Stats in
	// live mode, &shard in the deferred modes.
	st    *Stats
	shard Stats

	// def holds the task's private deferred-effect state; nil in live mode.
	def *deferredCtx
	// serialDef marks a cooperative deferred task (ExecDeferred): tasks run
	// one at a time in task order, so stage-free segments may probe the
	// cache immediately (MarkStageFree) without racing or reordering.
	serialDef bool
	// ph is the barrier phaser of a parallel launch; nil otherwise.
	ph *phaser

	// comp/stl accumulate this task's issued-instruction and exposed-stall
	// cycles since the last barrier, broken down by cost class (attr.go).
	// The scalars the SMT aggregation needs are derived by folding the
	// blocks in class index order (foldClasses) at the segment boundary, so
	// per-charge cost stays one indexed add.
	comp costVec
	stl  costVec

	// next resumes the task's coroutine on the cooperative scheduler
	// until its next barrier (true) or the end of its body (false); stop
	// unwinds a suspended coroutine, and yield is the coroutine's side of
	// the handoff, refused (false) once the launch is stopping. All three
	// are nil in LaunchNoBarrier and parallel launches.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	done     bool
	panicked any
}

type abortSentinel struct{}

// taskFailure wraps a typed error thrown by TaskCtx.Fail; Engine.Launch
// recovers it and returns the error with task/kernel/iteration context.
type taskFailure struct{ err error }

// Fail aborts the current task with a typed error. The enclosing Launch
// drains sibling tasks and returns the error wrapped with task context.
// Fail does not return.
func (tc *TaskCtx) Fail(err error) {
	panic(taskFailure{err})
}

// failBounds attaches the array name to a bounds violation and unwinds.
func (tc *TaskCtx) failBounds(err error, a *Array) {
	var be *fault.BoundsError
	if errors.As(err, &be) && be.Array == "" {
		be.Array = a.Name
	}
	tc.Fail(err)
}

// corruptIdx routes active-lane indices through the engine's fault injector,
// returning idx itself when none is attached and a corrupted copy otherwise
// (the caller's vector is never modified). kind is "gather" or "scatter".
func (tc *TaskCtx) corruptIdx(kind string, a *Array, idx *vec.Vec, m vec.Mask) *vec.Vec {
	in := tc.E.Inject
	if in == nil {
		return idx
	}
	out := *idx
	n := a.Len()
	for i := 0; i < tc.Width; i++ {
		if m.Bit(i) {
			if bad, ok := in.CorruptIndex(kind, a.Name, i, out[i], n); ok {
				out[i] = bad
			}
		}
	}
	return &out
}

// checkScalar validates one uniform element index, unwinding the task with a
// typed bounds error on violation.
func (tc *TaskCtx) checkScalar(op string, a *Array, idx int32) {
	if idx < 0 || int(idx) >= a.Len() {
		tc.Fail(&fault.BoundsError{Op: op, Array: a.Name, Lane: -1, Index: idx, Len: a.Len()})
	}
}

// checkLane validates one lane's element index, unwinding the task with a
// typed bounds error naming the lane on violation.
func (tc *TaskCtx) checkLane(op string, a *Array, lane int, idx int32) {
	if idx < 0 || int(idx) >= a.Len() {
		tc.Fail(&fault.BoundsError{Op: op, Array: a.Name, Lane: lane, Index: idx, Len: a.Len()})
	}
}

// MarkPhase records entry into a named phase from inside a task body
// (compiled kernels call it on kernel entry). The name is always stored for
// failure context. Live tasks move the attribution cursor directly; deferred
// and parallel tasks append the name to their private phase log, which the
// merge boundary replays through the same cursor.
func (tc *TaskCtx) MarkPhase(name string) {
	e := tc.E
	if p, ok := e.phaseNames.Load(name); ok {
		e.phase.Store(p.(*string))
	} else {
		n := name
		e.phaseNames.Store(name, &n)
		e.phase.Store(&n)
	}
	if tc.def == nil {
		// Live tasks run one at a time on the cooperative scheduler, so the
		// attribution cursor moves in global execution order.
		e.attrMark(name)
		return
	}
	// Deferred/parallel tasks cannot touch shared state mid-segment; the log
	// replays through attrMark at the merge boundary in task order — the
	// order live execution would have used.
	tc.def.phLog = append(tc.def.phLog, name)
}

// Barrier synchronizes all live tasks of the current launch. Calling it from
// a LaunchNoBarrier body is a kernel bug and fails the task.
func (tc *TaskCtx) Barrier() {
	if tc.ph != nil {
		tc.ph.barrier()
		return
	}
	if tc.yield == nil {
		tc.Fail(fmt.Errorf("TaskCtx.Barrier inside a barrier-free launch: %w", fault.ErrKernelPanic))
	}
	if !tc.yield(struct{}{}) {
		panic(abortSentinel{})
	}
}

// --- Instruction accounting ---

// Op records one logical vector operation of the given class, lowering it to
// the target's dynamic instruction count (via the engine's lowering cache;
// the charged cycles are the exact values the uncached switch produced).
func (tc *TaskCtx) Op(class vec.OpClass, masked bool) {
	c := &tc.E.opCost[class][b2u(masked)]
	tc.st.Instructions += c.instrs
	tc.st.ByClass[class] += c.instrs
	tc.st.VectorOps++
	tc.comp[opCostClass[class]] += c.cycles
}

// OpN records n logical vector operations of the given class.
func (tc *TaskCtx) OpN(class vec.OpClass, masked bool, n int) {
	if n <= 0 {
		return
	}
	in := tc.E.opCost[class][b2u(masked)].instrs * int64(n)
	tc.st.Instructions += in
	tc.st.ByClass[class] += in
	tc.st.VectorOps += int64(n)
	tc.comp[opCostClass[class]] += float64(in) / tc.E.Machine.IPC
}

func b2u(b bool) int {
	if b {
		return 1
	}
	return 0
}

// InnerOp records one vector operation inside a kernel's inner (edge) loop
// together with its active lane count, feeding the Table IV lane-utilization
// measurement.
func (tc *TaskCtx) InnerOp(class vec.OpClass, masked bool, active int) {
	tc.Op(class, masked)
	tc.st.InnerVectorOps++
	tc.st.InnerActiveLanes += int64(active)
}

// InnerTally records one inner-loop vector op's lane occupancy without
// charging instructions — the issuing site already charged the op itself
// (e.g. a dense SELL column load accounted as a ClassVLoad). Keeps the lane
// utilization metric honest when a load replaces a per-lane gather.
func (tc *TaskCtx) InnerTally(active int) {
	tc.st.InnerVectorOps++
	tc.st.InnerActiveLanes += int64(active)
}

// NoteSellColumn records one slice column executed through the SELL dense
// neighborhood path, with its count of live (non-padding) lanes.
func (tc *TaskCtx) NoteSellColumn(active int) {
	tc.st.SellColumns++
	tc.st.SellActiveLanes += int64(active)
}

// ScalarOps records n uniform scalar ALU instructions.
func (tc *TaskCtx) ScalarOps(n int) {
	if n <= 0 {
		return
	}
	tc.st.Instructions += int64(n)
	tc.st.ByClass[vec.ClassScalar] += int64(n)
	tc.st.ScalarOps += int64(n)
	tc.comp[obs.CostScalar] += float64(n) / tc.E.Machine.IPC
}

// Work records processed worklist items (a useful-work proxy).
func (tc *TaskCtx) Work(n int) { tc.st.WorkItems += int64(n) }

func (tc *TaskCtx) addStall(cls obs.CostClass, cycles float64) {
	tc.stl[cls] += cycles * tc.E.StallScale
}

// touchPage runs one address through the pager. It executes only while the
// engine is single-threaded: at live execution or at boundary replay.
func (tc *TaskCtx) touchPage(addr int64) {
	if tc.E.Pager == nil {
		return
	}
	ns, fault := tc.E.Pager.Touch(addr)
	if fault {
		tc.st.PageFaults++
	}
	if ns > 0 {
		tc.E.faultNS += ns
	}
}

// --- Memory operations ---

// gatherKind returns the access kind of one gather lane: a hardware-gather
// lane on targets with native gather, a scalar load otherwise.
func (tc *TaskCtx) gatherKind() machine.AccessKind {
	if tc.E.Target.HasNativeGather() {
		return machine.AccGather
	}
	return machine.AccLoad // software gather: per-lane scalar loads
}

// PackedStore packs active lanes of val to a.I[start:] and returns the count
// (ISPC packed_store_active). Live tasks only: deferred tasks stage packed
// pushes through a push batch (Batch, StageMasked), so a deferred call is a
// kernel bug and fails the task.
func (tc *TaskCtx) PackedStore(a *Array, start int32, val vec.Vec, m vec.Mask) int {
	if tc.def != nil {
		tc.Fail(fmt.Errorf("TaskCtx.PackedStore in a deferred task: %w", fault.ErrKernelPanic))
	}
	tc.Op(vec.ClassPacked, true)
	n := m.PopCount()
	for i := 0; i < n; i++ {
		tc.noteAccess(a.Addr(start+int32(i)), machine.AccPlain)
	}
	out, err := vec.PackedStoreActiveChecked(a.I, start, val, m, tc.Width)
	if err != nil {
		tc.failBounds(err, a)
	}
	return out
}

// ScalarLoadI loads a.I[idx] as a uniform value.
func (tc *TaskCtx) ScalarLoadI(a *Array, idx int32) int32 {
	tc.checkScalar("scalar-load", a, idx)
	tc.st.Instructions++
	tc.st.ByClass[vec.ClassScalarLoad]++
	tc.st.ScalarOps++
	tc.comp[obs.CostScalar] += tc.E.invIPC
	tc.noteAccess(a.Addr(idx), machine.AccLoad)
	if d := tc.def; d != nil {
		return d.loadI(a, idx)
	}
	return a.I[idx]
}

// ScalarStoreI stores a uniform value to a.I[idx].
func (tc *TaskCtx) ScalarStoreI(a *Array, idx int32, v int32) {
	tc.checkScalar("scalar-store", a, idx)
	tc.st.Instructions++
	tc.st.ByClass[vec.ClassScalarStore]++
	tc.st.ScalarOps++
	tc.comp[obs.CostScalar] += tc.E.invIPC
	tc.noteAccess(a.Addr(idx), machine.AccPlain)
	if d := tc.def; d != nil {
		d.storeI(a, idx, v)
		return
	}
	a.I[idx] = v
}

// ScalarLoadF loads a.F[idx] as a uniform float.
func (tc *TaskCtx) ScalarLoadF(a *Array, idx int32) float32 {
	tc.checkScalar("scalar-load", a, idx)
	tc.st.Instructions++
	tc.st.ByClass[vec.ClassScalarLoad]++
	tc.st.ScalarOps++
	tc.comp[obs.CostScalar] += tc.E.invIPC
	tc.noteAccess(a.Addr(idx), machine.AccLoad)
	if d := tc.def; d != nil {
		return d.loadF(a, idx)
	}
	return a.F[idx]
}

// ScalarStoreF stores a uniform float to a.F[idx].
func (tc *TaskCtx) ScalarStoreF(a *Array, idx int32, v float32) {
	tc.checkScalar("scalar-store", a, idx)
	tc.st.Instructions++
	tc.st.ByClass[vec.ClassScalarStore]++
	tc.st.ScalarOps++
	tc.comp[obs.CostScalar] += tc.E.invIPC
	tc.noteAccess(a.Addr(idx), machine.AccPlain)
	if d := tc.def; d != nil {
		d.storeF(a, idx, v)
		return
	}
	a.F[idx] = v
}

// --- Atomic operations ---

// countAtomics records n hardware atomics. contended marks atomics that hit
// a shared location (worklist tail index): those serialize across all tasks
// and impose a segment-wide floor on progress. push marks worklist pushes
// for the Table V counter.
func (tc *TaskCtx) countAtomics(n int, contended, push bool) {
	if n <= 0 {
		return
	}
	tc.st.Atomics += int64(n)
	tc.st.Instructions += int64(n)
	tc.st.ByClass[vec.ClassAtomic] += int64(n)
	cls := obs.CostAtomic
	if push {
		tc.st.AtomicPushes += int64(n)
		cls = obs.CostWorklist
	}
	tc.addStall(cls, tc.E.Machine.AtomicCycles*float64(n))
	if contended {
		if d := tc.def; d != nil {
			d.serialAtomics += tc.E.Machine.SerialAtomicCost() * float64(n)
		} else {
			tc.E.segSerialAtomics += tc.E.Machine.SerialAtomicCost() * float64(n)
		}
	}
}

// AtomicAddScalar atomically adds delta to a.I[idx] and returns the old
// value (a lock xadd on a shared scalar — the worklist-reservation pattern).
// Deferred tasks see their own accumulated view; the deltas merge exactly.
func (tc *TaskCtx) AtomicAddScalar(a *Array, idx int32, delta int32, push bool) int32 {
	tc.checkScalar("atomic-add", a, idx)
	tc.noteAccess(a.Addr(idx), machine.AccPlain)
	tc.countAtomics(1, true, push)
	if d := tc.def; d != nil {
		return d.addI(a, idx, delta)
	}
	old := a.I[idx]
	a.I[idx] = old + delta
	return old
}

// AtomicUpdateScalar atomically overwrites a.I[idx] (a CAS/atomic-min on a
// per-node location: uncontended, no global serialization floor) and
// returns the old value.
func (tc *TaskCtx) AtomicUpdateScalar(a *Array, idx int32, newVal int32) int32 {
	tc.checkScalar("atomic-update", a, idx)
	tc.noteAccess(a.Addr(idx), machine.AccPlain)
	tc.countAtomics(1, false, false)
	if d := tc.def; d != nil {
		old := d.loadI(a, idx)
		d.storeI(a, idx, newVal)
		return old
	}
	old := a.I[idx]
	a.I[idx] = newVal
	return old
}

// AtomicAddLanesContended is a per-lane atomic add of 1 against a shared
// scalar location (all lanes target the same address), returning each lane's
// old value: the unoptimized worklist push pattern.
func (tc *TaskCtx) AtomicAddLanesContended(a *Array, idx int32, m vec.Mask, push bool) vec.Vec {
	tc.checkScalar("atomic-add", a, idx)
	n := m.PopCount()
	d := tc.def
	var out vec.Vec
	for i := 0; i < tc.Width; i++ {
		if m.Bit(i) {
			tc.noteAccess(a.Addr(idx), machine.AccPlain)
			if d != nil {
				out[i] = d.addI(a, idx, 1)
			} else {
				out[i] = a.I[idx]
				a.I[idx]++
			}
		}
	}
	tc.countAtomics(n, true, push)
	return out
}

// AtomicAddFScalar atomically accumulates a float into a shared scalar
// (vector-to-scalar reduction + one atomic, ISPC atomic_add_global).
func (tc *TaskCtx) AtomicAddFScalar(a *Array, idx int32, delta float32) {
	tc.checkScalar("atomic-add", a, idx)
	tc.Op(vec.ClassReduce, false)
	tc.noteAccess(a.Addr(idx), machine.AccPlain)
	tc.countAtomics(1, true, false)
	if d := tc.def; d != nil {
		d.addF(a, idx, delta)
		return
	}
	a.F[idx] += delta
}

// LocalAtomicLanes models an ISPC local (intra-task) atomic: lockstep
// execution means no hardware atomic is needed, only the lane loop.
func (tc *TaskCtx) LocalAtomicLanes(m vec.Mask) {
	tc.OpN(vec.ClassALU, true, 1)
}
