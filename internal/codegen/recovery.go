package codegen

import (
	"repro/internal/graph"
	"repro/internal/spmd"
	"repro/internal/worklist"
)

// Recovery configures barrier-consistent checkpoint/rollback for one
// Instance. When attached (Instance.Recovery), top-level pipe loops snapshot
// all engine-visible state every Every iterations at the loop head — a
// consistent cut in every execution mode — and a recoverable typed fault
// rolls the instance back to the last verified checkpoint and re-executes
// from there instead of failing the run. When Verify is set it runs against
// the live state before each snapshot; a violation marks the would-be
// checkpoint bad and itself triggers a rollback, so silent corruption never
// becomes a recovery point.
//
// Recovery preserves the determinism contract: a run that faults, rolls back
// and resumes produces bit-identical outputs, modeled clocks and statistics
// to an undisturbed run, because the checkpoint captures every input of the
// remaining execution (arrays, worklist orientation and storage, parameters,
// clocks, cache tags, loop-control cursors) and re-launches skip the
// already-charged launch accounting.
type Recovery struct {
	// Every is the checkpoint cadence in pipe-loop iterations; loop heads
	// whose completed-iteration count is a multiple of Every (including 0,
	// the pristine loop entry) take a checkpoint. Zero disables
	// checkpointing.
	Every int
	// MaxRollbacks bounds re-executions per checkpoint before the fault
	// escalates to the caller (and from there to the RunResilient fallback
	// ladder). Zero means the default of 3.
	MaxRollbacks int
	// Verify validates live state against the kernel's algorithmic
	// invariants before each checkpoint. Optional.
	Verify func(*StateView) error

	// Stats accumulates recovery counters for the current run. Kept outside
	// spmd.Stats so recovered runs stay bit-identical to undisturbed ones.
	Stats RecoveryStats

	cp     checkpointState
	skipCP bool // suppress re-checkpointing at the head a rollback resumed at
}

// RecoveryStats counts checkpoint/recovery activity of one run.
type RecoveryStats struct {
	// Checkpoints is the number of (verified) checkpoints taken.
	Checkpoints int
	// Rollbacks is the number of rollback re-executions performed.
	Rollbacks int
	// BadCheckpoints counts checkpoint attempts rejected by invariant
	// validation — detected silent corruption.
	BadCheckpoints int
	// WastedCycles is the modeled work discarded by rollbacks.
	WastedCycles float64
}

func (rec *Recovery) maxRollbacks() int {
	if rec.MaxRollbacks > 0 {
		return rec.MaxRollbacks
	}
	return 3
}

func (rec *Recovery) reset() {
	rec.Stats = RecoveryStats{}
	rec.cp.rollbacks = 0
	rec.cp.cursor = resumeCursor{}
	rec.skipCP = false
}

// guardState is the resumable part of a loopGuard.
type guardState struct {
	iters int
	sig   uint64
	same  int
}

func (g *loopGuard) state() guardState {
	return guardState{iters: g.iters, sig: g.sig, same: g.same}
}

func (g *loopGuard) restore(s guardState) {
	g.iters, g.sig, g.same = s.iters, s.sig, s.same
}

// resumeCursor pins the pipe-control position of a checkpoint: which
// top-level statement was executing and the state of its loop guard(s) and
// control variable at the checkpointed loop head. Passed by value into every
// task replica so a resumed outlined launch restores all replicas
// identically without shared mutation.
type resumeCursor struct {
	active  bool
	stmtIdx int        // index into the top-level pipe statement list
	outer   guardState // the loop's own guard (outer guard for near-far)
	inner   guardState // near-far inner guard
	ctl     int        // loop-fixed index / loop-converge iteration
	atInner bool       // near-far: checkpoint taken at the inner loop head
}

// checkpointState is the codegen half of the recovery point, taken and
// restored together with the engine's own (spmd.Engine.Checkpoint): the state
// the engine cannot see — worklist pair orientation and (growth-replaceable)
// backing-array pointers, parameter values, and the pipe-control cursor. It
// is meaningful only while the engine holds a checkpoint.
type checkpointState struct {
	wlIn, wlOut                 *worklist.WL
	inItems, outItems, farItems *spmd.Array

	params map[string]int32

	cursor    resumeCursor
	rollbacks int // re-executions from this checkpoint so far
}

// hostCheckpoint takes a checkpoint at a top-level loop head when the cadence
// fires. cur must describe the head so a rollback resumes exactly here. The
// returned error is an invariant violation found by validation: the
// checkpoint is not taken and the error propagates like any loop-head fault,
// rolling back to the previous (still good) checkpoint.
func (in *Instance) hostCheckpoint(g *loopGuard, cur resumeCursor) error {
	rec := in.Recovery
	if rec == nil || rec.Every <= 0 || g.iters%rec.Every != 0 {
		return nil
	}
	if rec.skipCP {
		// This head is where the last rollback resumed; its state is the
		// checkpoint itself, so re-snapshotting (and resetting the bounded
		// retry counter) would let a persistent fault livelock the run.
		rec.skipCP = false
		return nil
	}
	if rec.Verify != nil {
		if err := rec.Verify(&StateView{in: in}); err != nil {
			rec.Stats.BadCheckpoints++
			return err
		}
	}
	cp := &rec.cp
	in.E.Checkpoint()
	if in.wl != nil {
		cp.wlIn, cp.wlOut = in.wl.In, in.wl.Out
		cp.inItems, cp.outItems = in.wl.In.Items, in.wl.Out.Items
		cp.farItems = in.far.Items
	}
	if cp.params == nil {
		cp.params = make(map[string]int32, len(in.Params))
	}
	for k, v := range in.Params {
		cp.params[k] = v
	}
	cur.active = true
	cp.cursor = cur
	cp.rollbacks = 0
	rec.Stats.Checkpoints++
	in.E.NoteCheckpoint(in.E.CheckpointIteration())
	return nil
}

// taskCheckpoint is hostCheckpoint for outlined pipes: only the task-0
// replica checkpoints (it owns the single-writer control window), and a
// validation failure unwinds the task like any guard violation.
func (in *Instance) taskCheckpoint(tc *spmd.TaskCtx, g *loopGuard, cur resumeCursor) {
	if tc.Index != 0 {
		return
	}
	if err := in.hostCheckpoint(g, cur); err != nil {
		tc.Fail(err)
	}
}

// canRecover reports whether a rollback may absorb the current failure.
func (in *Instance) canRecover() bool {
	rec := in.Recovery
	return rec != nil && in.E.HasCheckpoint() && rec.cp.rollbacks < rec.maxRollbacks()
}

// rollback rewinds the instance to its last checkpoint: engine state
// (arrays, clocks, stats, cache tags, registry), worklist orientation and
// storage pointers, and parameters. The caller resumes execution from the
// checkpoint's cursor.
func (in *Instance) rollback() resumeCursor {
	rec := in.Recovery
	cp := &rec.cp
	wasted := in.E.TimeCycles() - in.E.CheckpointCycles()
	rec.Stats.Rollbacks++
	rec.Stats.WastedCycles += wasted
	cp.rollbacks++
	in.E.Restore()
	if in.wl != nil {
		in.wl.In, in.wl.Out = cp.wlIn, cp.wlOut
		in.wl.In.Items = cp.inItems
		in.wl.Out.Items = cp.outItems
		in.far.Items = cp.farItems
	}
	for k, v := range cp.params {
		in.Params[k] = v
	}
	rec.skipCP = true
	in.E.NoteRollback(wasted)
	return cp.cursor
}

// faultWindow is the injection point at a pipe loop's single-writer control
// window (between two barriers, mutated by the host or by task 0 only): it
// draws one transient-fault variate and then one bit-flip variate per
// declared int array, in declaration order. Cost-free and draw-deterministic,
// so injected runs stay bit-identical across execution modes.
func (in *Instance) faultWindow(site string) error {
	inj := in.E.Inject
	if inj == nil {
		return nil
	}
	if err := inj.TransientFault(site); err != nil {
		return err
	}
	for _, d := range in.M.Prog.Arrays {
		a := in.arrays[d.Name]
		if a == nil || a.I == nil {
			continue
		}
		inj.FlipBits(d.Name, a.I)
	}
	return nil
}

// taskFaultWindow runs faultWindow from an outlined task-0 control window.
func (in *Instance) taskFaultWindow(tc *spmd.TaskCtx, site string) {
	if err := in.faultWindow(site); err != nil {
		tc.Fail(err)
	}
}

// StateView is the read-only view of live (and last-checkpoint) state handed
// to invariant validators. It structurally implements kernels.State without
// importing that package.
type StateView struct {
	in *Instance
}

// Graph returns the bound graph.
func (v *StateView) Graph() *graph.CSR { return v.in.G }

// CurI returns the live int contents of the named array, nil when absent.
func (v *StateView) CurI(name string) []int32 { return v.in.ArrayI(name) }

// CurF returns the live float contents of the named array, nil when absent.
func (v *StateView) CurF(name string) []float32 { return v.in.ArrayF(name) }

// PrevI returns the named array's contents at the last verified checkpoint,
// nil when this run has not taken one yet (validators then skip evolution
// rules and check ranges only).
func (v *StateView) PrevI(name string) []int32 {
	a := v.in.arrays[name]
	if a == nil {
		return nil
	}
	return v.in.E.CheckpointI(a)
}

// PrevF is PrevI for float arrays.
func (v *StateView) PrevF(name string) []float32 {
	a := v.in.arrays[name]
	if a == nil {
		return nil
	}
	return v.in.E.CheckpointF(a)
}

// Frontier returns the pipeline-in worklist size, -1 when the program has no
// worklist.
func (v *StateView) Frontier() int {
	if v.in.wl == nil {
		return -1
	}
	return int(v.in.wl.In.Size())
}

// FrontierCap returns the pipeline-in worklist capacity, -1 without one.
func (v *StateView) FrontierCap() int {
	if v.in.wl == nil {
		return -1
	}
	return v.in.wl.In.Cap()
}
