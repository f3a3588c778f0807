package spmd

import (
	"repro/internal/machine"
	"repro/internal/obs"
)

// Engine-side observability glue. Every event recorded here is timestamped on
// the modeled clock (converted to microseconds), so traces and metrics are
// bit-identical across execution modes and repeated runs: cycles only advance
// at launch and barrier boundaries, per-task compute/stall totals are
// mode-invariant, and all recording points are single-writer (host goroutine,
// cooperative scheduler, phaser boundary under its lock, or task 0 between
// barriers in outlined programs).

// iterSpan is an open pipe-loop iteration span.
type iterSpan struct {
	loop     string
	iter     int64
	startCyc float64
}

// iterBase is the counter snapshot behind the previous metrics sample;
// per-iteration rows report deltas against it.
type iterBase struct {
	stats Stats
	mem   machine.MemCounters
}

// usCycles converts a modeled cycle count to trace microseconds.
func (e *Engine) usCycles(c float64) float64 {
	return e.Machine.CyclesToNS(c) / 1e3
}

// traceLaunch emits the span of one finished launch on both clocks: modeled
// start/duration on the engine track, host wall time on the host-scheduler
// track. Named after the current kernel phase when one is marked.
func (e *Engine) traceLaunch(startCyc, hostStart float64, n int) {
	name := e.phaseName()
	if name == "" {
		name = "launch"
	}
	tr := e.Trace
	tr.CompleteArg(obs.ProcModeled, obs.TidEngine, name,
		e.usCycles(startCyc), e.usCycles(e.cycles-startCyc), "tasks", int64(n))
	tr.CompleteArg(obs.ProcHost, obs.TidHost, name,
		hostStart, tr.HostNow()-hostStart, "tasks", int64(n))
}

// chargeBarrier accounts one inter-segment barrier: counter, modeled cost,
// and a span on the engine track when tracing. Shared by the cooperative
// scheduler and the phaser so both modes emit identical events.
func (e *Engine) chargeBarrier(n int) {
	e.Stats.Barriers++
	c := e.Machine.BarrierCost(n)
	if tr := e.Trace; tr != nil {
		tr.Complete(obs.ProcModeled, obs.TidEngine, "barrier",
			e.usCycles(e.cycles), e.usCycles(c))
	}
	e.chargeCycles(obs.CostBarrier, c)
}

// IterTick records a pipe-loop iteration boundary: it closes the previous
// iteration's span on the pipe track, opens the next, samples the frontier
// counter, and appends a metrics row of per-iteration counter deltas. The
// codegen layer calls it from the host pipeline (or from task 0 of an
// outlined program, where only task 0 mutates shared loop state between
// barriers). No-op without an attached tracer or metrics ring.
func (e *Engine) IterTick(loop string, iter int64, frontier, capacity int) {
	if e.Trace == nil && e.Metrics == nil {
		return
	}
	e.iterTick(loop, iter, frontier, capacity)
}

func (e *Engine) iterTick(loop string, iter int64, frontier, capacity int) {
	if tr := e.Trace; tr != nil {
		if n := len(e.obsOpen); n > 0 && e.obsOpen[n-1].loop == loop {
			e.closeIterSpan()
		}
		tr.Counter(obs.ProcModeled, obs.TidPipe, "frontier",
			e.usCycles(e.cycles), int64(frontier))
		e.obsOpen = append(e.obsOpen, iterSpan{loop: loop, iter: iter, startCyc: e.cycles})
	}
	if m := e.Metrics; m != nil {
		cur := e.Stats
		mem := e.Mem.Counters()
		d := cur
		deltaSub(&d, &e.obsBase.stats)
		md := mem.Sub(e.obsBase.mem)
		row := obs.IterSample{
			Loop:         loop,
			Iter:         iter,
			Cycles:       e.cycles,
			Frontier:     int64(frontier),
			WorklistCap:  int64(capacity),
			Instructions: d.Instructions,
			VectorOps:    d.VectorOps,
			ScalarOps:    d.ScalarOps,
			Atomics:      d.Atomics,
			AtomicPushes: d.AtomicPushes,
			WorkItems:    d.WorkItems,
			LaneUtil:     d.LaneUtilization(e.Width()),
			MemAccesses:  md.Accesses,
			L1Hits:       md.Hits[machine.L1],
			L2Hits:       md.Hits[machine.L2],
			L3Hits:       md.Hits[machine.L3],
			MemMisses:    md.Hits[machine.Mem],
			PageFaults:   d.PageFaults,
		}
		if capacity > 0 {
			row.Occupancy = float64(frontier) / float64(capacity)
		}
		m.Append(row)
		e.obsBase = iterBase{stats: cur, mem: mem}
	}
}

// IterDone closes the last open iteration span of the named loop when the
// loop exits.
func (e *Engine) IterDone(loop string) {
	if e.Trace == nil {
		return
	}
	if n := len(e.obsOpen); n > 0 && e.obsOpen[n-1].loop == loop {
		e.closeIterSpan()
	}
}

func (e *Engine) closeIterSpan() {
	n := len(e.obsOpen) - 1
	sp := e.obsOpen[n]
	e.obsOpen = e.obsOpen[:n]
	e.Trace.CompleteArg(obs.ProcModeled, obs.TidPipe, sp.loop,
		e.usCycles(sp.startCyc), e.usCycles(e.cycles-sp.startCyc), "iter", sp.iter)
}

// NoteSwap records a worklist in/out swap as an instant event on the pipe
// track, annotated with the new frontier size. Called by worklist.Pair.Swap.
func (e *Engine) NoteSwap(frontier int) {
	if tr := e.Trace; tr != nil {
		tr.Instant(obs.ProcModeled, obs.TidPipe, "worklist-swap",
			e.usCycles(e.cycles), "frontier", int64(frontier))
	}
}

// NoteCheckpoint records a verified checkpoint as an instant event on the
// pipe track, annotated with the pipe iteration it covers.
func (e *Engine) NoteCheckpoint(iter int64) {
	if tr := e.Trace; tr != nil {
		tr.Instant(obs.ProcModeled, obs.TidPipe, "checkpoint",
			e.usCycles(e.cycles), "iter", iter)
	}
}

// NoteRollback records a rollback to the last verified checkpoint as an
// instant event on the pipe track, annotated with the modeled cycles the
// discarded execution wasted. Emitted after the engine state is restored, so
// the event lands at the checkpoint's own timestamp where the re-execution
// resumes.
func (e *Engine) NoteRollback(wasted float64) {
	if tr := e.Trace; tr != nil {
		tr.Instant(obs.ProcModeled, obs.TidPipe, "rollback",
			e.usCycles(e.cycles), "wasted_cycles", int64(wasted))
	}
}

// deltaSub computes a - b in place over the per-iteration counters the
// metrics rows carry (counters only grow, so deltas are non-negative).
func deltaSub(a, b *Stats) {
	a.Instructions -= b.Instructions
	for i := range a.ByClass {
		a.ByClass[i] -= b.ByClass[i]
	}
	a.VectorOps -= b.VectorOps
	a.ScalarOps -= b.ScalarOps
	a.Atomics -= b.Atomics
	a.AtomicPushes -= b.AtomicPushes
	a.InnerVectorOps -= b.InnerVectorOps
	a.InnerActiveLanes -= b.InnerActiveLanes
	a.Launches -= b.Launches
	a.Barriers -= b.Barriers
	a.WorkItems -= b.WorkItems
	a.PageFaults -= b.PageFaults
}
