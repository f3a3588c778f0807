// Package spmd is the ISPC-analogue runtime: it executes SPMD tasks whose
// program instances map to software SIMD lanes (internal/vec), accounts every
// dynamic instruction and memory access against a machine model
// (internal/machine), and aggregates per-task cycles into modeled execution
// time with launch, barrier, SMT and atomic-serialization effects.
//
// Tasks execute in one of three modes (Engine.Exec). ExecLive is the legacy
// reference: tasks are scheduled cooperatively and deterministically —
// between barriers, tasks run to completion one at a time in task order, each
// in its own coroutine that the launching goroutine resumes, with every effect
// applied immediately. ExecDeferred runs the same cooperative schedule under
// deferred-effect semantics (private per-task shards and traces, merged at
// barriers in task order; see deferred.go), and ExecParallel runs those
// deferred-effect tasks concurrently on real goroutines (parallel.go). In
// every mode, modeled time is unaffected by host scheduling: every run of a
// kernel on a given graph produces identical results, identical instruction
// counts and identical modeled times, and the two deferred modes are
// bit-identical to each other by construction.
package spmd

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/vec"
)

// Stats aggregates dynamic execution counters for one engine run.
type Stats struct {
	// Instructions is the total dynamic machine-instruction count after
	// target lowering (the Intel-Pin-style number used in Fig. 7).
	Instructions int64
	// ByClass breaks Instructions down by operation class.
	ByClass [vec.NumOpClasses]int64

	// VectorOps counts logical vector operations before lowering.
	VectorOps int64
	// ScalarOps counts uniform scalar operations.
	ScalarOps int64

	// Atomics counts hardware atomic operations issued; AtomicPushes counts
	// the subset used for worklist pushes (Table V).
	Atomics      int64
	AtomicPushes int64

	// InnerVectorOps/InnerActiveLanes measure SIMD lane utilization inside
	// kernels' inner (edge) loops: utilization = active/(ops*width)
	// (Table IV).
	InnerVectorOps   int64
	InnerActiveLanes int64

	// Launches and Barriers count task launches and in-kernel barriers.
	Launches int64
	Barriers int64

	// WorkItems counts worklist items processed (useful work proxy).
	WorkItems int64

	// PageFaults counts demand-paging faults when a pager is attached.
	PageFaults int64

	// SellColumns counts slice columns executed through the SELL-C-σ dense
	// neighborhood path (one unit-stride load replacing a gather per count).
	// Zero means every edge loop ran over CSR. SellActiveLanes accumulates
	// the live (non-padding) lanes of those columns, so the pair isolates
	// the dense path's occupancy from whatever mix of CSR work ran besides.
	SellColumns     int64
	SellActiveLanes int64
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Instructions += other.Instructions
	for i := range s.ByClass {
		s.ByClass[i] += other.ByClass[i]
	}
	s.VectorOps += other.VectorOps
	s.ScalarOps += other.ScalarOps
	s.Atomics += other.Atomics
	s.AtomicPushes += other.AtomicPushes
	s.InnerVectorOps += other.InnerVectorOps
	s.InnerActiveLanes += other.InnerActiveLanes
	s.Launches += other.Launches
	s.Barriers += other.Barriers
	s.WorkItems += other.WorkItems
	s.PageFaults += other.PageFaults
	s.SellColumns += other.SellColumns
	s.SellActiveLanes += other.SellActiveLanes
}

// SellLaneUtilization returns the lane occupancy of SELL dense-path columns
// alone at the given width, in [0,1]: live cells over total cells touched.
// Unlike LaneUtilization it excludes CSR-path inner ops, so it measures how
// well the degree sort packed the slices that actually executed densely.
func (s *Stats) SellLaneUtilization(width int) float64 {
	if s.SellColumns == 0 || width == 0 {
		return 0
	}
	return float64(s.SellActiveLanes) / float64(s.SellColumns*int64(width))
}

// LaneUtilization returns the measured SIMD lane utilization of inner-loop
// vector operations at the given width, in [0,1].
func (s *Stats) LaneUtilization(width int) float64 {
	if s.InnerVectorOps == 0 || width == 0 {
		return 0
	}
	return float64(s.InnerActiveLanes) / float64(s.InnerVectorOps*int64(width))
}

func (s *Stats) String() string {
	return fmt.Sprintf("instrs=%d vops=%d sops=%d atomics=%d pushes=%d launches=%d barriers=%d work=%d faults=%d",
		s.Instructions, s.VectorOps, s.ScalarOps, s.Atomics, s.AtomicPushes, s.Launches, s.Barriers,
		s.WorkItems, s.PageFaults)
}

// Pager is the hook the virtual-memory simulator (internal/vmem) implements.
// Touch is called once per distinct memory operation with a byte address and
// returns the extra stall in nanoseconds caused by demand paging (zero when
// the page is resident), along with whether a fault occurred.
type Pager interface {
	Touch(addr int64) (extraNS float64, fault bool)
}

// Array is a named data array with a synthetic base address for cache and
// paging simulation. Exactly one of I and F is non-nil. Arrays must be
// created through the engine (AllocI/AllocF/BindI), which assigns the
// dense engine-scoped id that deferred tasks use to index their shadow
// buffers without hashing.
type Array struct {
	Name string
	I    []int32
	F    []float32
	Base int64
	id   int32
	// bound marks an array wrapping a caller-owned slice (BindI).
	bound bool
}

// ID returns the dense engine-scoped array id assigned at registration. The
// checkpoint layer uses it to index snapshot tables.
func (a *Array) ID() int32 { return a.id }

// Len returns the element count.
func (a *Array) Len() int {
	if a.I != nil {
		return len(a.I)
	}
	return len(a.F)
}

// Bytes returns the array's size in bytes.
func (a *Array) Bytes() int64 { return int64(a.Len()) * 4 }

// Addr returns the synthetic byte address of element idx.
func (a *Array) Addr(idx int32) int64 { return a.Base + int64(idx)*4 }

func (a *Array) String() string {
	kind := "i32"
	if a.F != nil {
		kind = "f32"
	}
	return fmt.Sprintf("%s[%d]%s@%#x", a.Name, a.Len(), kind, a.Base)
}

// FillI sets every element of an int array.
func (a *Array) FillI(x int32) {
	for i := range a.I {
		a.I[i] = x
	}
}

// FillF sets every element of a float array.
func (a *Array) FillF(x float32) {
	for i := range a.F {
		a.F[i] = x
	}
}

// ensure interface use of machine in this file's doc context
var _ = machine.L1
