package spmd

// checkpoint is the engine's single recovery point: a barrier-consistent
// snapshot of all engine-visible execution state that a run can change —
// every array the engine allocated (program arrays and worklist storage, by
// dense id), the modeled clocks, statistics, iteration counter, address-space
// cursor and the observability baselines; the cache-model tags are held by
// the MemModel's own recovery point, taken and restored with this one. Taking
// one at a pipe-loop iteration boundary and restoring it later replays the
// remainder of the run bit-identically.
//
// Arrays bound to caller-owned slices (BindI: the graph's CSR and SELL
// arrays) are left out. Kernels only read them and the injector never targets
// them, so there is nothing to roll back — and writing them back on Restore
// would be a write to memory that other engines serving the same graph are
// reading.
//
// The buffers belong to the engine and survive ResetAll, so a pooled engine
// checkpoints a fixed array population without allocating, from its second
// run on.
type checkpoint struct {
	valid bool

	cycles           float64
	transferNS       float64
	faultNS          float64
	segSerialAtomics float64
	stats            Stats
	iter             int64

	nArrays  int32
	nPush    int32
	nScratch int
	addrMark int64

	// arrI/arrF are indexed by dense array id; the entry of a bound array,
	// or of the other element type, has length 0.
	arrI [][]int32
	arrF [][]float32

	// attrCur/attrN/attrVals snapshot the attribution buckets. Phase
	// registrations are NOT snapshotted: they are append-only and replayed
	// deterministically by re-execution, so Restore only rolls the bucket
	// values back (zeroing slots registered after the snapshot) and rewinds
	// the cursor. The clock then re-derives by the canonical refold, which
	// reproduces cycles exactly (later-registered slots contribute exact
	// zeros).
	attrCur  int32
	attrN    int
	attrVals []costVec

	obsBase iterBase
	obsOpen []iterSpan
}

// HasCheckpoint reports whether the engine holds a recovery point: Checkpoint
// has run since New, the last ResetAll and the last DropCheckpoint.
func (e *Engine) HasCheckpoint() bool { return e.cp != nil && e.cp.valid }

// DropCheckpoint discards the recovery point, keeping its buffers.
func (e *Engine) DropCheckpoint() {
	if e.cp != nil {
		e.cp.valid = false
	}
}

// CheckpointCycles returns the modeled clock at the recovery point.
func (e *Engine) CheckpointCycles() float64 { return e.cp.cycles }

// CheckpointIteration returns the pipe-loop iteration counter at the recovery
// point.
func (e *Engine) CheckpointIteration() int64 { return e.cp.iter }

// CheckpointI returns a's int32 contents at the recovery point; nil when
// there is none, for a bound array, and when a held no int data.
func (e *Engine) CheckpointI(a *Array) []int32 {
	if !e.HasCheckpoint() || int(a.id) >= len(e.cp.arrI) || len(e.cp.arrI[a.id]) == 0 {
		return nil
	}
	return e.cp.arrI[a.id]
}

// CheckpointF is CheckpointI for float32 contents.
func (e *Engine) CheckpointF(a *Array) []float32 {
	if !e.HasCheckpoint() || int(a.id) >= len(e.cp.arrF) || len(e.cp.arrF[a.id]) == 0 {
		return nil
	}
	return e.cp.arrF[a.id]
}

func copyI32(dst *[]int32, src []int32) {
	if cap(*dst) < len(src) {
		*dst = make([]int32, len(src))
	}
	*dst = (*dst)[:len(src)]
	copy(*dst, src)
}

func copyF32(dst *[]float32, src []float32) {
	if cap(*dst) < len(src) {
		*dst = make([]float32, len(src))
	}
	*dst = (*dst)[:len(src)]
	copy(*dst, src)
}

// Checkpoint makes the engine's current state its recovery point, replacing
// the previous one. Call only at a pipe-loop iteration boundary (immediately
// after a barrier): those are consistent cuts in every execution mode — live
// mode has run every task to the barrier, and the deferred modes mutate
// shared state only at barrier merges — so a plain read of the arrays races
// with nothing.
func (e *Engine) Checkpoint() {
	if e.cp == nil {
		e.cp = new(checkpoint)
	}
	cp := e.cp
	cp.cycles = e.cycles
	cp.transferNS = e.transferNS
	cp.faultNS = e.faultNS
	cp.segSerialAtomics = e.segSerialAtomics
	cp.stats = e.Stats
	cp.iter = e.iter.Load()
	cp.nArrays = e.nArrays
	cp.nPush = e.nPush
	cp.nScratch = e.nScratch
	cp.addrMark = e.Addr.Mark()

	if cap(cp.arrI) < len(e.arrays) {
		cp.arrI = append(cp.arrI[:cap(cp.arrI)], make([][]int32, len(e.arrays)-cap(cp.arrI))...)
		cp.arrF = append(cp.arrF[:cap(cp.arrF)], make([][]float32, len(e.arrays)-cap(cp.arrF))...)
	}
	cp.arrI = cp.arrI[:len(e.arrays)]
	cp.arrF = cp.arrF[:len(e.arrays)]
	for i, a := range e.arrays {
		if a.bound {
			// The buffer may hold an earlier run's array of the same id.
			cp.arrI[i], cp.arrF[i] = cp.arrI[i][:0], cp.arrF[i][:0]
			continue
		}
		copyI32(&cp.arrI[i], a.I)
		copyF32(&cp.arrF[i], a.F)
	}

	e.Mem.Snapshot()

	cp.attrCur = e.attr.cur
	cp.attrN = len(e.attr.vals)
	if cap(cp.attrVals) < cp.attrN {
		cp.attrVals = make([]costVec, cp.attrN)
	}
	cp.attrVals = cp.attrVals[:cp.attrN]
	copy(cp.attrVals, e.attr.vals)

	cp.obsBase = e.obsBase
	if cap(cp.obsOpen) < len(e.obsOpen) {
		cp.obsOpen = make([]iterSpan, len(e.obsOpen))
	}
	cp.obsOpen = cp.obsOpen[:len(e.obsOpen)]
	copy(cp.obsOpen, e.obsOpen)

	cp.valid = true
}

// Restore rewinds the engine to its recovery point, which stays in place for
// further restores. Arrays registered after the snapshot (e.g. replacements
// allocated by worklist growth) are dropped from the registry and their
// synthetic addresses and scratch slabs released, so a re-execution that
// re-allocates them receives identical ids, addresses and slabs. Array
// contents are copied back in place; lengths are unchanged because growth
// replaces arrays rather than resizing them. It panics when HasCheckpoint is
// false.
func (e *Engine) Restore() {
	if !e.HasCheckpoint() {
		panic("spmd: Engine.Restore without a checkpoint")
	}
	cp := e.cp
	for i := int(cp.nArrays); i < len(e.arrays); i++ {
		e.arrays[i] = nil
	}
	e.arrays = e.arrays[:cp.nArrays]
	e.nArrays = cp.nArrays
	e.nPush = cp.nPush
	e.nScratch = cp.nScratch
	e.Addr.Rewind(cp.addrMark)

	for i, a := range e.arrays {
		if a.bound {
			continue
		}
		copy(a.I, cp.arrI[i])
		copy(a.F, cp.arrF[i])
	}

	e.Mem.Restore()

	// Roll the attribution buckets back and re-derive the clock from them.
	// The refold reproduces cp.cycles bit-exactly: the restored slots hold
	// the snapshotted values and slots registered after the snapshot are
	// zeroed, contributing exact-zero terms to the fold.
	copy(e.attr.vals[:cp.attrN], cp.attrVals)
	for i := cp.attrN; i < len(e.attr.vals); i++ {
		e.attr.vals[i] = costVec{}
	}
	e.attr.cur = cp.attrCur
	e.refoldCycles()
	e.transferNS = cp.transferNS
	e.faultNS = cp.faultNS
	e.segSerialAtomics = cp.segSerialAtomics
	e.Stats = cp.stats
	e.iter.Store(cp.iter)

	e.obsBase = cp.obsBase
	e.obsOpen = e.obsOpen[:0]
	e.obsOpen = append(e.obsOpen, cp.obsOpen...)
}
