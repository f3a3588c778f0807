package machine

// AccessKind classifies a memory access for stall costing. The deferred SPMD
// scheduler records (addr, kind) pairs during concurrent task execution and
// replays them through MemModel.Access in deterministic task order, charging
// each kind's stall from LoadCost/GatherCost, so cache-state evolution —
// and therefore every level hit and every stall cycle — is identical to a
// serial run.
type AccessKind uint8

const (
	// AccPlain probes the hierarchy but exposes no stall (stores retire
	// through the write buffer; atomics charge their fixed cost separately).
	AccPlain AccessKind = iota
	// AccLoad is a scalar load or a software-gather lane: full load latency.
	AccLoad
	// AccGather is a hardware-gather lane: gather latency at the hit level.
	AccGather
	// AccStream is a unit-stride vector-load continuation lane: it stalls
	// only when the line is not already in L1 (the leading lane of the
	// vector pays AccLoad).
	AccStream
)

// LineShift returns log2 of the cache line size, the granularity at which
// the deferred trace recorder may fold consecutive same-line accesses into
// one run-length word.
func (mm *MemModel) LineShift() uint { return mm.lineShift }

// RepeatHits advances the access counters for n guaranteed L1 hits without
// probing tags: n back-to-back repeats of an access whose line the
// immediately preceding access installed (nothing intervened to evict it).
// Callers charge the repeats' stalls through their own precomputed cost
// table, once per repeat, so float summation stays bit-identical to an
// uncompressed replay.
func (mm *MemModel) RepeatHits(n int) {
	mm.Accesses += int64(n)
	mm.Hits[L1] += int64(n)
}
