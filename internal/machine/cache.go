package machine

import "fmt"

// MemModel is a lightweight cache-hierarchy simulator: direct-mapped L1 and
// L2 per core plus a shared L3, probed with synthetic byte addresses. It
// exists to give the cost model locality — gather cost depends on which level
// each lane's address hits (Table VI), and optimizations that change
// iteration order (Fibers, Section IV-A2) change hit rates.
//
// Direct-mapped tag arrays keep a probe at a handful of nanoseconds so whole
// benchmark graphs can be simulated. Associativity is deliberately ignored:
// conflict detail is irrelevant to the paper's shapes.
//
// The model holds one recovery point of itself (Snapshot/Restore) and can be
// emptied for reuse (Reset). Both cost what the run touched, not what the
// hierarchy contains: every level's tags live in one backing array cut into
// blocks of blockTags tags, and the miss path — the only writer — records
// which blocks it wrote. The invariant behind the sparse copies is
//
//	a block not on the dirty list holds the same tags in the live array and
//	in the mirror (an unallocated mirror counts as all-empty), and a block
//	not on the touched list is empty in both,
//
// so Snapshot and Restore need to copy only dirty blocks, and Reset needs to
// clear only touched ones, to leave exactly the state a full copy or a full
// clear would. Tracking is armed by the first Snapshot or Reset, which treats
// every block as written (a full copy or clear, what either always cost
// before); a model that is built, used and dropped never allocates or
// records anything for it. When every block is dirty the cost is the full
// copy again.
type MemModel struct {
	cfg *Config
	l1  []cacheArr // per core
	l2  []cacheArr // per core
	l3  cacheArr   // shared (absent when L3Size == 0)

	lineShift uint

	// tags backs every level's tag array: the line number held by each set,
	// or -1. Lines are synthetic and AddrSpace keeps them below 2^31, so a
	// tag is an int32 — half the bytes New fills, Reset clears and
	// Snapshot/Restore copy. track is the write record and the recovery
	// point, nil until the first Snapshot or Reset arms it.
	tags  []int32
	track *writeTrack

	// Counters.
	Hits     [NumLevels]int64
	Accesses int64
}

// writeTrack is what an armed MemModel keeps beside its tags: state holds the
// blockDirty/blockTouched bits per block, dirty and touched list the blocks
// that have each bit set (allocated once at full capacity, so recording a
// write never allocates), and mirror with the two counters is the recovery
// point, allocated by the first Snapshot.
type writeTrack struct {
	state          []uint8
	dirty, touched []int32
	mirror         []int32
	hits           [NumLevels]int64
	accesses       int64
}

const (
	// blockTags is the write-tracking granularity: 64 tags, 256 bytes.
	blockTags = 64

	blockDirty   = 1 << 0 // written since the last Snapshot, Restore or Reset
	blockTouched = 1 << 1 // written since the last Reset
)

// cacheArr is one direct-mapped level: tags is a window of MemModel.tags
// starting at element base, a power of two long.
type cacheArr struct {
	tags []int32
	base int
}

// mask is the set-index mask of the level.
func (c *cacheArr) mask() int64 { return int64(len(c.tags) - 1) }

// cacheSets returns the number of direct-mapped sets of a level: its line
// count rounded down to a power of two for mask indexing.
func cacheSets(sizeBytes, lineSize int) int {
	sets := sizeBytes / lineSize
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p
}

func fillEmpty(tags []int32) {
	for i := range tags {
		tags[i] = -1
	}
}

// lineShift returns log2 of cfg's cache line size (64 bytes when unset).
func lineShift(cfg *Config) uint {
	ls := cfg.LineSize
	if ls == 0 {
		ls = 64
	}
	var s uint
	for 1<<s < ls {
		s++
	}
	return s
}

// NewMemModel builds a memory model for the given machine.
func NewMemModel(cfg *Config) *MemModel {
	mm := &MemModel{cfg: cfg, lineShift: lineShift(cfg)}
	ls := 1 << mm.lineShift
	n1, n2, n3 := cacheSets(cfg.L1Size, ls), cacheSets(cfg.L2Size, ls), 0
	if cfg.L3Size > 0 {
		n3 = cacheSets(cfg.L3Size, ls)
	}
	mm.tags = make([]int32, cfg.Cores*(n1+n2)+n3)
	fillEmpty(mm.tags)
	next := 0
	carve := func(sets int) cacheArr {
		c := cacheArr{tags: mm.tags[next : next+sets : next+sets], base: next}
		next += sets
		return c
	}
	mm.l1 = make([]cacheArr, cfg.Cores)
	mm.l2 = make([]cacheArr, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		mm.l1[i] = carve(n1)
		mm.l2[i] = carve(n2)
	}
	if n3 > 0 {
		mm.l3 = carve(n3)
	}
	return mm
}

// Access simulates one data access by the given core and returns the level
// that satisfied it, updating all levels on the way. The L1-hit check is kept
// small enough to inline into callers' lane loops (the single hottest path in
// the whole simulator); everything past an L1 miss is outlined in accessMiss.
func (mm *MemModel) Access(core int, addr int64) Level {
	mm.Accesses++
	if core >= len(mm.l1) {
		core %= len(mm.l1)
	}
	line := addr >> mm.lineShift
	c := &mm.l1[core]
	if c.tags[line&c.mask()] == int32(line) {
		mm.Hits[L1]++
		return L1
	}
	return mm.accessMiss(core, line)
}

// L1View exposes core's direct-mapped L1 tag array and index mask so a fused
// lane loop can perform the hit probe inline — Access itself is beyond the
// cross-package inlining budget, and the probe dominates the simulator's
// wall-clock. A caller that finds tags[line&mask] == int32(line), for
// line = addr>>LineShift(), must account the hit with RepeatHits(1); any
// other outcome must go through Access, which re-probes and installs. The
// returned slice is the live tag store and is strictly read-only: a write
// through it would bypass the dirty-block record that Snapshot, Restore and
// Reset rely on. Those three rewrite the store in place, so a view stays
// valid across them but the tags it shows change.
func (mm *MemModel) L1View(core int) ([]int32, int64) {
	if core >= len(mm.l1) {
		core %= len(mm.l1)
	}
	c := &mm.l1[core]
	return c.tags, c.mask()
}

// accessMiss is Access past an L1 miss: walk the levels outward from L1,
// installing the line in each one that lacks it, up to the level that has it.
// This is the one place tags are written, and so the one place that, once
// tracking is armed, records the block it wrote.
func (mm *MemModel) accessMiss(core int, line int64) Level {
	t := mm.track
	tag := int32(line)
	lvl := L1
	for _, c := range [...]*cacheArr{&mm.l1[core], &mm.l2[core], &mm.l3} {
		if c.tags == nil {
			lvl = Mem // no L3
			break
		}
		i := line & c.mask()
		if c.tags[i] == tag {
			break
		}
		c.tags[i] = tag
		if t != nil {
			if b := (c.base + int(i)) / blockTags; t.state[b] != blockDirty|blockTouched {
				t.mark(b)
			}
		}
		lvl++
	}
	mm.Hits[lvl]++
	return lvl
}

func (t *writeTrack) mark(b int) {
	if t.state[b]&blockDirty == 0 {
		t.dirty = append(t.dirty, int32(b))
	}
	if t.state[b]&blockTouched == 0 {
		t.touched = append(t.touched, int32(b))
	}
	t.state[b] = blockDirty | blockTouched
}

// armed returns the write record, starting it on first use. What was written
// before that is unknown, so every block starts out dirty and touched.
func (mm *MemModel) armed() *writeTrack {
	if mm.track == nil {
		n := (len(mm.tags) + blockTags - 1) / blockTags
		t := &writeTrack{state: make([]uint8, n), dirty: make([]int32, n), touched: make([]int32, n)}
		for b := range t.state {
			t.state[b] = blockDirty | blockTouched
			t.dirty[b] = int32(b)
			t.touched[b] = int32(b)
		}
		mm.track = t
	}
	return mm.track
}

// block returns the window of s (the live tags or the mirror) that block b
// covers; the last block may be short.
func block(s []int32, b int32) []int32 {
	lo := int(b) * blockTags
	return s[lo:min(lo+blockTags, len(s))]
}

// Reset clears all cache contents and counters, and empties the recovery
// point with them: a Restore that follows returns to this empty state.
func (mm *MemModel) Reset() {
	t := mm.armed()
	for _, b := range t.touched {
		fillEmpty(block(mm.tags, b))
		if t.mirror != nil {
			fillEmpty(block(t.mirror, b))
		}
		t.state[b] = 0
	}
	t.touched = t.touched[:0]
	t.dirty = t.dirty[:0]
	mm.Hits, t.hits = [NumLevels]int64{}, [NumLevels]int64{}
	mm.Accesses, t.accesses = 0, 0
}

// Snapshot makes the current tags and counters the model's recovery point,
// replacing the previous one. The checkpoint layer restores it on rollback so
// the re-executed iterations see exactly the cache state of the original
// execution — hit/miss sequences, and therefore modeled stall cycles, replay
// bit-identically. After the first call it allocates nothing.
func (mm *MemModel) Snapshot() {
	t := mm.armed()
	if t.mirror == nil {
		// The clean blocks, which the loop below skips, are empty.
		t.mirror = make([]int32, len(mm.tags))
		fillEmpty(t.mirror)
	}
	for _, b := range t.dirty {
		copy(block(t.mirror, b), block(mm.tags, b))
		t.state[b] &^= blockDirty
	}
	t.dirty = t.dirty[:0]
	t.hits, t.accesses = mm.Hits, mm.Accesses
}

// Restore rewinds the hierarchy to the recovery point: the last Snapshot, or
// the empty state of a Reset that came after it. It panics on a model that
// has never taken a Snapshot.
func (mm *MemModel) Restore() {
	t := mm.track
	if t == nil || t.mirror == nil {
		panic("machine: MemModel.Restore without a Snapshot")
	}
	for _, b := range t.dirty {
		copy(block(mm.tags, b), block(t.mirror, b))
		t.state[b] &^= blockDirty
	}
	t.dirty = t.dirty[:0]
	mm.Hits, mm.Accesses = t.hits, t.accesses
}

// MemCounters is a value snapshot of the hierarchy's access counters; the
// observability layer subtracts consecutive snapshots to get per-iteration
// hit/miss deltas.
type MemCounters struct {
	Accesses int64
	Hits     [NumLevels]int64
}

// Counters snapshots the current access counters.
func (mm *MemModel) Counters() MemCounters {
	return MemCounters{Accesses: mm.Accesses, Hits: mm.Hits}
}

// Sub returns c - o field-wise.
func (c MemCounters) Sub(o MemCounters) MemCounters {
	c.Accesses -= o.Accesses
	for i := range c.Hits {
		c.Hits[i] -= o.Hits[i]
	}
	return c
}

// HitRate returns the fraction of accesses satisfied at the given level.
func (mm *MemModel) HitRate(lvl Level) float64 {
	if mm.Accesses == 0 {
		return 0
	}
	return float64(mm.Hits[lvl]) / float64(mm.Accesses)
}

// AddrSpace hands out non-overlapping synthetic base addresses for the data
// arrays a kernel touches, so cache and paging simulation see a realistic
// layout. Bases are page-aligned and allocation is append-only. Every byte
// handed out lies on a cache line below 2^31, the range MemModel's int32 tags
// hold; an allocation that would cross it panics rather than let two lines
// share a tag. Each synthetic byte is backed by a host array, so only a run
// holding 128 GiB of arrays (at 64-byte lines) gets there.
type AddrSpace struct {
	next     int64
	pageSize int64
	limit    int64 // first address whose line does not fit in 31 bits
}

// NewAddrSpace creates an address space with cfg's page alignment (4 KiB when
// unset) whose lines, at cfg's line size, fit MemModel's tags.
func NewAddrSpace(cfg *Config) *AddrSpace {
	pageSize := int64(cfg.PageSize)
	if pageSize <= 0 {
		pageSize = 4 << 10
	}
	return &AddrSpace{next: pageSize, pageSize: pageSize, limit: int64(1) << 31 << lineShift(cfg)}
}

// Alloc reserves sizeBytes and returns the base address.
func (as *AddrSpace) Alloc(sizeBytes int64) int64 {
	base := as.next
	n := (sizeBytes + as.pageSize - 1) / as.pageSize * as.pageSize
	if n > as.limit-base {
		panic(fmt.Sprintf("machine: allocating %d bytes at %#x passes %#x, past which a cache line does not fit the 31 bits of a tag",
			sizeBytes, base, as.limit))
	}
	as.next += n
	return base
}

// Footprint returns the total bytes allocated so far.
func (as *AddrSpace) Footprint() int64 { return as.next - as.pageSize }

// Mark returns the current allocation cursor. Pair with Rewind so a rolled-
// back execution that re-allocates the same sequence of arrays (e.g. a
// re-executed worklist growth) receives identical synthetic base addresses,
// keeping cache simulation bit-identical to the original execution.
func (as *AddrSpace) Mark() int64 { return as.next }

// Rewind moves the allocation cursor back to a previous Mark, releasing every
// allocation made after it.
func (as *AddrSpace) Rewind(mark int64) { as.next = mark }

// Reset releases every allocation, returning the space to its post-New state
// so a reused engine hands out the same base addresses a fresh one would.
func (as *AddrSpace) Reset() { as.next = as.pageSize }
