package machine

import (
	"math/rand"
	"slices"
	"testing"
)

// fullCopyOracle is the pre-sparse Snapshot/Restore/Reset: a second, never
// armed MemModel driven with the same accesses, synced by copying or clearing
// every tag. (Its Reset also empties the recovery point, the one behaviour
// the sparse model defines that the old one left to the caller.)
type fullCopyOracle struct {
	mm       *MemModel
	snap     []int32
	hits     [NumLevels]int64
	accesses int64
}

func (o *fullCopyOracle) snapshot() {
	o.snap = append(o.snap[:0], o.mm.tags...)
	o.hits, o.accesses = o.mm.Hits, o.mm.Accesses
}

func (o *fullCopyOracle) restore() {
	copy(o.mm.tags, o.snap)
	o.mm.Hits, o.mm.Accesses = o.hits, o.accesses
}

func (o *fullCopyOracle) reset() {
	fillEmpty(o.mm.tags)
	o.mm.Hits, o.mm.Accesses = [NumLevels]int64{}, 0
	if o.snap != nil {
		o.snapshot()
	}
}

// syncConfigs are small enough that a few hundred accesses collide in every
// level: one whose whole hierarchy is four blocks (levels share blocks, the
// last block is short), one with many blocks per level.
func syncConfigs() []*Config {
	return []*Config{
		{Name: "tiny", Cores: 3, LineSize: 64, L1Size: 8 * 64, L2Size: 32 * 64, L3Size: 128 * 64},
		{Name: "multi-block", Cores: 2, LineSize: 64, L1Size: 128 * 64, L2Size: 512 * 64, L3Size: 2048 * 64},
		{Name: "no-l3", Cores: 2, LineSize: 64, L1Size: 64 * 64, L2Size: 256 * 64},
	}
}

// checkSynced compares the sparse model with the oracle — every tag of every
// level and the counters — and checks the dirty/touched invariant directly.
func checkSynced(t *testing.T, step int, what string, mm *MemModel, o *fullCopyOracle) {
	t.Helper()
	if !slices.Equal(mm.tags, o.mm.tags) {
		t.Fatalf("step %d (%s): tags diverge from the full-copy oracle", step, what)
	}
	if mm.Hits != o.mm.Hits || mm.Accesses != o.mm.Accesses {
		t.Fatalf("step %d (%s): counters %v/%d, oracle %v/%d", step, what, mm.Hits, mm.Accesses, o.mm.Hits, o.mm.Accesses)
	}
	tr := mm.track
	if tr == nil {
		return
	}
	if tr.mirror != nil && (!slices.Equal(tr.mirror, o.snap) || tr.hits != o.hits || tr.accesses != o.accesses) {
		t.Fatalf("step %d (%s): recovery point diverges from the oracle's full copy", step, what)
	}
	nDirty, nTouched := 0, 0
	for b, s := range tr.state {
		live := block(mm.tags, int32(b))
		if s&blockDirty != 0 {
			nDirty++
		} else if tr.mirror != nil && !slices.Equal(live, block(tr.mirror, int32(b))) {
			t.Fatalf("step %d (%s): clean block %d differs between tags and mirror", step, what, b)
		}
		if s&blockTouched != 0 {
			nTouched++
		} else if slices.ContainsFunc(live, func(tag int32) bool { return tag != -1 }) {
			t.Fatalf("step %d (%s): untouched block %d is not empty", step, what, b)
		}
		if s == blockDirty {
			t.Fatalf("step %d (%s): block %d dirty but not touched", step, what, b)
		}
	}
	if nDirty != len(tr.dirty) || nTouched != len(tr.touched) {
		t.Fatalf("step %d (%s): lists hold %d dirty / %d touched, state bits say %d / %d",
			step, what, len(tr.dirty), len(tr.touched), nDirty, nTouched)
	}
}

// driveSync decodes data into a stream of accesses and sync operations and
// runs it through the sparse model and the oracle in lockstep. After every
// step the two must agree on all tags and counters, and after every sync
// operation also on the hit level of the next 64 probes.
func driveSync(t *testing.T, cfg *Config, data []byte) {
	mm := NewMemModel(cfg)
	o := &fullCopyOracle{mm: NewMemModel(cfg)}
	n3 := int64(len(mm.l3.tags))
	if n3 == 0 {
		n3 = int64(len(mm.l2[0].tags))
	}
	access := func(step int, core int, line int64) {
		got, want := mm.Access(core, line<<mm.lineShift), o.mm.Access(core, line<<mm.lineShift)
		if got != want {
			t.Fatalf("step %d: core %d line %d hit %v, oracle %v", step, core, line, got, want)
		}
	}
	probes := rand.New(rand.NewSource(int64(len(data))))
	step := 0
	for len(data) >= 3 {
		op, b1, b2 := data[0], int64(data[1]), int64(data[2])
		data = data[3:]
		step++
		what := "access"
		switch op % 10 {
		case 5:
			what = "snapshot"
			mm.Snapshot()
			o.snapshot()
		case 6:
			if o.snap == nil {
				continue // Restore needs a recovery point
			}
			what = "restore"
			mm.Restore()
			o.restore()
		case 7:
			what = "reset"
			mm.Reset()
			o.reset()
		case 8:
			// Write every set of every level from every core: all blocks dirty.
			what = "sweep"
			for core := 0; core < cfg.Cores; core++ {
				for line := int64(0); line < n3; line++ {
					access(step, core, line+b1*n3)
				}
			}
		default:
			// Same set in all three levels for equal low bits, a different
			// tag per b2&7: conflict misses at every level.
			access(step, int(op>>4), b1|(b2>>3)<<8+(b2&7)*n3)
		}
		checkSynced(t, step, what, mm, o)
		if what != "access" && what != "sweep" {
			for i := 0; i < 64; i++ {
				access(step, probes.Intn(cfg.Cores+1), probes.Int63n(4*n3))
			}
			checkSynced(t, step, what+" + 64 probes", mm, o)
		}
	}
}

// FuzzMemModelSync is the sparse-sync oracle test: random access streams
// interleaved with Snapshot/Restore/Reset must leave the dirty-block model in
// exactly the state full copies would. The seeds name the cases that matter:
// each is (op, b1, b2) triples, op%10 in 0-4/9 = access, 5 = Snapshot,
// 6 = Restore, 7 = Reset, 8 = all-blocks sweep. (Blocks carry flag bits, not
// stamps, so there is no counter to wrap.)
func FuzzMemModelSync(f *testing.F) {
	const acc, snap, rest, reset, sweep = 0, 5, 6, 7, 8
	seq := func(ops ...byte) []byte {
		var out []byte
		for i, op := range ops {
			out = append(out, op, byte(i*37), byte(i*11))
		}
		return out
	}
	f.Add(seq(acc, acc, snap, rest))                              // restore with nothing dirty
	f.Add(seq(acc, snap, acc, acc, rest, rest, acc, rest))        // restore twice
	f.Add(seq(acc, snap, acc, rest, reset, acc, rest))            // Reset straight after Restore, Restore to empty
	f.Add(seq(acc, acc, reset, acc, snap, acc, rest))             // Reset before any Snapshot
	f.Add(seq(acc, acc, acc, snap, acc, snap, acc, rest))         // unarmed -> armed by Snapshot
	f.Add(seq(sweep, snap, sweep, rest, sweep, reset, acc, snap)) // every block dirty
	f.Add(seq(reset, sweep, snap, acc, rest, reset, reset, snap)) // armed by Reset, mirror allocated late
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 3*600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*500 {
			data = data[:3*500]
		}
		for _, cfg := range syncConfigs() {
			driveSync(t, cfg, data)
		}
	})
}

// TestMemModelSyncIsSparse pins the cost side: once armed, Snapshot, Restore
// and Reset handle only the blocks written since the last sync, and none of
// them allocates.
func TestMemModelSyncIsSparse(t *testing.T) {
	mm := NewMemModel(Intel8())
	mm.Access(0, 0)
	if mm.track != nil {
		t.Fatal("a model that never synced is tracking writes")
	}
	mm.Reset()
	tr := mm.track
	if got, all := len(tr.touched), len(tr.state); got != 0 || all == 0 {
		t.Fatalf("after the arming Reset: %d touched of %d blocks, want 0", got, all)
	}
	mm.Access(0, 0) // one line: one block in each of L1, L2, L3
	if len(tr.dirty) != 3 || len(tr.touched) != 3 {
		t.Fatalf("one cold access dirtied %d and touched %d blocks, want 3 and 3", len(tr.dirty), len(tr.touched))
	}
	mm.Snapshot()
	mm.Access(1, 1<<20)
	if len(tr.dirty) != 3 || len(tr.touched) != 6 {
		t.Fatalf("after Snapshot + one access: %d dirty, %d touched, want 3 and 6", len(tr.dirty), len(tr.touched))
	}
	if allocs := testing.AllocsPerRun(50, func() {
		mm.Access(2, 2<<20)
		mm.Snapshot()
		mm.Access(3, 3<<20)
		mm.Restore()
		mm.Reset()
	}); allocs != 0 {
		t.Errorf("armed Snapshot/Restore/Reset allocate %.1f objects per round, want 0", allocs)
	}
}
