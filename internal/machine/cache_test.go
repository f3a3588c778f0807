package machine

import "testing"

func TestMemModelLevels(t *testing.T) {
	cfg := Intel8()
	mm := NewMemModel(cfg)

	// First touch misses to memory; second touch of the same line hits L1.
	if lvl := mm.Access(0, 0x1000); lvl != Mem {
		t.Errorf("cold access = %v, want Mem", lvl)
	}
	if lvl := mm.Access(0, 0x1004); lvl != L1 {
		t.Errorf("same-line access = %v, want L1", lvl)
	}
	// A different core has cold private caches but the line is now in L3.
	if lvl := mm.Access(1, 0x1000); lvl != L3 {
		t.Errorf("cross-core access = %v, want L3", lvl)
	}
}

func TestMemModelWithoutL3(t *testing.T) {
	cfg := &Config{Cores: 1, LineSize: 64, L1Size: 4 * 64, L2Size: 16 * 64}
	mm := NewMemModel(cfg)
	if lvl := mm.Access(0, 0); lvl != Mem {
		t.Errorf("cold access = %v, want Mem", lvl)
	}
	mm.Access(0, 4*64) // same L1 set, different L2 set: evicts line 0 from L1 only
	if lvl := mm.Access(0, 0); lvl != L2 {
		t.Errorf("access after L1 eviction = %v, want L2", lvl)
	}
	if lvl := mm.Access(0, 16*64); lvl != Mem {
		t.Errorf("L2 conflict miss = %v, want Mem (there is no L3)", lvl)
	}
	if mm.Hits[L3] != 0 {
		t.Errorf("a model without L3 counted %d L3 hits", mm.Hits[L3])
	}
}

func TestMemModelCapacityEviction(t *testing.T) {
	cfg := Intel8() // 32 KB L1 = 512 lines
	mm := NewMemModel(cfg)
	// Touch far more lines than fit in L1, then re-touch the first: it must
	// have been evicted from L1 (same direct-mapped set reused).
	n := (cfg.L1Size / cfg.LineSize) * 4
	for i := 0; i < n; i++ {
		mm.Access(0, int64(i*cfg.LineSize))
	}
	if lvl := mm.Access(0, 0); lvl == L1 {
		t.Error("line survived L1 despite 4x capacity sweep")
	}
}

func TestMemModelWorkingSetFitsL1(t *testing.T) {
	cfg := Intel8()
	mm := NewMemModel(cfg)
	// An 8 KB working set swept repeatedly should be ~all L1 hits after
	// warmup.
	lines := (8 << 10) / cfg.LineSize
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			mm.Access(0, int64(i*cfg.LineSize))
		}
	}
	if r := mm.HitRate(L1); r < 0.6 {
		t.Errorf("L1 hit rate for tiny working set = %v, want > 0.6", r)
	}
}

func TestMemModelReset(t *testing.T) {
	mm := NewMemModel(Intel8())
	mm.Access(0, 64)
	mm.Access(0, 64)
	mm.Reset()
	if mm.Accesses != 0 {
		t.Error("Reset did not clear counters")
	}
	if lvl := mm.Access(0, 64); lvl != Mem {
		t.Errorf("post-Reset access = %v, want Mem", lvl)
	}
}

func TestMemModelCoreWraps(t *testing.T) {
	mm := NewMemModel(Intel8())
	// Core indices beyond the physical count must not panic (task IDs can
	// exceed cores when oversubscribed).
	mm.Access(97, 128)
}

func TestHitRateAccounting(t *testing.T) {
	mm := NewMemModel(Intel8())
	mm.Access(0, 0)   // Mem
	mm.Access(0, 0)   // L1
	mm.Access(0, 4)   // L1
	mm.Access(0, 512) // Mem (different line)
	if mm.Accesses != 4 {
		t.Fatalf("Accesses = %d", mm.Accesses)
	}
	if mm.Hits[L1] != 2 || mm.Hits[Mem] != 2 {
		t.Errorf("hits = %v", mm.Hits)
	}
	if r := mm.HitRate(L1); r != 0.5 {
		t.Errorf("HitRate(L1) = %v", r)
	}
}

func TestAddrSpace(t *testing.T) {
	as := NewAddrSpace(&Config{PageSize: 4096})
	a := as.Alloc(100)
	b := as.Alloc(5000)
	c := as.Alloc(1)
	if a == 0 {
		t.Error("base address 0 is reserved")
	}
	if a%4096 != 0 || b%4096 != 0 || c%4096 != 0 {
		t.Error("allocations must be page aligned")
	}
	if b <= a || c <= b {
		t.Error("allocations must not overlap")
	}
	if b-a < 100 || c-b < 5000 {
		t.Error("allocations overlap requested sizes")
	}
	if as.Footprint() != (4096 + 8192 + 4096) {
		t.Errorf("Footprint = %d", as.Footprint())
	}
}

func TestAddrSpaceDefaultPage(t *testing.T) {
	as := NewAddrSpace(&Config{})
	if as.Alloc(10)%4096 != 0 {
		t.Error("default page size should be 4K")
	}
}

func BenchmarkMemModelAccess(b *testing.B) {
	mm := NewMemModel(Intel8())
	for i := 0; i < b.N; i++ {
		mm.Access(i&7, int64(i*64%(1<<24)))
	}
}
