package vec

import (
	"errors"
	"math/rand"
	"repro/internal/fault"
	"testing"
	"testing/quick"
)

func TestPackedStoreActive(t *testing.T) {
	base := make([]int32, 8)
	val := FromSlice([]int32{10, 11, 12, 13, 14, 15, 16, 17})
	m := Mask(0).Set(1).Set(4).Set(7)
	n := PackedStoreActive(base, 2, val, m, 8)
	if n != 3 {
		t.Fatalf("PackedStoreActive count = %d, want 3", n)
	}
	if base[2] != 11 || base[3] != 14 || base[4] != 17 {
		t.Errorf("packed values = %v", base[2:5])
	}
	if base[0] != 0 || base[5] != 0 {
		t.Error("PackedStoreActive wrote outside its range")
	}
}

// Property: PackedStoreActive stores exactly PopCount(m) values in lane
// order, equal to the active lanes of val.
func TestPackedStoreActiveProperty(t *testing.T) {
	f := func(raw [16]int32, mraw uint16) bool {
		val := FromSlice(raw[:])
		m := Mask(mraw)
		base := make([]int32, 20)
		n := PackedStoreActive(base, 0, val, m, 16)
		if n != m.PopCount() {
			return false
		}
		k := 0
		for i := 0; i < 16; i++ {
			if m.Bit(i) {
				if base[k] != raw[i] {
					return false
				}
				k++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackActive(t *testing.T) {
	val := FromSlice([]int32{10, 11, 12, 13})
	packed, n := PackActive(val, Mask(0).Set(0).Set(3), 4)
	if n != 2 || packed[0] != 10 || packed[1] != 13 {
		t.Errorf("PackActive = %v n=%d", packed[:2], n)
	}
}

func TestBroadcastExtractInsert(t *testing.T) {
	v := FromSlice([]int32{5, 6, 7, 8})
	b := Broadcast(v, 2)
	if b[0] != 7 || b[31] != 7 {
		t.Errorf("Broadcast = %v", b[:4])
	}
	if Extract(v, 3) != 8 {
		t.Error("Extract wrong")
	}
	v2 := Insert(v, 1, 42)
	if v2[1] != 42 || v[1] != 6 {
		t.Error("Insert must copy")
	}
}

func BenchmarkBinAdd16(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	x, y := randVec(r, 16), randVec(r, 16)
	m := FullMask(16)
	var sink Vec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Bin(OpAdd, x, y, m, 16)
	}
	_ = sink
}

func TestCheckedOpsAcceptValid(t *testing.T) {
	base := []int32{10, 20, 30, 40}
	n, err := PackedStoreActiveChecked(base, 1, Splat(8), Mask(0b0101), 4)
	if err != nil || n != 2 {
		t.Errorf("PackedStoreActiveChecked = %d, %v", n, err)
	}
	if base[0] != 10 || base[1] != 8 || base[2] != 8 || base[3] != 40 {
		t.Errorf("packed store wrote %v", base)
	}
	// An empty mask stores nothing, so any start is in range.
	if n, err := PackedStoreActiveChecked(base, 99, Splat(8), 0, 4); err != nil || n != 0 {
		t.Errorf("empty packed store = %d, %v", n, err)
	}
}

func TestCheckedOpsRejectOutOfRange(t *testing.T) {
	check := func(name string, err error, wantIdx int32) {
		t.Helper()
		var be *fault.BoundsError
		if !errors.As(err, &be) {
			t.Fatalf("%s: error %v is not a BoundsError", name, err)
		}
		if !errors.Is(err, fault.ErrOutOfBounds) {
			t.Errorf("%s: does not match ErrOutOfBounds", name)
		}
		if be.Op != "packed-store" || be.Lane != -1 || be.Index != wantIdx || be.Len != 4 {
			t.Errorf("%s: detail op=%s lane=%d idx=%d len=%d, want packed-store/-1/%d/4",
				name, be.Op, be.Lane, be.Index, be.Len, wantIdx)
		}
	}
	base := []int32{1, 2, 3, 4}
	_, err := PackedStoreActiveChecked(base, 2, Splat(0), FullMask(4), 4)
	check("past the end", err, 5) // last slot the store would have written
	_, err = PackedStoreActiveChecked(base, -2, Splat(0), FullMask(2), 4)
	check("negative start", err, -2)
	// Only active lanes take a slot: two lanes from slot 2 fit exactly.
	if n, err := PackedStoreActiveChecked(base, 2, Splat(7), Mask(0b1001), 4); err != nil || n != 2 {
		t.Errorf("exact-fit packed store = %d, %v", n, err)
	}
	// Rejection must not partially store.
	cp := []int32{1, 2, 3, 4}
	PackedStoreActiveChecked(cp, 3, Splat(77), FullMask(4), 4)
	for i, v := range []int32{1, 2, 3, 4} {
		if cp[i] != v {
			t.Error("failed packed store wrote lanes before the violation")
		}
	}
}
