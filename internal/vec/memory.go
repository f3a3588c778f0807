package vec

import "repro/internal/fault"

// Memory primitives. Addresses are element indices into []int32 backing
// arrays; the cache model (internal/machine) translates them to byte
// addresses for locality accounting. Gathers, scatters and unit-stride loads
// live on spmd.TaskCtx, fused with their bounds check and cost accounting;
// what remains here is the packed store behind cooperative worklist pushes,
// whose Checked variant returns a typed *fault.BoundsError instead of
// crashing so corrupt graphs and injected faults surface as errors.

// checkRange validates the consecutive range [start, start+span) against
// [0,n) for span > 0 accesses.
func checkRange(op string, start, span int32, n int) error {
	if span <= 0 {
		return nil
	}
	if start < 0 || int(start)+int(span) > n {
		bad := start
		if start >= 0 {
			bad = start + span - 1
		}
		return &fault.BoundsError{Op: op, Lane: -1, Index: bad, Len: n}
	}
	return nil
}

// PackedStoreActive packs the active lanes of val (in lane order) and stores
// them to consecutive locations starting at base[start]. It returns the
// number of lanes stored. This is ISPC's packed_store_active, the primitive
// behind cooperative worklist pushes.
func PackedStoreActive(base []int32, start int32, val Vec, m Mask, w int) int {
	n := 0
	for i := 0; i < w; i++ {
		if m.Bit(i) {
			base[start+int32(n)] = val[i]
			n++
		}
	}
	return n
}

// PackedStoreActiveChecked is PackedStoreActive with validation of the packed
// destination range [start, start+popcount); nothing is stored on violation.
func PackedStoreActiveChecked(base []int32, start int32, val Vec, m Mask, w int) (int, error) {
	if err := checkRange("packed-store", start, int32(m.PopCount()), len(base)); err != nil {
		return 0, err
	}
	return PackedStoreActive(base, start, val, m, w), nil
}

// PackActive compacts the active lanes of val into the low lanes of the
// result and reports how many there are. Used by the nested-parallelism
// fine-grained scheduler to redistribute low-degree work.
func PackActive(val Vec, m Mask, w int) (Vec, int) {
	var out Vec
	n := 0
	for i := 0; i < w; i++ {
		if m.Bit(i) {
			out[n] = val[i]
			n++
		}
	}
	return out, n
}

// Broadcast returns a vector with every lane holding val's lane src
// (vpbroadcastd on a selected element).
func Broadcast(val Vec, src int) Vec {
	return Splat(val[src])
}

// Extract returns lane i of v (vpextrd / movd).
func Extract(v Vec, i int) int32 { return v[i] }

// Insert returns v with lane i set to x (vpinsrd).
func Insert(v Vec, i int, x int32) Vec {
	v[i] = x
	return v
}
