// Package vec implements the software vector ISA that underpins the EGACS
// SPMD execution engine. It models short-vector registers of up to MaxWidth
// 32-bit lanes together with lane masks, the gather/scatter and packed-store
// primitives that graph workloads depend on, and the per-target lowering
// rules (AVX, AVX2, AVX512, GPU warp) used to account dynamic instructions.
//
// All operations are functionally exact: results are computed lane by lane
// exactly as the corresponding hardware instruction would. Cost accounting is
// separated from execution — see Target.Lower — so the same operation stream
// can be costed for different instruction sets.
package vec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxWidth is the widest vector supported: one GPU warp (32 lanes).
// CPU targets use logical widths 4, 8 and 16.
const MaxWidth = 32

// Vec is a vector register of MaxWidth int32 lanes. The active logical width
// is carried by the execution context, not by the value; lanes at and above
// the logical width are ignored by every operation.
type Vec [MaxWidth]int32

// FVec is a vector register of MaxWidth float32 lanes.
type FVec [MaxWidth]float32

// Mask is a lane predicate: bit i set means lane i is active.
type Mask uint32

// FullMask returns the mask with the first w lanes active.
func FullMask(w int) Mask {
	if w >= 32 {
		return ^Mask(0)
	}
	return Mask(1)<<uint(w) - 1
}

// Bit reports whether lane i is active in m.
func (m Mask) Bit(i int) bool { return m&(1<<uint(i)) != 0 }

// Set returns m with lane i activated.
func (m Mask) Set(i int) Mask { return m | 1<<uint(i) }

// Clear returns m with lane i deactivated.
func (m Mask) Clear(i int) Mask { return m &^ (1 << uint(i)) }

// PopCount returns the number of active lanes.
func (m Mask) PopCount() int {
	// math/bits lowers to a single POPCNT on amd64/arm64.
	return bits.OnesCount32(uint32(m))
}

// Any reports whether any lane is active.
func (m Mask) Any() bool { return m != 0 }

// None reports whether no lane is active.
func (m Mask) None() bool { return m == 0 }

// All reports whether all of the first w lanes are active.
func (m Mask) All(w int) bool { return m&FullMask(w) == FullMask(w) }

// String renders the mask as a lane diagram, lowest lane first, e.g. "1101".
// Trailing inactive lanes are trimmed, but at least one lane is always
// rendered, so the zero mask prints "0" rather than an empty string.
func (m Mask) String() string {
	var b strings.Builder
	for i := 0; i < 32; i++ {
		if m.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	s := strings.TrimRight(b.String(), "0")
	if s == "" {
		s = "0"
	}
	return s
}

// Splat returns a vector with all lanes set to x.
func Splat(x int32) Vec {
	var v Vec
	for i := range v {
		v[i] = x
	}
	return v
}

// SplatF returns a float vector with all lanes set to x.
func SplatF(x float32) FVec {
	var v FVec
	for i := range v {
		v[i] = x
	}
	return v
}

// Iota returns the vector {0, 1, 2, ...}: the programIndex builtin.
func Iota() Vec {
	var v Vec
	for i := range v {
		v[i] = int32(i)
	}
	return v
}

// FromSlice builds a vector from up to MaxWidth values; remaining lanes are
// zero.
func FromSlice(xs []int32) Vec {
	var v Vec
	copy(v[:], xs)
	return v
}

// Slice returns the first w lanes of v as a fresh slice.
func (v Vec) Slice(w int) []int32 {
	out := make([]int32, w)
	copy(out, v[:w])
	return out
}

// String renders the first 8 lanes, for debugging.
func (v Vec) String() string {
	return fmt.Sprintf("vec%v", v[:8])
}

// ToF converts integer lanes to float lanes (cvtdq2ps).
func (v Vec) ToF(w int) FVec {
	var out FVec
	for i := 0; i < w; i++ {
		out[i] = float32(v[i])
	}
	return out
}

// ToI truncates float lanes to integer lanes (cvttps2dq).
func (v FVec) ToI(w int) Vec {
	var out Vec
	for i := 0; i < w; i++ {
		out[i] = int32(v[i])
	}
	return out
}
