package codegen

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vec"
	"repro/internal/worklist"
)

// exec is a compiled statement: runs under the given lane mask.
type exec func(fr *frame, m vec.Mask)

func (c *kcompiler) compileStmts(ss []ir.Stmt) (exec, error) {
	execs := make([]exec, 0, len(ss))
	for _, s := range ss {
		x, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		execs = append(execs, x)
	}
	return func(fr *frame, m vec.Mask) {
		for _, x := range execs {
			x(fr, m)
		}
	}, nil
}

// assignI stores val into slot under mask with merge semantics. The blend
// cost is charged only for partially-masked writes, matching how ISPC emits
// unmasked moves when the mask is known full.
func storeRegI(fr *frame, slot int, val vec.Vec, m vec.Mask) {
	if m.All(fr.W) {
		fr.regI[slot] = val
		return
	}
	fr.tc.Op(vec.ClassBlend, true)
	fr.regI[slot] = vec.Blend(m, val, fr.regI[slot], fr.W)
}

func storeRegF(fr *frame, slot int, val vec.FVec, m vec.Mask) {
	if m.All(fr.W) {
		fr.regF[slot] = val
		return
	}
	fr.tc.Op(vec.ClassBlend, true)
	fr.regF[slot] = vec.BlendF(m, val, fr.regF[slot], fr.W)
}

func storeRegM(fr *frame, slot int, val, m vec.Mask) {
	fr.regM[slot] = (fr.regM[slot] &^ m) | (val & m)
}

func (c *kcompiler) checkNPWrite(name string) error {
	if c.npOuter != nil && c.npOuter[name] {
		return c.errf("nested parallelism: assignment to %q declared outside the edge loop; NP bodies must write through arrays, atomics or pushes", name)
	}
	return nil
}

func (c *kcompiler) compileAssignLike(name string, t ir.Type, val ir.Expr) (exec, error) {
	if err := c.checkNPWrite(name); err != nil {
		return nil, err
	}
	slot := c.declare(name, t)
	switch t {
	case ir.I32:
		v, err := c.compileI(val)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) { storeRegI(fr, slot, v(fr, m), m) }, nil
	case ir.F32:
		v, err := c.compileF(val)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) { storeRegF(fr, slot, v(fr, m), m) }, nil
	default:
		v, err := c.compileM(val)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) { storeRegM(fr, slot, v(fr, m), m) }, nil
	}
}

func (c *kcompiler) compileStmt(s ir.Stmt) (exec, error) {
	switch s := s.(type) {
	case *ir.Decl:
		return c.compileAssignLike(s.Name, s.T, s.Init)

	case *ir.Assign:
		var t ir.Type
		switch {
		case hasKey(c.slotI, s.Name):
			t = ir.I32
		case hasKey(c.slotF, s.Name):
			t = ir.F32
		case hasKey(c.slotM, s.Name):
			t = ir.Bool
		default:
			return nil, c.errf("assignment to undeclared %q", s.Name)
		}
		return c.compileAssignLike(s.Name, t, s.Val)

	case *ir.Store:
		arr := c.prog.ArrayByName(s.Arr)
		idx, err := c.compileI(s.Idx)
		if err != nil {
			return nil, err
		}
		name := s.Arr
		if arr.T == ir.F32 {
			val, err := c.compileF(s.Val)
			if err != nil {
				return nil, err
			}
			return func(fr *frame, m vec.Mask) {
				if m.None() {
					return
				}
				iv, vv := idx(fr, m), val(fr, m)
				fr.tc.ScatterFP(fr.in.arrays[name], &iv, &vv, m)
			}, nil
		}
		val, err := c.compileI(s.Val)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				return
			}
			iv, vv := idx(fr, m), val(fr, m)
			fr.tc.ScatterIP(fr.in.arrays[name], &iv, &vv, m)
		}, nil

	case *ir.If:
		cond, err := c.compileM(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compileStmts(s.Then)
		if err != nil {
			return nil, err
		}
		var els exec
		if len(s.Else) > 0 {
			els, err = c.compileStmts(s.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(fr *frame, m vec.Mask) {
			cm := cond(fr, m)
			if tm := m & cm; tm.Any() {
				then(fr, tm)
			}
			if els != nil {
				if em := m &^ cm; em.Any() {
					els(fr, em)
				}
			}
		}, nil

	case *ir.While:
		cond, err := c.compileM(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.compileStmts(s.Body)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) {
			// Trip cap: every legitimate while in the kernel suite is bounded
			// by the graph size (pointer jumping <= n hops, adjacency merges
			// <= 2 degrees), but corrupted state can make one diverge — a
			// bit flip forming a union-find cycle spins comp[comp[n]] forever.
			// The cap turns that hang into a typed recoverable fault, so
			// checkpoint rollback (or the fallback ladder) can heal it. It is
			// host-side only: no modeled ops are charged, and it cannot fire
			// on uncorrupted runs.
			limit := 4*(int64(fr.in.G.NumNodes())+int64(fr.in.G.NumEdges())) + 64
			act := m
			for trips := int64(0); ; trips++ {
				act &= cond(fr, act)
				if act.None() {
					return
				}
				if trips >= limit {
					fr.tc.Fail(fmt.Errorf("while loop exceeded %d trips (likely corrupt state): %w",
						limit, fault.ErrKernelPanic))
				}
				body(fr, act)
			}
		}, nil

	case *ir.ForEdges:
		return c.compileForEdges(s)

	case *ir.Push:
		return c.compilePush(s)

	case *ir.AtomicMin:
		idx, err := c.compileI(s.Idx)
		if err != nil {
			return nil, err
		}
		val, err := c.compileI(s.Val)
		if err != nil {
			return nil, err
		}
		name := s.Arr
		succSlot := -1
		if s.Success != "" {
			if err := c.checkNPWrite(s.Success); err == nil && c.npOuter != nil {
				// Success vars bind fresh inside the loop; only reject
				// rebinding an outer name.
			}
			succSlot = c.declare(s.Success, ir.Bool)
		}
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				if succSlot >= 0 {
					storeRegM(fr, succSlot, 0, m)
				}
				return
			}
			iv, vv := idx(fr, m), val(fr, m)
			won := fr.tc.AtomicMinLanesP(fr.in.arrays[name], &iv, &vv, m)
			if succSlot >= 0 {
				storeRegM(fr, succSlot, won, m)
			}
		}, nil

	case *ir.AtomicCAS:
		idx, err := c.compileI(s.Idx)
		if err != nil {
			return nil, err
		}
		oldv, err := c.compileI(s.Old)
		if err != nil {
			return nil, err
		}
		newv, err := c.compileI(s.New)
		if err != nil {
			return nil, err
		}
		name := s.Arr
		succSlot := -1
		if s.Success != "" {
			succSlot = c.declare(s.Success, ir.Bool)
		}
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				if succSlot >= 0 {
					storeRegM(fr, succSlot, 0, m)
				}
				return
			}
			iv, ov, nv := idx(fr, m), oldv(fr, m), newv(fr, m)
			won := fr.tc.AtomicCASLanesP(fr.in.arrays[name], &iv, &ov, &nv, m)
			if succSlot >= 0 {
				storeRegM(fr, succSlot, won, m)
			}
		}, nil

	case *ir.AtomicAdd:
		idx, err := c.compileI(s.Idx)
		if err != nil {
			return nil, err
		}
		name := s.Arr
		if c.prog.ArrayByName(name).T == ir.F32 {
			val, err := c.compileF(s.Val)
			if err != nil {
				return nil, err
			}
			return func(fr *frame, m vec.Mask) {
				if m.None() {
					return
				}
				iv, vv := idx(fr, m), val(fr, m)
				fr.tc.AtomicAddFLanesP(fr.in.arrays[name], &iv, &vv, m)
			}, nil
		}
		val, err := c.compileI(s.Val)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				return
			}
			iv, vv := idx(fr, m), val(fr, m)
			fr.tc.AtomicAddLanesP(fr.in.arrays[name], &iv, &vv, m, false)
		}, nil

	case *ir.AccumAdd:
		arr := c.prog.ArrayByName(s.Acc)
		name := s.Acc
		if arr.T == ir.F32 {
			val, err := c.compileF(s.Val)
			if err != nil {
				return nil, err
			}
			return func(fr *frame, m vec.Mask) {
				if m.None() {
					return
				}
				sum := vec.ReduceAddF(val(fr, m), m, fr.W)
				fr.tc.AtomicAddFScalar(fr.in.arrays[name], 0, sum)
			}, nil
		}
		val, err := c.compileI(s.Val)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				return
			}
			fr.tc.Op(vec.ClassReduce, false)
			sum := vec.ReduceAdd(val(fr, m), m, fr.W)
			fr.tc.AtomicAddScalar(fr.in.arrays[name], 0, sum, false)
		}, nil

	case *ir.SetFlag:
		name := s.Flag
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				return
			}
			// Benign racy store: everyone writes 1.
			fr.tc.ScalarStoreI(fr.in.arrays[name], 0, 1)
		}, nil
	}
	return nil, c.errf("unknown statement %T", s)
}

func hasKey[V any](m map[string]V, k string) bool {
	_, ok := m[k]
	return ok
}

func (c *kcompiler) compilePush(s *ir.Push) (exec, error) {
	val, err := c.compileI(s.Val)
	if err != nil {
		return nil, err
	}
	role := s.WL
	pick := func(fr *frame) *worklist.WL {
		// "near" items continue this near-far round ("out" of the pair);
		// "far" items accumulate for promotion; "out" is the plain
		// pipeline list.
		if role == "far" {
			return fr.in.far
		}
		return fr.in.wl.Out
	}
	switch s.Mode {
	case ir.PushUnopt:
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				return
			}
			pick(fr).PushLanes(fr.tc, val(fr, m), m)
		}, nil
	case ir.PushCoop:
		return func(fr *frame, m vec.Mask) {
			pick(fr).PushCoop(fr.tc, val(fr, m), m)
		}, nil
	case ir.PushReserved:
		if !c.k.FiberCC {
			return nil, c.errf("reserved push outside a fiber-CC kernel")
		}
		return func(fr *frame, m vec.Mask) {
			if m.None() {
				return
			}
			n := pick(fr).WriteReserved(fr.tc, *fr.resPos, val(fr, m), m)
			*fr.resPos += n
		}, nil
	}
	return nil, c.errf("unknown push mode %d", s.Mode)
}
