package spmd

import "repro/internal/vec"

// By-value conveniences over the pointer-operand primitives, so test bodies
// can pass vector expressions inline. Inactive result lanes are zero.

func gatherI(tc *TaskCtx, a *Array, idx vec.Vec, m vec.Mask, inner bool) (out vec.Vec) {
	tc.GatherIP(a, &idx, m, inner, &out)
	return out
}

func gatherF(tc *TaskCtx, a *Array, idx vec.Vec, m vec.Mask, inner bool) (out vec.FVec) {
	tc.GatherFP(a, &idx, m, inner, &out)
	return out
}

func loadVecI(tc *TaskCtx, a *Array, start int32, m vec.Mask) (out vec.Vec) {
	tc.LoadVecIP(a, start, m, &out)
	return out
}

func scatterI(tc *TaskCtx, a *Array, idx, val vec.Vec, m vec.Mask) {
	tc.ScatterIP(a, &idx, &val, m)
}

func scatterF(tc *TaskCtx, a *Array, idx vec.Vec, val vec.FVec, m vec.Mask) {
	tc.ScatterFP(a, &idx, &val, m)
}

func atomicMinLanes(tc *TaskCtx, a *Array, idx, val vec.Vec, m vec.Mask) vec.Mask {
	return tc.AtomicMinLanesP(a, &idx, &val, m)
}

func atomicCASLanes(tc *TaskCtx, a *Array, idx, old, new vec.Vec, m vec.Mask) vec.Mask {
	return tc.AtomicCASLanesP(a, &idx, &old, &new, m)
}

func atomicAddLanes(tc *TaskCtx, a *Array, idx, val vec.Vec, m vec.Mask, push bool) {
	tc.AtomicAddLanesP(a, &idx, &val, m, push)
}

func atomicAddFLanes(tc *TaskCtx, a *Array, idx vec.Vec, val vec.FVec, m vec.Mask) {
	tc.AtomicAddFLanesP(a, &idx, &val, m)
}
