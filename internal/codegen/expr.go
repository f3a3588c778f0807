package codegen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// frame is the per-task register file of a running kernel. Nested-parallelism
// redistribution makes permuted copies so inner-loop lanes read the values of
// the source lane whose edge they execute.
type frame struct {
	in *Instance
	tc *spmd.TaskCtx
	W  int

	regI []vec.Vec
	regF []vec.FVec
	regM []vec.Mask

	// chunkBase is the W-aligned domain position of the chunk being
	// executed; with a SELL layout attached it identifies the slice whose
	// rows occupy the lanes (position base+lane holds vertex Perm[base+lane]).
	chunkBase int32

	// cellDst/cellWt hold the current SELL slice column, dense-loaded by the
	// SELL edge loop; cell-mode EdgeDst/EdgeWt closures read them in place
	// of per-lane gathers.
	cellDst vec.Vec
	cellWt  vec.Vec

	// resPos is the fiber-level cooperative-conversion write cursor,
	// shared across permuted frame copies.
	resPos *int32

	// scratch is the lazily-allocated destination frame permuted() reuses.
	// Only one permuted copy of a frame is live at a time (the NP scheduler
	// finishes each chunk before making the next), and a nested NP loop
	// permutes the scratch frame itself, so each nesting level gets its own.
	scratch *frame
}

func newRegFrame(nI, nF, nM int) *frame {
	return &frame{
		regI: make([]vec.Vec, nI),
		regF: make([]vec.FVec, nF),
		regM: make([]vec.Mask, nM),
	}
}

// newFrame checks the per-kernel pool before allocating. Pooled frames come
// back with stale registers, which must be zeroed: compiled code may read a
// slot before writing it and must see the same zero value a fresh frame
// provides.
func (kc *kernelCode) newFrame(in *Instance, tc *spmd.TaskCtx) *frame {
	fr, _ := kc.frames.Get().(*frame)
	if fr == nil {
		fr = newRegFrame(kc.nI, kc.nF, kc.nM)
	} else {
		for i := range fr.regI {
			fr.regI[i] = vec.Vec{}
		}
		for i := range fr.regF {
			fr.regF[i] = vec.FVec{}
		}
		for i := range fr.regM {
			fr.regM[i] = 0
		}
	}
	fr.in, fr.tc, fr.W, fr.resPos = in, tc, tc.Width, nil
	return fr
}

// putFrame returns a frame (and its permuted-scratch chain) to the pool,
// dropping the per-launch pointers so pooled frames don't pin instances.
func (kc *kernelCode) putFrame(fr *frame) {
	for f := fr; f != nil; f = f.scratch {
		f.in, f.tc, f.resPos = nil, nil, nil
	}
	kc.frames.Put(fr)
}

// permuted returns a copy of fr whose registers are lane-permuted by src:
// out[i] = reg[src[i]]. The copy's register writes are discarded when the
// inner loop finishes — NP bodies communicate through memory, atomics and
// pushes only (enforced at compile time). The shuffle cost is charged by the
// caller. The returned frame is fr's scratch frame, overwritten wholesale on
// every call; callers must not hold it across another permuted(src) on fr.
func (fr *frame) permuted(src vec.Vec) *frame {
	out := fr.scratch
	if out == nil {
		out = newRegFrame(len(fr.regI), len(fr.regF), len(fr.regM))
		fr.scratch = out
	}
	out.in, out.tc, out.W, out.resPos = fr.in, fr.tc, fr.W, fr.resPos
	out.chunkBase = fr.chunkBase
	for l := 0; l < fr.W; l++ {
		out.cellDst[l] = fr.cellDst[src[l]]
		out.cellWt[l] = fr.cellWt[src[l]]
	}
	for r := range fr.regI {
		var v vec.Vec
		for l := 0; l < fr.W; l++ {
			v[l] = fr.regI[r][src[l]]
		}
		out.regI[r] = v
	}
	for r := range fr.regF {
		var v vec.FVec
		for l := 0; l < fr.W; l++ {
			v[l] = fr.regF[r][src[l]]
		}
		out.regF[r] = v
	}
	for r := range fr.regM {
		var m vec.Mask
		for l := 0; l < fr.W; l++ {
			if fr.regM[r].Bit(int(src[l])) {
				m = m.Set(l)
			}
		}
		out.regM[r] = m
	}
	return out
}

// evalI/evalF/evalM are compiled expression forms.
type evalI func(fr *frame, m vec.Mask) vec.Vec
type evalF func(fr *frame, m vec.Mask) vec.FVec
type evalM func(fr *frame, m vec.Mask) vec.Mask

// kcompiler holds per-kernel compilation state.
type kcompiler struct {
	prog *ir.Program
	k    *ir.Kernel

	slotI, slotF, slotM map[string]int
	nI, nF, nM          int

	// inner is true while compiling inside a ForEdges body (lane
	// utilization accounting).
	inner bool
	// npOuter, when non-nil, is the set of variables declared outside the
	// NP edge loop currently being compiled; assignments to them are
	// rejected because permuted-frame writes are discarded.
	npOuter map[string]bool

	// sellEdge, while non-empty, is the edge variable of the ForEdges body
	// being compiled in SELL cell mode: EdgeDst/EdgeWt of exactly that
	// variable read the dense-loaded slice column instead of gathering.
	sellEdge string
	// sellWtUsed/sellEdgeUsed record whether the cell-mode body consumed
	// the weight column or the raw edge id, so the SELL loop only loads
	// what the body needs.
	sellWtUsed   bool
	sellEdgeUsed bool
	// hasSell records that at least one edge loop of this kernel compiled a
	// SELL variant (the per-kernel layout policy keys off it).
	hasSell bool
}

func (c *kcompiler) errf(format string, args ...any) error {
	return fmt.Errorf("codegen: %s/%s: "+format,
		append([]any{c.prog.Name, c.k.Name}, args...)...)
}

func (c *kcompiler) declare(name string, t ir.Type) int {
	switch t {
	case ir.I32:
		if s, ok := c.slotI[name]; ok {
			return s
		}
		c.slotI[name] = c.nI
		c.nI++
		return c.nI - 1
	case ir.F32:
		if s, ok := c.slotF[name]; ok {
			return s
		}
		c.slotF[name] = c.nF
		c.nF++
		return c.nF - 1
	default:
		if s, ok := c.slotM[name]; ok {
			return s
		}
		c.slotM[name] = c.nM
		c.nM++
		return c.nM - 1
	}
}

// typeOf resolves an expression's type against the current slot tables.
// Validation already proved well-typedness; unknown names here are compiler
// ordering bugs.
func (c *kcompiler) typeOf(e ir.Expr) (ir.Type, error) {
	switch e := e.(type) {
	case *ir.ConstI, *ir.Param, *ir.NumNodes, *ir.RowStart, *ir.RowEnd,
		*ir.EdgeDst, *ir.EdgeWt, *ir.ToI:
		return ir.I32, nil
	case *ir.ConstF, *ir.ToF:
		return ir.F32, nil
	case *ir.Var:
		if _, ok := c.slotI[e.Name]; ok {
			return ir.I32, nil
		}
		if _, ok := c.slotF[e.Name]; ok {
			return ir.F32, nil
		}
		if _, ok := c.slotM[e.Name]; ok {
			return ir.Bool, nil
		}
		return 0, c.errf("variable %q not in scope", e.Name)
	case *ir.Bin:
		if e.Op.IsCompare() || e.Op.IsLogical() {
			return ir.Bool, nil
		}
		return c.typeOf(e.A)
	case *ir.Not:
		return ir.Bool, nil
	case *ir.Sel:
		return c.typeOf(e.A)
	case *ir.Load:
		a := c.prog.ArrayByName(e.Arr)
		if a == nil {
			return 0, c.errf("array %q not declared", e.Arr)
		}
		return a.T, nil
	}
	return 0, c.errf("unknown expression %T", e)
}

// opFor maps an IR arithmetic/compare op to the vec op set.
var opForI = map[ir.BinOp]vec.BinOp{
	ir.Add: vec.OpAdd, ir.Sub: vec.OpSub, ir.Mul: vec.OpMul, ir.Div: vec.OpDiv,
	ir.Rem: vec.OpRem, ir.And: vec.OpAnd, ir.Or: vec.OpOr, ir.Xor: vec.OpXor,
	ir.Shl: vec.OpShl, ir.Shr: vec.OpShr, ir.Min: vec.OpMin, ir.Max: vec.OpMax,
	ir.Eq: vec.OpEq, ir.Ne: vec.OpNe, ir.Lt: vec.OpLt, ir.Le: vec.OpLe,
	ir.Gt: vec.OpGt, ir.Ge: vec.OpGe,
}

var opForF = map[ir.BinOp]vec.FBinOp{
	ir.Add: vec.FAdd, ir.Sub: vec.FSub, ir.Mul: vec.FMul, ir.Div: vec.FDiv,
	ir.Min: vec.FMin, ir.Max: vec.FMax,
	ir.Lt: vec.FLt, ir.Le: vec.FLe, ir.Gt: vec.FGt, ir.Ge: vec.FGe, ir.Eq: vec.FEq,
}

// countALU charges one vector ALU/compare op, with inner-loop utilization
// accounting.
func (c *kcompiler) countOp(class vec.OpClass) func(fr *frame, m vec.Mask) {
	if c.inner {
		return func(fr *frame, m vec.Mask) {
			fr.tc.InnerOp(class, !m.All(fr.W), m.PopCount())
		}
	}
	return func(fr *frame, m vec.Mask) {
		fr.tc.Op(class, !m.All(fr.W))
	}
}

func (c *kcompiler) compileI(e ir.Expr) (evalI, error) {
	switch e := e.(type) {
	case *ir.ConstI:
		v := vec.Splat(e.V)
		return func(fr *frame, m vec.Mask) vec.Vec { return v }, nil
	case *ir.Param:
		name := e.Name
		return func(fr *frame, m vec.Mask) vec.Vec {
			return vec.Splat(fr.in.Params[name])
		}, nil
	case *ir.NumNodes:
		return func(fr *frame, m vec.Mask) vec.Vec {
			return vec.Splat(fr.in.G.NumNodes())
		}, nil
	case *ir.Var:
		if c.sellEdge != "" && e.Name == c.sellEdge {
			// The body consumes the raw edge id (beyond EdgeDst/EdgeWt),
			// so the SELL loop must materialize the edge-id column.
			c.sellEdgeUsed = true
		}
		slot, ok := c.slotI[e.Name]
		if !ok {
			return nil, c.errf("int variable %q not in scope", e.Name)
		}
		return func(fr *frame, m vec.Mask) vec.Vec { return fr.regI[slot] }, nil
	case *ir.Bin:
		return c.compileBinI(e)
	case *ir.Sel:
		cond, err := c.compileM(e.Cond)
		if err != nil {
			return nil, err
		}
		a, err := c.compileI(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.compileI(e.B)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassBlend)
		return func(fr *frame, m vec.Mask) vec.Vec {
			cm := cond(fr, m)
			count(fr, m)
			return vec.Blend(cm, a(fr, m), b(fr, m), fr.W)
		}, nil
	case *ir.Load:
		return c.compileLoadI(e)
	case *ir.RowStart:
		node, err := c.compileI(e.Node)
		if err != nil {
			return nil, err
		}
		inner := c.inner
		return func(fr *frame, m vec.Mask) vec.Vec {
			return gatherI(fr.tc, fr.in.rowPtr, node(fr, m), m, inner)
		}, nil
	case *ir.RowEnd:
		node, err := c.compileI(e.Node)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassALU)
		inner := c.inner
		return func(fr *frame, m vec.Mask) vec.Vec {
			n := node(fr, m)
			count(fr, m)
			n1 := vec.Bin(vec.OpAdd, n, vec.Splat(1), m, fr.W)
			return gatherI(fr.tc, fr.in.rowPtr, n1, m, inner)
		}, nil
	case *ir.EdgeDst:
		if v, ok := e.Edge.(*ir.Var); ok && c.sellEdge != "" && v.Name == c.sellEdge {
			// Cell mode: the loop's own edge destinations were dense-loaded
			// with the slice column; no gather, no extra cost here.
			return func(fr *frame, m vec.Mask) vec.Vec { return fr.cellDst }, nil
		}
		edge, err := c.compileI(e.Edge)
		if err != nil {
			return nil, err
		}
		inner := c.inner
		return func(fr *frame, m vec.Mask) vec.Vec {
			return gatherI(fr.tc, fr.in.edgeDs, edge(fr, m), m, inner)
		}, nil
	case *ir.EdgeWt:
		if v, ok := e.Edge.(*ir.Var); ok && c.sellEdge != "" && v.Name == c.sellEdge {
			c.sellWtUsed = true
			return func(fr *frame, m vec.Mask) vec.Vec { return fr.cellWt }, nil
		}
		edge, err := c.compileI(e.Edge)
		if err != nil {
			return nil, err
		}
		inner := c.inner
		return func(fr *frame, m vec.Mask) vec.Vec {
			if fr.in.edgeWt == nil {
				return vec.Splat(1)
			}
			return gatherI(fr.tc, fr.in.edgeWt, edge(fr, m), m, inner)
		}, nil
	case *ir.ToI:
		a, err := c.compileF(e.A)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassConvert)
		return func(fr *frame, m vec.Mask) vec.Vec {
			v := a(fr, m)
			count(fr, m)
			return v.ToI(fr.W)
		}, nil
	}
	return nil, c.errf("expression %T is not i32", e)
}

func (c *kcompiler) compileBinI(e *ir.Bin) (evalI, error) {
	op, ok := opForI[e.Op]
	if !ok {
		return nil, c.errf("operator %v not valid on i32", e.Op)
	}
	a, err := c.compileI(e.A)
	if err != nil {
		return nil, err
	}
	b, err := c.compileI(e.B)
	if err != nil {
		return nil, err
	}
	count := c.countOp(vec.ClassALU)
	return func(fr *frame, m vec.Mask) vec.Vec {
		av, bv := a(fr, m), b(fr, m)
		count(fr, m)
		return vec.Bin(op, av, bv, m, fr.W)
	}, nil
}

func (c *kcompiler) compileF(e ir.Expr) (evalF, error) {
	switch e := e.(type) {
	case *ir.ConstF:
		v := vec.SplatF(e.V)
		return func(fr *frame, m vec.Mask) vec.FVec { return v }, nil
	case *ir.Var:
		slot, ok := c.slotF[e.Name]
		if !ok {
			return nil, c.errf("float variable %q not in scope", e.Name)
		}
		return func(fr *frame, m vec.Mask) vec.FVec { return fr.regF[slot] }, nil
	case *ir.Bin:
		op, ok := opForF[e.Op]
		if !ok || op.IsCompare() {
			return nil, c.errf("operator %v not valid as f32 arithmetic", e.Op)
		}
		a, err := c.compileF(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.compileF(e.B)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassALU)
		return func(fr *frame, m vec.Mask) vec.FVec {
			av, bv := a(fr, m), b(fr, m)
			count(fr, m)
			return vec.FBin(op, av, bv, m, fr.W)
		}, nil
	case *ir.Sel:
		cond, err := c.compileM(e.Cond)
		if err != nil {
			return nil, err
		}
		a, err := c.compileF(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.compileF(e.B)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassBlend)
		return func(fr *frame, m vec.Mask) vec.FVec {
			cm := cond(fr, m)
			count(fr, m)
			return vec.BlendF(cm, a(fr, m), b(fr, m), fr.W)
		}, nil
	case *ir.Load:
		a := c.prog.ArrayByName(e.Arr)
		if a == nil || a.T != ir.F32 {
			return nil, c.errf("load %q is not f32", e.Arr)
		}
		idx, err := c.compileI(e.Idx)
		if err != nil {
			return nil, err
		}
		name := e.Arr
		inner := c.inner
		return func(fr *frame, m vec.Mask) vec.FVec {
			return gatherF(fr.tc, fr.in.arrays[name], idx(fr, m), m, inner)
		}, nil
	case *ir.ToF:
		a, err := c.compileI(e.A)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassConvert)
		return func(fr *frame, m vec.Mask) vec.FVec {
			v := a(fr, m)
			count(fr, m)
			return v.ToF(fr.W)
		}, nil
	}
	return nil, c.errf("expression %T is not f32", e)
}

func (c *kcompiler) compileLoadI(e *ir.Load) (evalI, error) {
	a := c.prog.ArrayByName(e.Arr)
	if a == nil || a.T != ir.I32 {
		return nil, c.errf("load %q is not i32", e.Arr)
	}
	idx, err := c.compileI(e.Idx)
	if err != nil {
		return nil, err
	}
	name := e.Arr
	inner := c.inner
	return func(fr *frame, m vec.Mask) vec.Vec {
		return gatherI(fr.tc, fr.in.arrays[name], idx(fr, m), m, inner)
	}, nil
}

func (c *kcompiler) compileM(e ir.Expr) (evalM, error) {
	switch e := e.(type) {
	case *ir.Var:
		slot, ok := c.slotM[e.Name]
		if !ok {
			return nil, c.errf("predicate variable %q not in scope", e.Name)
		}
		return func(fr *frame, m vec.Mask) vec.Mask { return fr.regM[slot] & m }, nil
	case *ir.Not:
		a, err := c.compileM(e.A)
		if err != nil {
			return nil, err
		}
		return func(fr *frame, m vec.Mask) vec.Mask {
			fr.tc.ScalarOps(1) // knot / mask complement
			return m &^ a(fr, m)
		}, nil
	case *ir.Bin:
		if e.Op.IsLogical() {
			a, err := c.compileM(e.A)
			if err != nil {
				return nil, err
			}
			b, err := c.compileM(e.B)
			if err != nil {
				return nil, err
			}
			isAnd := e.Op == ir.LAnd
			return func(fr *frame, m vec.Mask) vec.Mask {
				av := a(fr, m)
				bv := b(fr, m)
				fr.tc.ScalarOps(1) // kand/kor
				if isAnd {
					return av & bv
				}
				return (av | bv) & m
			}, nil
		}
		if !e.Op.IsCompare() {
			return nil, c.errf("operator %v does not yield a predicate", e.Op)
		}
		ta, err := c.typeOf(e.A)
		if err != nil {
			return nil, err
		}
		count := c.countOp(vec.ClassCmp)
		if ta == ir.F32 {
			a, err := c.compileF(e.A)
			if err != nil {
				return nil, err
			}
			b, err := c.compileF(e.B)
			if err != nil {
				return nil, err
			}
			op := opForF[e.Op]
			return func(fr *frame, m vec.Mask) vec.Mask {
				av, bv := a(fr, m), b(fr, m)
				count(fr, m)
				return vec.FCmpMask(op, av, bv, m, fr.W)
			}, nil
		}
		a, err := c.compileI(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.compileI(e.B)
		if err != nil {
			return nil, err
		}
		op := opForI[e.Op]
		return func(fr *frame, m vec.Mask) vec.Mask {
			av, bv := a(fr, m), b(fr, m)
			count(fr, m)
			return vec.CmpMask(op, av, bv, m, fr.W)
		}, nil
	}
	return nil, c.errf("expression %T is not a predicate", e)
}

// gatherI, gatherF and loadVecI adapt the engine's pointer-operand load
// primitives to the interpreter's by-value evaluators: inactive lanes of the
// result are zero.
func gatherI(tc *spmd.TaskCtx, a *spmd.Array, idx vec.Vec, m vec.Mask, inner bool) (out vec.Vec) {
	tc.GatherIP(a, &idx, m, inner, &out)
	return out
}

func gatherF(tc *spmd.TaskCtx, a *spmd.Array, idx vec.Vec, m vec.Mask, inner bool) (out vec.FVec) {
	tc.GatherFP(a, &idx, m, inner, &out)
	return out
}

func loadVecI(tc *spmd.TaskCtx, a *spmd.Array, start int32, m vec.Mask) (out vec.Vec) {
	tc.LoadVecIP(a, start, m, &out)
	return out
}
