package codegen

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/spmd"
	"repro/internal/vec"
)

// MaxFibersPerTask bounds fiber-specific state, set empirically in the paper
// to 256 (Section III-B1). It is a variable so the ablation experiments can
// sweep it; production code treats it as a constant.
var MaxFibersPerTask int32 = 256

// BigDegreeFactor: edge loops of nodes with at least BigDegreeFactor*W edges
// are vectorized whole; smaller nodes go through the packed fine-grained
// scheduler. Swept by the ablation experiments.
var BigDegreeFactor = 1

// kernelCode is one compiled kernel.
type kernelCode struct {
	prog *ir.Program
	k    *ir.Kernel

	nI, nF, nM int
	itemSlot   int

	// sellCapable is true when at least one ForEdges of this kernel
	// compiled a SELL-C-σ dense variant (domain sweep over its own item
	// variable); the layout policy only attaches a SELL layout to programs
	// with at least one such kernel.
	sellCapable bool

	// usesPush is true when the kernel body contains any worklist push.
	// Push-free kernels are declared stage-free to the engine at launch
	// (TaskCtx.MarkStageFree), letting cooperative deferred segments probe
	// the cache during execution instead of recording an access trace.
	usesPush bool

	body exec

	// frames pools register frames across tasks and launches; register
	// layout is per-kernel, so the pool lives here.
	frames sync.Pool
}

func compileKernel(prog *ir.Program, k *ir.Kernel) (*kernelCode, error) {
	c := &kcompiler{
		prog:  prog,
		k:     k,
		slotI: map[string]int{},
		slotF: map[string]int{},
		slotM: map[string]int{},
	}
	itemSlot := c.declare(k.ItemVar, ir.I32)
	body, err := c.compileStmts(k.Body)
	if err != nil {
		return nil, err
	}
	if k.FiberCC {
		// Fiber-level CC reserves once from the pipeline out-list, so all
		// pushes must target it.
		var bad bool
		ir.WalkStmts(k.Body, func(s ir.Stmt) {
			if p, ok := s.(*ir.Push); ok && p.WL != "out" {
				bad = true
			}
		})
		if bad {
			return nil, c.errf("fiber-level CC requires all pushes to target the pipeline worklist")
		}
	}
	usesPush := false
	ir.WalkStmts(k.Body, func(s ir.Stmt) {
		if _, ok := s.(*ir.Push); ok {
			usesPush = true
		}
	})
	return &kernelCode{
		prog: prog, k: k,
		nI: c.nI, nF: c.nF, nM: c.nM,
		itemSlot:    itemSlot,
		sellCapable: c.hasSell,
		usesPush:    usesPush,
		body:        body,
	}, nil
}

// runTask executes the kernel for one task's slice of the domain. It is
// called from both launch-per-iteration and outlined drivers.
func (kc *kernelCode) runTask(in *Instance, tc *spmd.TaskCtx) {
	if !kc.usesPush {
		// Push-free kernel: this segment stages nothing, so cooperative
		// deferred tasks may cost accesses immediately (see MarkStageFree).
		// Declared here, before the first access of the segment, for both
		// backends — the dispatch below shares the segment's costing mode.
		tc.MarkStageFree()
	}
	if fn := in.compiledFns[kc.k.Name]; fn != nil {
		// Generated backend: same phase marking, work accounting and
		// primitive order as the interpreter path below, emitted as
		// specialized straight-line Go (see internal/codegen/gogen).
		fn(in.binding, tc)
		return
	}
	tc.MarkPhase(kc.k.Name)
	W := tc.Width
	var n int32
	if kc.k.Domain == ir.DomainNodes {
		n = in.G.NumNodes()
	} else {
		n = in.wl.In.SizeCounted(tc)
	}
	if n == 0 {
		return
	}
	// Work is dealt in whole SIMD-width chunks (ISPC's foreach carves
	// W-aligned blocks): small frontiers leave trailing tasks idle rather
	// than fragmenting every task's chunk below the vector width.
	chunksTotal := (n + int32(W) - 1) / int32(W)
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * int32(W)
	end := start + chunksPer*int32(W)
	if end > n {
		end = n
	}
	if start >= end {
		return
	}

	fr := kc.newFrame(in, tc)
	defer kc.putFrame(fr)

	if kc.k.FiberCC {
		// Compute the task's total push count in advance (sum of item
		// degrees) and reserve space with a single atomic.
		total := kc.sumDegrees(in, tc, fr, start, end)
		pos := in.wl.Out.Reserve(tc, total)
		fr.resPos = &pos
	}

	chunks := (end - start + int32(W) - 1) / int32(W)
	if kc.k.Fibers {
		// NumFibersPerTask = min(MaxFibers, ceil(N / (W * tasks))) —
		// the paper's dynamic fiber count.
		fibers := (n + int32(W*tc.Count) - 1) / int32(W*tc.Count)
		if fibers > MaxFibersPerTask {
			fibers = MaxFibersPerTask
		}
		if fibers < 1 {
			fibers = 1
		}
		// Fiber f processes chunks f, f+F, f+2F... — each virtual task
		// owns a strided set, emulating thread-block scheduling.
		for f := int32(0); f < fibers; f++ {
			for ci := f; ci < chunks; ci += fibers {
				tc.ScalarOps(2) // fiber loop bookkeeping
				kc.runChunk(in, tc, fr, start+ci*int32(W), end)
			}
		}
	} else {
		for ci := int32(0); ci < chunks; ci++ {
			kc.runChunk(in, tc, fr, start+ci*int32(W), end)
		}
	}
}

// sumDegrees computes the total out-degree of the task's items (the advance
// push count for fiber-level CC), fully cost-accounted.
func (kc *kernelCode) sumDegrees(in *Instance, tc *spmd.TaskCtx, fr *frame, start, end int32) int32 {
	W := int32(tc.Width)
	var total int32
	for base := start; base < end; base += W {
		cnt := end - base
		if cnt > W {
			cnt = W
		}
		m := vec.FullMask(int(cnt))
		items := kc.loadItems(in, tc, base, m)
		rs := gatherI(tc, in.rowPtr, items, m, false)
		tc.Op(vec.ClassALU, false)
		items1 := vec.Bin(vec.OpAdd, items, vec.Splat(1), m, tc.Width)
		re := gatherI(tc, in.rowPtr, items1, m, false)
		tc.Op(vec.ClassALU, false)
		deg := vec.Bin(vec.OpSub, re, rs, m, tc.Width)
		tc.Op(vec.ClassReduce, false)
		total += vec.ReduceAdd(deg, m, tc.Width)
	}
	return total
}

// loadItems produces the item vector for a chunk: node ids for topology
// kernels, worklist items (a unit-stride vector load) for worklist kernels.
// With a SELL layout attached, topology sweeps iterate positions in the
// layout's degree-sorted order — the item vector is a unit-stride load of
// the permutation, so lane l of a W-aligned chunk holds the vertex whose
// neighbors occupy lane l of the chunk's slice. Only the processing order
// changes; vertex ids, state arrays and outputs stay in the original space.
func (kc *kernelCode) loadItems(in *Instance, tc *spmd.TaskCtx, base int32, m vec.Mask) vec.Vec {
	if kc.k.Domain == ir.DomainNodes {
		if in.sellPerm != nil {
			return loadVecI(tc, in.sellPerm, base, m)
		}
		tc.Op(vec.ClassALU, false)
		return vec.Bin(vec.OpAdd, vec.Splat(base), vec.Iota(), m, tc.Width)
	}
	return loadVecI(tc, in.wl.In.Items, base, m)
}

func (kc *kernelCode) runChunk(in *Instance, tc *spmd.TaskCtx, fr *frame, base, end int32) {
	W := int32(tc.Width)
	cnt := end - base
	if cnt > W {
		cnt = W
	}
	if cnt <= 0 {
		return
	}
	m := vec.FullMask(int(cnt))
	items := kc.loadItems(in, tc, base, m)
	fr.regI[kc.itemSlot] = items
	fr.chunkBase = base
	tc.Work(int(cnt))
	kc.body(fr, m)
}

// --- ForEdges compilation ---

func (c *kcompiler) compileForEdges(s *ir.ForEdges) (exec, error) {
	node, err := c.compileI(s.Node)
	if err != nil {
		return nil, err
	}
	edgeSlot := c.declare(s.EdgeVar, ir.I32)

	// Compile the body in inner-loop mode; for NP additionally record the
	// outer variable set to reject discarded writes.
	savedInner, savedOuter := c.inner, c.npOuter
	c.inner = true
	if s.Sched == ir.SchedNP {
		outer := make(map[string]bool, c.nI+c.nF+c.nM)
		for name := range c.slotI {
			outer[name] = true
		}
		for name := range c.slotF {
			outer[name] = true
		}
		for name := range c.slotM {
			outer[name] = true
		}
		delete(outer, s.EdgeVar)
		c.npOuter = outer
	}
	body, err := c.compileStmts(s.Body)
	c.inner, c.npOuter = savedInner, savedOuter
	if err != nil {
		return nil, err
	}

	var csrLoop exec
	if s.Sched == ir.SchedNP {
		csrLoop = c.buildNPLoop(node, edgeSlot, body)
	} else {
		csrLoop = c.buildSerialLoop(node, edgeSlot, body)
	}
	if !c.sellEligible(s, savedInner) {
		return csrLoop, nil
	}

	// Compile the body a second time in SELL cell mode: EdgeDst/EdgeWt of
	// the loop's own edge variable read the dense-loaded slice column
	// instead of gathering, and the compile records whether the body needs
	// the weight or raw-edge-id columns at all. Slot tables are shared with
	// the first compile (declare is idempotent), so both variants agree on
	// the register layout.
	c.inner = true
	c.sellEdge, c.sellWtUsed, c.sellEdgeUsed = s.EdgeVar, false, false
	sellBody, err := c.compileStmts(s.Body)
	c.sellEdge = ""
	c.inner = savedInner
	if err != nil {
		return nil, err
	}
	c.hasSell = true
	sellLoop := c.buildSellLoop(edgeSlot, sellBody, c.sellWtUsed, c.sellEdgeUsed)

	// Runtime dispatch, per chunk: the SELL path needs an attached layout
	// whose slice height matches the vector width (chunks are W-aligned by
	// the task dealer, so the chunk base then identifies one whole slice),
	// and a dense-enough active mask — a sparse mask (e.g. few lanes at the
	// current BFS level) gathers fewer words through CSR than a full-width
	// column load would touch, so sparse phases stay on CSR. This is the
	// per-phase heuristic: sparse frontier → CSR, dense sweep → SELL.
	return func(fr *frame, m vec.Mask) {
		if sl := fr.in.sell; sl != nil && int(sl.C) == fr.W && !sl.IsFallback(fr.chunkBase/sl.C) {
			fr.tc.ScalarOps(1) // density test on the chunk mask
			if 2*m.PopCount() >= fr.W {
				sellLoop(fr, m)
				return
			}
		}
		csrLoop(fr, m)
	}, nil
}

// sellEligible reports whether a ForEdges loop can take the SELL dense
// path: a top-level edge loop of a node-domain kernel sweeping the kernel's
// own item variable, with neither the item nor the edge variable mutated in
// the body — the SELL loop identifies the slice from the chunk base, which
// is only valid while lane l still holds the vertex the layout placed at
// position base+l.
func (c *kcompiler) sellEligible(s *ir.ForEdges, nested bool) bool {
	if nested || c.k.Domain != ir.DomainNodes {
		return false
	}
	v, ok := s.Node.(*ir.Var)
	if !ok || v.Name != c.k.ItemVar {
		return false
	}
	ok = true
	ir.WalkStmts(c.k.Body, func(st ir.Stmt) {
		switch st := st.(type) {
		case *ir.Assign:
			if st.Name == c.k.ItemVar || st.Name == s.EdgeVar {
				ok = false
			}
		case *ir.Decl:
			if st.Name == c.k.ItemVar || st.Name == s.EdgeVar {
				ok = false
			}
		case *ir.ForEdges:
			if st != s && st.EdgeVar == s.EdgeVar {
				ok = false // nested reuse of the edge slot
			}
		}
	})
	return ok
}

// buildSellLoop sweeps one slice of the SELL layout column by column: each
// column is a full-width unit-stride load of the C destinations (and, when
// the body needs them, edge ids and weights), the active mask is the sign
// test of the destinations (SlimSell's negative padding) intersected with
// the chunk mask, and because a row's live columns are a prefix, the mask
// only shrinks — the loop exits at the first all-inactive column.
func (c *kcompiler) buildSellLoop(edgeSlot int, body exec, useWt, useEid bool) exec {
	return func(fr *frame, m vec.Mask) {
		if m.None() {
			return
		}
		tc := fr.tc
		sl := fr.in.sell
		W := fr.W
		s := fr.chunkBase / sl.C
		start := sl.SlicePtr[s]
		height := (sl.SlicePtr[s+1] - start) / sl.C
		full := vec.FullMask(W)
		tc.ScalarOps(2) // slice bounds from SlicePtr
		for j := int32(0); j < height; j++ {
			off := start + j*sl.C
			dst := loadVecI(tc, fr.in.sellDst, off, full)
			tc.Op(vec.ClassCmp, false)
			act := m & vec.CmpMask(vec.OpGe, dst, vec.Splat(0), full, W)
			tc.InnerTally(act.PopCount())
			if act.None() {
				return
			}
			tc.NoteSellColumn(act.PopCount())
			fr.cellDst = dst
			if useWt {
				if fr.in.sellWt != nil {
					fr.cellWt = loadVecI(tc, fr.in.sellWt, off, full)
				} else {
					fr.cellWt = vec.Splat(1)
				}
			}
			if useEid {
				eid := loadVecI(tc, fr.in.sellEid, off, full)
				tc.Op(vec.ClassBlend, true)
				fr.regI[edgeSlot] = vec.Blend(act, eid, fr.regI[edgeSlot], W)
			}
			body(fr, act)
		}
	}
}

// buildSerialLoop: each lane walks its own edge range in lockstep. Lane
// utilization equals the fraction of lanes still having edges each round —
// the Table IV "unoptimized" measurement.
func (c *kcompiler) buildSerialLoop(node evalI, edgeSlot int, body exec) exec {
	return func(fr *frame, m vec.Mask) {
		if m.None() {
			return
		}
		tc := fr.tc
		nv := node(fr, m)
		rs := gatherI(tc, fr.in.rowPtr, nv, m, false)
		tc.Op(vec.ClassALU, false)
		nv1 := vec.Bin(vec.OpAdd, nv, vec.Splat(1), m, fr.W)
		re := gatherI(tc, fr.in.rowPtr, nv1, m, false)
		e := rs
		for {
			tc.InnerOp(vec.ClassCmp, true, m.PopCount())
			act := m & vec.CmpMask(vec.OpLt, e, re, m, fr.W)
			if act.None() {
				return
			}
			fr.regI[edgeSlot] = vec.Blend(act, e, fr.regI[edgeSlot], fr.W)
			body(fr, act)
			tc.InnerOp(vec.ClassALU, true, act.PopCount())
			e = vec.Bin(vec.OpAdd, e, vec.Splat(1), act, fr.W)
		}
	}
}

// buildNPLoop: the inspector-executor nested-parallelism scheduler (Fig. 2).
// High-degree nodes' edges are spread across all lanes chunk by chunk;
// low-degree nodes' edges are packed with an exclusive prefix sum and
// executed with near-full lanes. Outer per-lane state reaches the body
// through permuted register frames.
func (c *kcompiler) buildNPLoop(node evalI, edgeSlot int, body exec) exec {
	return func(fr *frame, m vec.Mask) {
		if m.None() {
			return
		}
		tc := fr.tc
		W := fr.W
		nv := node(fr, m)
		rs := gatherI(tc, fr.in.rowPtr, nv, m, false)
		tc.Op(vec.ClassALU, false)
		nv1 := vec.Bin(vec.OpAdd, nv, vec.Splat(1), m, W)
		re := gatherI(tc, fr.in.rowPtr, nv1, m, false)
		tc.Op(vec.ClassALU, false)
		deg := vec.Bin(vec.OpSub, re, rs, m, W)

		// Inspector: classify lanes.
		tc.Op(vec.ClassCmp, false)
		bigThr := int32(BigDegreeFactor * W)
		bigM := vec.CmpMask(vec.OpGe, deg, vec.Splat(bigThr), m, W)
		smallM := m &^ bigM

		regs := len(fr.regI) + len(fr.regF) + len(fr.regM)

		// High/medium-degree nodes: broadcast one lane's context to the
		// whole vector and sweep its edge range W at a time.
		for l := 0; l < W; l++ {
			if !bigM.Bit(l) {
				continue
			}
			tc.ScalarOps(2) // scheduler: select lane, set up bounds
			tc.OpN(vec.ClassALU, false, regs)
			pfr := fr.permuted(vec.Splat(int32(l)))
			s0, t0 := rs[l], re[l]
			for b := s0; b < t0; b += int32(W) {
				cnt := t0 - b
				if cnt > int32(W) {
					cnt = int32(W)
				}
				em := vec.FullMask(int(cnt))
				tc.InnerOp(vec.ClassALU, true, em.PopCount())
				pfr.regI[edgeSlot] = vec.Bin(vec.OpAdd, vec.Splat(b), vec.Iota(), em, W)
				body(pfr, em)
			}
		}

		// Low-degree nodes: pack (source lane, edge index) pairs with an
		// exclusive scan and execute them W at a time with permuted frames.
		if smallM.None() {
			return
		}
		tc.Op(vec.ClassScan, false)
		offs, total := vec.ExclusiveScanAdd(deg, smallM, W)
		if total == 0 {
			return
		}
		var srcBuf, edgeBuf [vec.MaxWidth * vec.MaxWidth]int32
		for l := 0; l < W; l++ {
			if !smallM.Bit(l) {
				continue
			}
			o := offs[l]
			for j := int32(0); j < deg[l]; j++ {
				srcBuf[o+j] = int32(l)
				edgeBuf[o+j] = rs[l] + j
			}
		}
		// The packing stores above are the scheduler's shared-memory
		// writes; charged as one vstore per produced chunk.
		chunkCount := (int(total) + W - 1) / W
		tc.OpN(vec.ClassVStore, false, chunkCount)
		for b := int32(0); b < total; b += int32(W) {
			cnt := total - b
			if cnt > int32(W) {
				cnt = int32(W)
			}
			em := vec.FullMask(int(cnt))
			tc.OpN(vec.ClassVLoad, false, 2) // scheduler reload of src/edge
			src := vec.FromSlice(srcBuf[b : b+cnt])
			tc.OpN(vec.ClassALU, false, regs) // lane shuffle of live state
			pfr := fr.permuted(src)
			pfr.regI[edgeSlot] = vec.FromSlice(edgeBuf[b : b+cnt])
			body(pfr, em)
		}
	}
}
