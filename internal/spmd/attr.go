package spmd

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Cycle attribution: every cycle the engine puts on the modeled clock is
// charged to one (pipe-loop phase, cost class) bucket, and the clock itself is
// *defined* as the canonical fold of those buckets — class index order outer,
// phases in sorted-name order inner — recomputed after every boundary charge
// (refoldCycles). Inverting the dependency this way is what makes the
// decomposition bit-exact under IEEE float addition: there is no separately
// accumulated total that a differently-grouped per-bucket sum would have to
// reproduce. obs.Attribution snapshots the buckets in the same fold order, so
// Attribution.Total() == Engine.TimeCycles() exactly, in every execution mode
// and on both kernel backends.
//
// All bucket-registry touches are single-threaded by construction: host-side
// MarkPhase runs between launches, live-mode task marks run on the cooperative
// scheduler (one task at a time), and deferred/parallel task marks are
// recorded in the task's phase log and replayed at the merge boundary in task
// order — the same order the live scheduler would have executed them.

// costVec is one per-class cycle accumulator block.
type costVec [obs.NumCostClasses]float64

// foldClasses folds a per-class block to a scalar in class index order — the
// canonical per-task fold used for SMT winner selection and trace spans.
func foldClasses(v *costVec) float64 {
	var s float64
	for k := 0; k < int(obs.NumCostClasses); k++ {
		s += v[k]
	}
	return s
}

// opCostClass maps a vector-op class to the cost class its issue cycles are
// charged to. The gather/scatter vs vload/vstore/packed split is what
// separates the fallback-CSR path from the dense-SELL path in the profile.
var opCostClass = [vec.NumOpClasses]obs.CostClass{
	vec.ClassALU:         obs.CostVALU,
	vec.ClassCmp:         obs.CostVALU,
	vec.ClassBlend:       obs.CostVALU,
	vec.ClassGather:      obs.CostGatherScatter,
	vec.ClassScatter:     obs.CostGatherScatter,
	vec.ClassVLoad:       obs.CostDenseStream,
	vec.ClassVStore:      obs.CostDenseStream,
	vec.ClassPacked:      obs.CostDenseStream,
	vec.ClassReduce:      obs.CostVALU,
	vec.ClassScan:        obs.CostVALU,
	vec.ClassConvert:     obs.CostVALU,
	vec.ClassScalar:      obs.CostScalar,
	vec.ClassScalarLoad:  obs.CostScalar,
	vec.ClassScalarStore: obs.CostScalar,
	vec.ClassAtomic:      obs.CostAtomic,
}

// accCostClass maps a memory-access kind to the cost class its exposed stall
// is charged to. AccPlain's stall table row is all zero (stores retire through
// the write buffer), so its mapping never receives a non-zero charge.
var accCostClass = [4]obs.CostClass{
	machine.AccPlain:  obs.CostMemLoad,
	machine.AccLoad:   obs.CostMemLoad,
	machine.AccGather: obs.CostGatherScatter,
	machine.AccStream: obs.CostDenseStream,
}

// attrInitPhase is the bucket that receives charges before the first MarkPhase
// (graph binding, the first launch of an unmarked pipeline).
const attrInitPhase = "(init)"

// attrTable is the engine's attribution bucket registry. Slots are dense and
// append-only within a run; order holds slot ids sorted by phase name — the
// canonical fold order, which is independent of registration order and
// therefore identical across execution modes and backends.
type attrTable struct {
	idx   map[string]int32
	names []string
	vals  []costVec
	order []int32
	cur   int32
}

func (t *attrTable) init() {
	t.idx = make(map[string]int32)
	t.register(attrInitPhase)
	t.cur = 0
}

// reset forgets all registrations, keeping slice capacity (ResetAll).
func (t *attrTable) reset() {
	for k := range t.idx {
		delete(t.idx, k)
	}
	t.names = t.names[:0]
	t.vals = t.vals[:0]
	t.order = t.order[:0]
	t.register(attrInitPhase)
	t.cur = 0
}

// zero clears every bucket, keeping registrations and the cursor (ResetTime).
func (t *attrTable) zero() {
	for i := range t.vals {
		t.vals[i] = costVec{}
	}
}

// register appends a new slot and inserts its id at the sorted position.
func (t *attrTable) register(name string) int32 {
	id := int32(len(t.names))
	t.idx[name] = id
	t.names = append(t.names, name)
	t.vals = append(t.vals, costVec{})
	pos := sort.Search(len(t.order), func(i int) bool {
		return t.names[t.order[i]] >= name
	})
	t.order = append(t.order, 0)
	copy(t.order[pos+1:], t.order[pos:])
	t.order[pos] = id
	return id
}

// attrMark moves the attribution cursor to the named phase, registering it on
// first sight. Steady state is one map hit — no allocation. Single-threaded
// only (see package comment above).
func (e *Engine) attrMark(name string) {
	t := &e.attr
	if id, ok := t.idx[name]; ok {
		t.cur = id
		return
	}
	t.cur = t.register(name)
}

// MarkPhase records entry into a named phase from the host side: it stores
// the name for failure context and moves the attribution cursor. It runs
// between launches on the host goroutine, which is single-threaded in every
// execution mode. Task bodies use TaskCtx.MarkPhase, which also attributes
// correctly in the deferred and parallel modes.
func (e *Engine) MarkPhase(name string) {
	e.phase.Store(&name)
	e.attrMark(name)
}

// refoldCycles recomputes the modeled clock as the canonical fold of the
// attribution buckets: per class (index order), fold phases in sorted-name
// order, then fold the class totals. Called after every boundary charge; this
// IS the definition of Engine.TimeCycles().
func (e *Engine) refoldCycles() {
	t := &e.attr
	var total float64
	for k := 0; k < int(obs.NumCostClasses); k++ {
		var ct float64
		for _, id := range t.order {
			ct += t.vals[id][k]
		}
		total += ct
	}
	e.cycles = total
}

// chargeCycles adds c to the current phase's bucket for class cls and
// re-derives the clock. Every non-segment clock advance (launch, barrier,
// host work) funnels through here; segment costs charge their per-class parts
// directly in aggregateSegment.
func (e *Engine) chargeCycles(cls obs.CostClass, c float64) {
	e.attr.vals[e.attr.cur][cls] += c
	e.refoldCycles()
}

// Attribution snapshots the engine's cycle attribution. Phases appear in
// sorted-name order — the canonical fold order — with all-zero buckets
// dropped (exact zeros contribute nothing to any fold), so
// Attribution.Total() equals TimeCycles() bit-for-bit. Wasted is left zero;
// the recovery layer reports discarded cycles separately.
func (e *Engine) Attribution() obs.Attribution {
	t := &e.attr
	var a obs.Attribution
	for _, id := range t.order {
		if t.vals[id] == (costVec{}) {
			continue
		}
		a.Phases = append(a.Phases, obs.AttrPhase{Phase: t.names[id], Cycles: t.vals[id]})
	}
	return a
}
