package spmd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/vec"
)

// Exec selects how Launch executes task bodies.
type Exec uint8

const (
	// ExecLive is the legacy mode: deterministic cooperative scheduling
	// with immediate effects — every Op, memory access and atomic mutates
	// shared engine state as it executes. Required by fault injection,
	// and the mode all baseline engines run in.
	ExecLive Exec = iota
	// ExecDeferred runs the same cooperative schedule with deferred
	// effects: tasks observe segment-start state plus their own writes,
	// and all effects merge at barriers in task order. This is the
	// reference semantics the parallel scheduler is differential-tested
	// against.
	ExecDeferred
	// ExecParallel runs deferred-effect tasks concurrently on real
	// goroutines, one per task, synchronizing at barriers. Modeled
	// cycles, statistics and outputs are bit-identical to ExecDeferred.
	ExecParallel
)

// Engine executes SPMD launches against one machine model and accumulates
// modeled time and statistics. It is single-client: one kernel pipeline runs
// on it at a time.
type Engine struct {
	Machine *machine.Config
	Target  vec.Target
	TaskSys TaskSystem
	// NumTasks is the default task count for launches (the paper's TASK
	// setting: 16 on Intel, 64 on AMD).
	NumTasks int
	// NoSMT restricts placement to one hardware thread per core (the
	// paper's no-SMT pinning experiments).
	NoSMT bool
	// PinStride is the artifact's TASK "N-D" second field: the distance
	// between the logical CPUs of consecutive tasks (default 1). With
	// stride 2 on 4 logical CPUs, tasks pin to CPUs 0,2,1,3.
	PinStride int
	// StallScale scales all memory stall costs; the GPU model sets it
	// below 1 to reflect latency hiding by high warp occupancy.
	StallScale float64

	// Exec selects the execution strategy. Mid-segment fault injection
	// (index corruption) forces ExecLive regardless of this setting (see
	// execMode); boundary-drawn injection classes (overflow, bit-flip,
	// transient), cycle attribution, tracing and metrics work in every mode.
	Exec Exec

	Mem   *machine.MemModel
	Addr  *machine.AddrSpace
	Pager Pager

	// Budget bounds runs on this engine (modeled cycles, wall-clock
	// deadline, pipe-loop iterations). The zero value disables all limits.
	Budget fault.Budget
	// Inject, when non-nil, deterministically corrupts memory-primitive
	// indices and worklist room checks to exercise failure paths.
	Inject *fault.Injector

	Stats Stats

	// Trace, when non-nil, records kernel launches, barriers, per-task
	// segment spans, pipe-loop iterations and worklist swaps on the
	// modeled and host clocks. Attach before the first launch; all
	// recording points are single-writer by the engine's scheduling
	// structure, so the tracer needs no locking.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives one sample per pipe-loop iteration
	// (frontier size, lane utilization, cache hits, ...).
	Metrics *obs.Metrics

	phase atomic.Pointer[string] // current kernel phase, attached to failure context
	iter  atomic.Int64           // current pipe iteration, attached to failure context

	// phaseNames interns phase-name pointers so MarkPhase — called once per
	// task per kernel — stays allocation-free after the first launch of each
	// kernel (pinned by the backend alloc-regression tests).
	phaseNames sync.Map // string -> *string

	cycles     float64 // modeled time in core cycles
	transferNS float64 // host<->device transfers (GPU only)
	faultNS    float64 // demand-paging stalls charged globally

	segSerialAtomics float64 // serialized (contended) atomic cycles this segment
	activeThreads    int     // for contention scaling, set per launch

	// nArrays/nPush hand out the dense ids that deferred tasks use to
	// direct-index shadow buffers and push-batch tables. arrays is the
	// dense id-ordered registry the checkpoint layer snapshots; cp is the
	// recovery point it snapshots into (see checkpoint.go), allocated by the
	// first Checkpoint so an engine that never takes one pays nothing.
	nArrays int32
	nPush   int32
	arrays  []*Array
	cp      *checkpoint

	// scratch holds the host backing of the arrays AllocScratchI hands out
	// (worklist items and tails), in allocation order; nScratch counts the
	// slabs taken since New or the last ResetAll, which rewinds it so the
	// next run is handed the same slabs in the same order.
	scratch  [][]int32
	nScratch int

	// gen is the engine's reuse generation, drawn from the package-wide
	// engineGen counter by New and again by ResetAll. Pooled deferred
	// contexts (defPool, shared by every engine) stamp the generation they
	// were built under; a context acquired under any other generation — a
	// later run of this engine or another engine altogether — drops its
	// layout-dependent state (shadow tables and batch tables keyed by dense
	// ids that the new run reissues) before first use, so a reused context can
	// never surface a prior run's pending writes — or trip the foreign-array
	// check — through a recycled shadow buffer.
	gen uint64

	// tasks is the per-task state of the current launch, reused by every
	// launch on this engine (newTasks) so a launch does not allocate its
	// TaskCtx values; tcs[i] is &tasks[i].
	tasks []TaskCtx
	tcs   []*TaskCtx

	// aggScratch holds aggregateSegment's per-core accumulators, reused
	// across segments (aggregation always runs single-threaded).
	aggScratch []float64

	// stallTab caches the exposed stall charge of one memory access per
	// (access kind, hit level), premultiplied by StallScale and the
	// active-thread contention scale. The hot charge sites (the probe in
	// chargeLanes/noteAccess, trace replay) reduce to a cache probe plus one
	// table read and one add; each entry is the Machine.LoadCost/GatherCost ×
	// StallScale product a per-access charge would compute, computed once, so
	// accumulated stalls are bit-identical to charging each access from the
	// machine model.
	// Rebuilt by setActiveThreads (every launch), New and ResetAll.
	stallTab [4][machine.NumLevels]float64

	// opCost caches Target.Lower for every (class, masked) pair together
	// with the per-op compute charge float64(instrs)/IPC, so the accounting
	// hot path (Op/OpN, every memory primitive) is a table read plus counter
	// adds instead of a lowering switch and a float division. The cached
	// cycle value is computed once with the same operands the switch-based
	// path used per call, so accumulated compute stays bit-identical.
	// Rebuilt wherever Target is set: New and ResetAll.
	opCost [vec.NumOpClasses][2]opCostEntry
	// invIPC caches 1/Machine.IPC for the scalar-op charge.
	invIPC float64

	// attr holds the per-(phase, cost class) cycle buckets the modeled clock
	// is defined over (see attr.go). cycles above is always the canonical
	// fold of these buckets.
	attr attrTable

	obsOpen []iterSpan // open pipe-loop iteration spans, outermost first
	obsBase iterBase   // counter snapshot behind the previous metrics row
}

// New creates an engine for the given machine, target and task count. A task
// count of 0 selects the machine's default. The execution mode is ExecLive;
// callers override Exec directly.
func New(cfg *machine.Config, target vec.Target, tasks int) *Engine {
	if tasks <= 0 {
		tasks = cfg.DefaultTasks
	}
	scale := cfg.StallHideFactor
	if scale == 0 {
		scale = 1
	}
	e := &Engine{
		Machine:    cfg,
		Target:     target,
		TaskSys:    Pthread, // EGACS default: pinned pthread tasking
		NumTasks:   tasks,
		StallScale: scale,
		Mem:        machine.NewMemModel(cfg),
		Addr:       machine.NewAddrSpace(cfg),
	}
	e.buildOpCost()
	e.buildStallTab()
	e.attr.init()
	e.gen = engineGen.Add(1)
	return e
}

// opCostEntry is one cached lowering: dynamic instruction count and the
// modeled compute cycles one such op charges.
type opCostEntry struct {
	instrs int64
	cycles float64
}

// buildOpCost (re)derives the per-(class,masked) lowering cache from the
// current target and machine. Must run after every Target change.
func (e *Engine) buildOpCost() {
	for c := vec.OpClass(0); c < vec.NumOpClasses; c++ {
		for m := 0; m < 2; m++ {
			n := int64(e.Target.Lower(c, m == 1))
			e.opCost[c][m] = opCostEntry{instrs: n, cycles: float64(n) / e.Machine.IPC}
		}
	}
	e.invIPC = 1 / e.Machine.IPC
}

// Width returns the SIMD width of the engine's target.
func (e *Engine) Width() int { return e.Target.Width }

// register assigns the next dense engine-scoped array id.
func (e *Engine) register(a *Array) *Array {
	a.id = e.nArrays
	e.nArrays++
	e.arrays = append(e.arrays, a)
	return a
}

// AllocI allocates a zeroed int32 array with a synthetic address.
func (e *Engine) AllocI(name string, n int) *Array {
	return e.register(&Array{Name: name, I: make([]int32, n), Base: e.Addr.Alloc(int64(n) * 4)})
}

// AllocScratchI allocates a zeroed int32 array like AllocI, but its host
// backing belongs to the engine: after ResetAll, the next run's k-th
// AllocScratchI gets the k-th slab back, cleared, and a slab is replaced only
// when the new run needs more room. The synthetic address comes from the
// same allocator in the same call order, so the modeled cycles are AllocI's.
// It is for arrays that never leave a run (worklist storage): their contents
// are valid only until the engine's next ResetAll.
func (e *Engine) AllocScratchI(name string, n int) *Array {
	var s []int32
	if e.nScratch < len(e.scratch) && cap(e.scratch[e.nScratch]) >= n {
		s = e.scratch[e.nScratch][:n]
		clear(s)
	} else {
		s = make([]int32, n)
		if e.nScratch < len(e.scratch) {
			e.scratch[e.nScratch] = s
		} else {
			e.scratch = append(e.scratch, s)
		}
	}
	e.nScratch++
	return e.register(&Array{Name: name, I: s[:n:n], Base: e.Addr.Alloc(int64(n) * 4)})
}

// AllocF allocates a zeroed float32 array with a synthetic address.
func (e *Engine) AllocF(name string, n int) *Array {
	return e.register(&Array{Name: name, F: make([]float32, n), Base: e.Addr.Alloc(int64(n) * 4)})
}

// BindI wraps an existing slice (e.g. a CSR row-pointer array) as an Array,
// assigning it a synthetic address range. The slice stays the caller's:
// bound arrays are read-only inputs of a run, possibly shared with other
// engines, and Checkpoint/Restore neither copy nor write them.
func (e *Engine) BindI(name string, data []int32) *Array {
	return e.register(&Array{Name: name, I: data, Base: e.Addr.Alloc(int64(len(data)) * 4), bound: true})
}

// RegisterPushTarget hands out the next dense push-target id; worklists call
// it once at construction so deferred tasks can index their batch table
// directly instead of hashing the target.
func (e *Engine) RegisterPushTarget() int32 {
	id := e.nPush
	e.nPush++
	return id
}

// TimeCycles returns the modeled kernel time in cycles (excluding transfers).
func (e *Engine) TimeCycles() float64 { return e.cycles }

// TimeNS returns the modeled wall time in nanoseconds including transfers
// and paging stalls.
func (e *Engine) TimeNS() float64 {
	return e.Machine.CyclesToNS(e.cycles) + e.transferNS + e.faultNS
}

// TimeMS returns the modeled wall time in milliseconds.
func (e *Engine) TimeMS() float64 { return e.TimeNS() / 1e6 }

// AddTransferBytes charges a host<->device transfer (GPU machines only).
func (e *Engine) AddTransferBytes(bytes int64) {
	e.transferNS += e.Machine.TransferNS(bytes)
}

// AddCycles charges raw cycles to the global clock (used for modeled
// sequential host work between launches), attributed to the host cost class
// under the current phase.
func (e *Engine) AddCycles(c float64) { e.chargeCycles(obs.CostHost, c) }

// ResetTime clears the clock and statistics but keeps caches warm, matching
// the paper's methodology of timing the algorithm after graph loading.
func (e *Engine) ResetTime() {
	e.attr.zero()
	e.refoldCycles()
	e.transferNS = 0
	e.faultNS = 0
	e.Stats = Stats{}
	e.obsOpen = e.obsOpen[:0]
	e.obsBase.stats = Stats{}
}

// ResetAll returns the engine to its post-New state so it can be reused for a
// new, unrelated run — the request-pool path of the serving layer. Where
// ResetTime keeps caches warm for the same bound instance, ResetAll forgets
// everything a prior run could leak into the next one: the array registry is
// cleared (dense ids restart at 0 and no prior arrays remain reachable), the
// synthetic address space resets, the cache tags the prior runs touched are
// cleared (machine.MemModel.Reset — the rest are still empty), the recovery
// point is dropped, the clocks, statistics, budget, injector, pager and
// observability attachments drop, and pooled deferred contexts from earlier
// runs are invalidated by a generation bump (their shadow and batch tables
// are keyed by dense ids the new run will reissue). Layout-independent buffer
// capacity — op logs, access traces, batch item slots, aggregation scratch,
// the recovery point's array buffers and cache-tag mirror, and the worklist
// storage slabs of AllocScratchI — is retained, which is the point of
// pooling the engine at all.
//
// The machine model is fixed at New; target and tasks are reconfigurable per
// reuse (tasks <= 0 selects the machine default). Arrays from AllocI and
// AllocF (a previous run's result arrays) remain valid snapshots: a fresh
// run allocates fresh backing arrays and never touches them. Arrays from
// AllocScratchI do not: the next run clears and reuses their slabs.
func (e *Engine) ResetAll(target vec.Target, tasks int) {
	if tasks <= 0 {
		tasks = e.Machine.DefaultTasks
	}
	e.Target = target
	e.buildOpCost()
	e.TaskSys = Pthread
	e.NumTasks = tasks
	e.NoSMT = false
	e.PinStride = 0
	if e.StallScale = e.Machine.StallHideFactor; e.StallScale == 0 {
		e.StallScale = 1
	}
	e.Exec = ExecLive
	e.Pager = nil
	e.Budget = fault.Budget{}
	e.Inject = nil
	e.Trace = nil
	e.Metrics = nil

	e.attr.reset()
	e.refoldCycles()
	e.transferNS = 0
	e.faultNS = 0
	e.segSerialAtomics = 0
	e.activeThreads = 0
	e.buildStallTab()
	e.Stats = Stats{}
	e.phase.Store(nil)
	e.iter.Store(0)
	e.obsOpen = e.obsOpen[:0]
	e.obsBase = iterBase{}

	for i := range e.arrays {
		e.arrays[i] = nil
	}
	e.arrays = e.arrays[:0]
	e.nArrays = 0
	e.nPush = 0
	e.nScratch = 0
	e.DropCheckpoint()
	e.Addr.Reset()
	e.Mem.Reset()
	e.gen = engineGen.Add(1)
}

// execMode resolves the effective execution mode for the next launch.
// Mid-segment index corruption draws one variate per memory access, so only
// the live cooperative path keeps its draw order deterministic; that class
// forces ExecLive. Boundary-drawn classes (overflow at worklist
// materialization, bit-flip and transient faults at single-writer windows)
// keep the configured mode.
func (e *Engine) execMode() Exec {
	if e.Inject != nil && e.Inject.LiveOnly() {
		return ExecLive
	}
	return e.Exec
}

// DeferredExec reports whether launches on this engine run with deferred
// effects (serially or in parallel). The worklist layer uses it to enable
// growth on lists whose deferred reservations may exceed the live-mode
// capacity bound.
func (e *Engine) DeferredExec() bool { return e.execMode() != ExecLive }

// phaseName returns the current kernel phase for failure context.
func (e *Engine) phaseName() string {
	if p := e.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// hwThreadOf maps a task index to a hardware thread under the pinning
// policy: tasks fill one thread per core first, then additional SMT ways
// (Linux-style logical CPU enumeration, as the paper's pinned runs use).
func (e *Engine) hwThreadOf(task int) int {
	h := e.Machine.HWThreads()
	if e.NoSMT {
		h = e.Machine.Cores
	}
	d := e.PinStride
	if d <= 1 {
		return task % h
	}
	// Strided pinning with wrap offset, as the artifact's Makefile
	// documents: 4-2 places tasks on CPUs 0,2,1,3.
	return (task*d + task*d/h) % h
}

func (e *Engine) coreOf(hwThread int) int { return hwThread % e.Machine.Cores }

// LaunchEmpty models launching n tasks that do nothing: the Table II
// microbenchmark condition.
func (e *Engine) LaunchEmpty(n int) {
	if n <= 0 {
		n = e.NumTasks
	}
	e.Stats.Launches++
	e.chargeCycles(obs.CostLaunch, e.Machine.NSToCycles(e.TaskSys.LaunchCostNS(n, true)))
}

// MarkIteration records the current pipe-loop iteration for failure context.
func (e *Engine) MarkIteration(i int64) { e.iter.Store(i) }

// newTasks builds the n TaskCtx of one launch in the engine's task buffer,
// growing it when n exceeds every earlier launch.
func (e *Engine) newTasks(n int, mode Exec) []*TaskCtx {
	if len(e.tasks) < n {
		e.tasks = make([]TaskCtx, n)
		e.tcs = make([]*TaskCtx, n)
		for i := range e.tasks {
			e.tcs[i] = &e.tasks[i]
		}
	}
	tcs := e.tcs[:n]
	for i := range tcs {
		e.newTask(i, n, mode)
	}
	return tcs
}

// newTask (re)initializes task i of a launch of n tasks. Live tasks account
// directly into the engine's stats; deferred tasks get a private shard and
// effect context.
func (e *Engine) newTask(i, n int, mode Exec) {
	hwt := e.hwThreadOf(i)
	tc := &e.tasks[i]
	*tc = TaskCtx{
		E:     e,
		Index: i,
		Count: n,
		Width: e.Target.Width,
		hw:    hwt,
		core:  e.coreOf(hwt),
	}
	if mode == ExecLive {
		tc.st = &e.Stats
	} else {
		tc.st = &tc.shard
		tc.def = e.getDeferredCtx()
		// Cooperative deferred tasks run strictly serially in task order,
		// so a segment the driver marks stage-free may probe the cache
		// during execution instead of recording a trace (MarkStageFree).
		tc.serialDef = mode == ExecDeferred
	}
}

// engineGen hands out engine reuse generations (see Engine.gen).
var engineGen atomic.Uint64

// defPool recycles deferredCtx objects across launches and engines so
// shadow buffers, traces, logs and batches keep their capacity for the whole
// kernel pipeline — and for the next engine — instead of reallocating per
// launch. It is a pool.Pool because a launch's goroutine may run on another
// P than the one the previous launch returned its contexts on.
var defPool pool.Pool[*deferredCtx]

// getDeferredCtx acquires a pooled deferred-effect context. Trace
// compression (line-level access dedup) is enabled only when no pager is
// attached: with demand paging every access must replay at its own address.
// A context last used under another generation drops its dense-id-keyed
// state first (see Engine.gen).
func (e *Engine) getDeferredCtx() *deferredCtx {
	d := defPool.Get()
	if d == nil {
		d = &deferredCtx{gen: e.gen}
	} else if d.gen != e.gen {
		d.dropLayout()
		d.gen = e.gen
	}
	if e.Pager == nil {
		d.dedupShift = e.Mem.LineShift()
	} else {
		d.dedupShift = 0
	}
	return d
}

// releaseTasks ends a launch (including its error paths): it stops every
// cooperative task still suspended at a barrier, which unwinds its body, and
// returns the deferred contexts to the pool, carrying buffer capacity and
// shadow allocations over to the next launch. The coroutine handles and the
// failure value are dropped so the task buffer retains nothing of the
// launch's body; a live task stays usable until the next launch.
func (e *Engine) releaseTasks(tcs []*TaskCtx) {
	for _, tc := range tcs {
		if tc.stop != nil {
			tc.stop()
		}
		if tc.def != nil {
			tc.def.reset()
			defPool.Put(tc.def)
		}
		tc.def, tc.next, tc.stop, tc.yield, tc.panicked = nil, nil, nil, nil, nil
	}
}

// setActiveThreads caps the contention-scaling thread count at the number of
// hardware threads available under the pinning policy.
func (e *Engine) setActiveThreads(n int) {
	hw := e.Machine.HWThreads()
	if e.NoSMT {
		hw = e.Machine.Cores
	}
	e.activeThreads = n
	if e.activeThreads > hw {
		e.activeThreads = hw
	}
	e.buildStallTab()
}

// buildStallTab (re)derives the per-(kind, level) stall-charge cache from the
// current machine, StallScale and active-thread count. AccPlain's row stays
// zero (stores retire through the write buffer); AccStream stalls only when
// the line is not already in L1.
func (e *Engine) buildStallTab() {
	for lvl := machine.Level(0); lvl < machine.NumLevels; lvl++ {
		e.stallTab[machine.AccLoad][lvl] = e.Machine.LoadCost(lvl, e.activeThreads) * e.StallScale
		e.stallTab[machine.AccGather][lvl] = e.Machine.GatherCost(lvl, e.activeThreads) * e.StallScale
		e.stallTab[machine.AccStream][lvl] = e.Machine.LoadCost(lvl, e.activeThreads) * e.StallScale
	}
	e.stallTab[machine.AccStream][machine.L1] = 0
}

// taskError converts a recovered task panic into the typed launch error.
func (e *Engine) taskError(tc *TaskCtx) error {
	if tf, ok := tc.panicked.(taskFailure); ok {
		return fmt.Errorf("task %d (kernel %q, iteration %d): %w",
			tc.Index, e.phaseName(), e.iter.Load(), tf.err)
	}
	return &fault.PanicError{
		Task: tc.Index, Kernel: e.phaseName(), Iteration: e.iter.Load(),
		Value: tc.panicked,
	}
}

// Launch runs body on n tasks (0 selects the engine default) and advances
// the modeled clock. Tasks may call TaskCtx.Barrier; all live tasks
// synchronize there. Depending on the engine's execution mode the tasks run
// on the deterministic cooperative scheduler (ExecLive with immediate
// effects, ExecDeferred with barrier-merged effects) or concurrently on real
// goroutines (ExecParallel). All modes produce identical modeled time; the
// deferred modes additionally produce identical statistics and outputs to
// each other.
//
// Launch returns a typed error (matching the internal/fault taxonomy) when a
// task fails via TaskCtx.Fail, when a task body panics, or when the engine's
// budget is exhausted at the launch boundary. A failing launch drains and
// aborts all sibling tasks before returning, so no goroutines leak. Call
// sites that predate the failure model may ignore the result: without a
// budget or injector configured, the only error source is a kernel bug.
func (e *Engine) Launch(n int, body func(*TaskCtx)) error {
	return e.launch(n, body, true)
}

// ResumeLaunch is Launch without the launch-cost accounting: no Launches
// increment and no launch-cost cycles. The recovery layer uses it to re-enter
// an outlined pipe body after a rollback — the restored checkpoint already
// contains the original launch's accounting, so charging again would diverge
// modeled time from an undisturbed run.
func (e *Engine) ResumeLaunch(n int, body func(*TaskCtx)) error {
	return e.launch(n, body, false)
}

func (e *Engine) launch(n int, body func(*TaskCtx), charge bool) error {
	if err := e.Budget.CheckCtx(); err != nil {
		return err
	}
	if err := e.Budget.CheckCycles(e.cycles); err != nil {
		return err
	}
	if n <= 0 {
		n = e.NumTasks
	}
	var launchCyc, launchHost float64
	if e.Trace != nil {
		launchCyc, launchHost = e.cycles, e.Trace.HostNow()
	}
	if charge {
		e.Stats.Launches++
		e.chargeCycles(obs.CostLaunch, e.Machine.NSToCycles(e.TaskSys.LaunchCostNS(n, false)))
	}
	e.setActiveThreads(n)

	mode := e.execMode()
	var err error
	if mode == ExecParallel {
		err = e.runParallel(n, body)
	} else {
		err = e.runCooperative(n, mode, body)
	}
	if e.Trace != nil {
		e.traceLaunch(launchCyc, launchHost, n)
	}
	return err
}

// LaunchNoBarrier runs body on n tasks that never call TaskCtx.Barrier — the
// common single-segment launch emitted for per-kernel host pipelines. In the
// serial modes the bodies run inline on the calling goroutine in task order,
// as plain calls without the coroutine a barrier launch gives each task; in
// parallel mode they fan out on a WaitGroup without barrier machinery.
// Effects and costs are identical to Launch for barrier-free bodies. A body
// that does call Barrier fails with a typed error.
func (e *Engine) LaunchNoBarrier(n int, body func(*TaskCtx)) error {
	if err := e.Budget.CheckCtx(); err != nil {
		return err
	}
	if err := e.Budget.CheckCycles(e.cycles); err != nil {
		return err
	}
	if n <= 0 {
		n = e.NumTasks
	}
	var launchCyc, launchHost float64
	if e.Trace != nil {
		launchCyc, launchHost = e.cycles, e.Trace.HostNow()
	}
	e.Stats.Launches++
	e.chargeCycles(obs.CostLaunch, e.Machine.NSToCycles(e.TaskSys.LaunchCostNS(n, false)))
	e.setActiveThreads(n)

	mode := e.execMode()
	tcs := e.newTasks(n, mode)
	defer e.releaseTasks(tcs)

	run := func(tc *TaskCtx) {
		defer func() {
			if r := recover(); r != nil {
				if _, isAbort := r.(abortSentinel); !isAbort {
					tc.panicked = r
				}
			}
		}()
		body(tc)
	}

	if mode == ExecParallel {
		var wg sync.WaitGroup
		for _, tc := range tcs {
			wg.Add(1)
			go func(tc *TaskCtx) {
				defer wg.Done()
				run(tc)
			}(tc)
		}
		wg.Wait()
	} else {
		for _, tc := range tcs {
			run(tc)
			if tc.panicked != nil {
				break
			}
		}
	}

	// Deterministic failure selection: the lowest-index failed task wins,
	// matching the cooperative scheduler's sweep order.
	for _, tc := range tcs {
		if tc.panicked != nil {
			return e.taskError(tc)
		}
	}

	if mode != ExecLive {
		if err := e.mergeSegment(tcs); err != nil {
			return err
		}
	}
	e.aggregateSegment(tcs)
	if e.Trace != nil {
		e.traceLaunch(launchCyc, launchHost, n)
	}
	return nil
}

// aggregateSegment folds the per-task compute and stall cycles accumulated
// since the previous barrier into one segment duration, modeling SMT
// resource sharing: hardware threads on a core share issue bandwidth
// (compute adds) but overlap memory stalls (stall maxes with the co-resident
// thread's compute). Contended atomics additionally impose a global
// serialization floor.
//
// The segment's cost is charged into the attribution buckets of the current
// phase, decomposed by cost class along whatever bound the winning core: the
// serial-atomic floor charges whole to CostAtomicSerial, a stall-bound core
// charges its slowest thread's per-class compute+stall parts, and a
// compute-bound core charges the per-class sum of its tasks' issue cycles.
// The clock then re-derives from the buckets (refoldCycles), so the per-class
// decomposition sums to the clock bit-exactly by construction. All selection
// arithmetic runs on canonical per-task folds (foldClasses), which are
// mode-invariant, so the winner — and with it the whole decomposition — is
// identical across execution modes and backends.
func (e *Engine) aggregateSegment(tcs []*TaskCtx) {
	cores := e.Machine.Cores
	if len(e.aggScratch) < 2*cores {
		e.aggScratch = make([]float64, 2*cores)
	} else {
		for i := range e.aggScratch[:2*cores] {
			e.aggScratch[i] = 0
		}
	}
	coreCompute := e.aggScratch[:cores]
	coreThreadMax := e.aggScratch[cores : 2*cores]
	tr := e.Trace
	var segPhase string
	if tr != nil {
		if segPhase = e.phaseName(); segPhase == "" {
			segPhase = "task"
		}
	}
	for _, tc := range tcs {
		comp := foldClasses(&tc.comp)
		stall := foldClasses(&tc.stl)
		if tr != nil {
			// Per-task segment span: starts at the segment-start clock,
			// lasts the task's own compute+stall. Both are pure modeled
			// quantities, identical in every execution mode.
			if d := comp + stall; d > 0 {
				tr.CompleteArg(obs.ProcModeled, obs.TidTask0+tc.Index, segPhase,
					e.usCycles(e.cycles), e.usCycles(d), "stall_cycles", int64(stall))
			}
		}
		coreCompute[tc.core] += comp
		if t := comp + stall; t > coreThreadMax[tc.core] {
			coreThreadMax[tc.core] = t
		}
	}
	var seg float64
	segCore := -1
	for c := 0; c < cores; c++ {
		t := coreCompute[c]
		if coreThreadMax[c] > t {
			t = coreThreadMax[c]
		}
		if t > seg {
			seg = t
			segCore = c
		}
	}
	var parts costVec
	if e.segSerialAtomics > seg {
		parts[obs.CostAtomicSerial] = e.segSerialAtomics
	} else if segCore >= 0 {
		if coreThreadMax[segCore] > coreCompute[segCore] {
			// Stall-bound: the segment lasts as long as the winning core's
			// slowest thread. Re-find it with the same strict-max, first-wins
			// scan that built coreThreadMax, and charge that task's parts.
			var best *TaskCtx
			var bt float64
			for _, tc := range tcs {
				if tc.core != segCore {
					continue
				}
				if t := foldClasses(&tc.comp) + foldClasses(&tc.stl); t > bt {
					bt = t
					best = tc
				}
			}
			for k := range parts {
				parts[k] = best.comp[k] + best.stl[k]
			}
		} else {
			// Compute-bound: issue bandwidth serializes the core's tasks, so
			// the segment is the per-class sum of their issue cycles.
			for _, tc := range tcs {
				if tc.core != segCore {
					continue
				}
				for k := range parts {
					parts[k] += tc.comp[k]
				}
			}
		}
	}
	e.segSerialAtomics = 0
	for _, tc := range tcs {
		tc.comp = costVec{}
		tc.stl = costVec{}
	}
	slot := &e.attr.vals[e.attr.cur]
	for k := range parts {
		slot[k] += parts[k]
	}
	e.refoldCycles()
}
