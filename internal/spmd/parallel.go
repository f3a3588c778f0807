package spmd

import "sync"

// phaser synchronizes one parallel launch: tasks run on real goroutines and
// meet at barriers; the last arriver (or the last finisher) runs the segment
// boundary — deferred-effect merge in task order, segment-cost aggregation,
// and barrier cost — while holding the phaser lock. The lock's acquire/
// release pairs give every task a happens-before edge onto the committed
// state the boundary wrote, so the next segment reads merged data without
// further synchronization.
type phaser struct {
	mu   sync.Mutex
	cond *sync.Cond
	e    *Engine
	tcs  []*TaskCtx
	n    int // launch size, for barrier costing

	arrived  int    // tasks waiting at the current barrier
	live     int    // tasks that have not finished their body
	gen      uint64 // barrier generation, advanced at each boundary
	aborted  bool   // a task failed or a merge failed; everyone unwinds
	mergeErr error  // first boundary-merge failure
}

func newPhaser(e *Engine, tcs []*TaskCtx, n int) *phaser {
	p := &phaser{e: e, tcs: tcs, n: n, live: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// boundary commits the segment that just ended. Caller holds p.mu. A merge
// failure flips the phaser into the aborted state; the caller is responsible
// for waking waiters and unwinding itself.
func (p *phaser) boundary(tasksRemain bool) {
	e := p.e
	if err := e.mergeSegment(p.tcs); err != nil {
		if p.mergeErr == nil {
			p.mergeErr = err
		}
		p.aborted = true
		return
	}
	e.aggregateSegment(p.tcs)
	if tasksRemain {
		e.chargeBarrier(p.n)
	}
}

// barrier blocks the task until every live task arrives, then releases the
// generation. The last arriver runs the boundary. Panics abortSentinel when
// the launch is unwinding.
func (p *phaser) barrier() {
	p.mu.Lock()
	if p.aborted {
		p.mu.Unlock()
		panic(abortSentinel{})
	}
	p.arrived++
	if p.arrived == p.live {
		p.boundary(true)
		p.arrived = 0
		p.gen++
		p.cond.Broadcast()
		aborted := p.aborted
		p.mu.Unlock()
		if aborted {
			panic(abortSentinel{})
		}
		return
	}
	gen := p.gen
	for gen == p.gen && !p.aborted {
		p.cond.Wait()
	}
	aborted := p.aborted
	p.mu.Unlock()
	if aborted {
		panic(abortSentinel{})
	}
}

// taskDone removes a finished task from the live set. If its exit completes
// the current barrier's arrival count, the boundary runs here; if it was the
// last live task, the final (barrier-free) boundary runs here.
func (p *phaser) taskDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live--
	if p.aborted {
		return
	}
	if p.live > 0 && p.arrived == p.live {
		p.boundary(true)
		p.arrived = 0
		p.gen++
		p.cond.Broadcast()
	} else if p.live == 0 {
		p.boundary(false)
	}
}

// abort wakes every waiter into the unwind path.
func (p *phaser) abort() {
	p.mu.Lock()
	p.aborted = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// runParallel executes a launch with one real goroutine per task under
// deferred-effect semantics. Barrier synchronization, effect merging and
// cost aggregation run through the phaser; the result is bit-identical to
// the ExecDeferred cooperative reference.
func (e *Engine) runParallel(n int, body func(*TaskCtx)) error {
	tcs := e.newTasks(n, ExecParallel)
	defer e.releaseTasks(tcs)
	p := newPhaser(e, tcs, n)
	for _, tc := range tcs {
		tc.ph = p
	}

	var wg sync.WaitGroup
	for _, tc := range tcs {
		wg.Add(1)
		go func(tc *TaskCtx) {
			defer func() {
				if r := recover(); r != nil {
					if _, isAbort := r.(abortSentinel); !isAbort {
						tc.panicked = r
						p.abort()
					}
				}
				p.taskDone()
				wg.Done()
			}()
			body(tc)
		}(tc)
	}
	wg.Wait()

	// Deterministic failure selection: the lowest-index failed task wins,
	// matching the cooperative scheduler's sweep order.
	for _, tc := range tcs {
		if tc.panicked != nil {
			return e.taskError(tc)
		}
	}
	return p.mergeErr
}
