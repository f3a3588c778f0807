//go:build go1.23

package spmd

import "iter"

// runCooperative executes a launch on the deterministic cooperative
// scheduler: each task body runs in its own coroutine (iter.Pull), resumed
// one at a time in task order on the calling goroutine and yielding at
// barriers. A resume or a yield is a direct coroutine switch: no run queue,
// no channel and no wake-up of an idle P. In ExecDeferred mode each
// segment's private effects merge in task order before the segment cost
// aggregates. On failure releaseTasks stops every suspended sibling; its
// Barrier sees the yield refused and unwinds with abortSentinel.
func (e *Engine) runCooperative(n int, mode Exec, body func(*TaskCtx)) error {
	tcs := e.newTasks(n, mode)
	defer e.releaseTasks(tcs)
	for _, tc := range tcs {
		tc.next, tc.stop = iter.Pull(func(yield func(struct{}) bool) {
			tc.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, isAbort := r.(abortSentinel); !isAbort {
						tc.panicked = r
					}
				}
			}()
			body(tc)
		})
	}

	running := n
	for running > 0 {
		running = 0
		for _, tc := range tcs {
			if tc.done {
				continue
			}
			if _, suspended := tc.next(); suspended {
				running++
			} else {
				tc.done = true
			}
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
		if running > 0 {
			e.chargeBarrier(n)
		}
	}
	return nil
}
