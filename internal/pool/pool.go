// Package pool holds Pool, a sync.Pool from which every P can take back
// what any P put.
package pool

import "sync"

// Pool is a typed sync.Pool whose values any P can take back.
//
// sync.Pool keeps the first value put on a P in that P's private slot, which
// Get on any other P cannot reach: a caller whose goroutine moved to another
// P between Put and Get would build a fresh value in place of the one left
// behind. Put therefore fills the private slot with a zero-size filler ahead
// of each value, so every value lands in the P's shared queue, which Get on
// every P can take from; Get skips fillers. A collection still empties the
// pool, as it does a sync.Pool.
type Pool[T any] struct {
	// New, when set, builds the value Get returns from an empty pool.
	New func() T
	p   sync.Pool
}

type filler struct{}

// Get takes a value from the pool. From an empty pool it returns New(), or
// the zero T when New is nil.
func (p *Pool[T]) Get() T {
	for {
		switch x := p.p.Get().(type) {
		case T:
			return x
		case nil:
			if p.New != nil {
				return p.New()
			}
			var zero T
			return zero
		}
	}
}

// Put returns x to the pool.
func (p *Pool[T]) Put(x T) {
	p.p.Put(filler{})
	p.p.Put(x)
}
