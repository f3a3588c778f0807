package pool

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

// TestGetOnAnotherP returns a value to the pool and takes it back on a
// goroutine that runs on the other P, because the returning goroutine spins
// until the take is done. Every take must find the returned value; with a
// plain sync.Pool it would sit in the returning P's private slot.
func TestGetOnAnotherP(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// A collection would empty the pool and read as a miss.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var news atomic.Int32
	p := Pool[*int]{New: func() *int { news.Add(1); return new(int) }}
	x := p.Get()
	for i := 0; i < 100; i++ {
		p.Put(x)
		var done atomic.Bool
		go func() {
			x = p.Get()
			done.Store(true)
		}()
		for !done.Load() {
		}
	}
	if n := news.Load(); n != 1 {
		t.Errorf("100 takes after a return built %d more values, want 0", n-1)
	}
	var empty Pool[*int]
	if v := empty.Get(); v != nil {
		t.Errorf("Get from an empty pool without New = %v, want nil", v)
	}
}
