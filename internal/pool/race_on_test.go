//go:build race

package pool

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops values at random.
const raceEnabled = true
