//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because its instrumentation allocates nondeterministically.
const raceEnabled = true
