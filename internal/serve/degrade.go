package serve

// Level is a rung of the overload-degradation ladder. A request that takes
// its execution slot with nobody waiting behind it gets the full treatment —
// vector execution with checkpointing and output verification against the
// serial reference. A request that takes its slot while others still wait in
// the queue is served by the serial reference instead: native Go with no
// machine model behind it, an order of magnitude or more cheaper than a
// simulated vector run, and correct by construction, so a backlog drains
// with correct answers instead of queueing toward timeout. An idle server
// never degrades. Admission rejects (429/503) are the rung below the ladder,
// not part of it.
type Level int

const (
	// LevelNormal runs the vector engine and verifies the served output
	// against the serial reference before it leaves the building.
	LevelNormal Level = iota
	// LevelScalar skips the vector engine entirely and serves the
	// benchmark's serial reference.
	LevelScalar
)

func (l Level) String() string {
	if l == LevelScalar {
		return "scalar"
	}
	return "normal"
}

// levelFor picks the rung for a request that has just taken its execution
// slot, from the number of requests still queued for one.
func levelFor(queued int) Level {
	if queued > 0 {
		return LevelScalar
	}
	return LevelNormal
}
