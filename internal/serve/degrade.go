package serve

// Level is a rung of the overload-degradation ladder. Under light load every
// request gets the full treatment — vector execution with checkpointing and
// output verification against the serial reference. As occupancy climbs the
// server sheds the most expensive guarantees first, keeping goodput up
// instead of queueing toward timeout: verification goes first (invariant
// checking at checkpoints still runs), then vector execution itself — the
// serial reference is native Go with no machine model behind it, an order of
// magnitude or more cheaper than a simulated vector run, and correct by
// construction, so a saturated server serves degraded-but-correct answers.
// Admission rejects (429/503) are the rung below the ladder, not part of it.
type Level int

const (
	// LevelNormal runs the vector engine and verifies the served output
	// against the serial reference before it leaves the building.
	LevelNormal Level = iota
	// LevelShedVerify runs the vector engine but skips output verification;
	// checkpoint-time invariant validation still guards against corruption.
	LevelShedVerify
	// LevelScalar skips the vector engine entirely and serves the
	// benchmark's serial reference.
	LevelScalar
)

func (l Level) String() string {
	switch l {
	case LevelShedVerify:
		return "shed-verify"
	case LevelScalar:
		return "scalar"
	default:
		return "normal"
	}
}

// levelFor maps queue occupancy to a ladder rung. shedAt and scalarAt are the
// load fractions (see admission.load) at which each shedding step engages; a
// zero threshold disables that rung.
func levelFor(load, shedAt, scalarAt float64) Level {
	if scalarAt > 0 && load >= scalarAt {
		return LevelScalar
	}
	if shedAt > 0 && load >= shedAt {
		return LevelShedVerify
	}
	return LevelNormal
}
