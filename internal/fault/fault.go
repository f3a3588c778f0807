// Package fault defines the failure model of the EGACS execution stack: a
// typed error taxonomy shared by the vector primitives, worklists, SPMD
// engine and compiled pipelines; a seeded deterministic fault injector that
// exercises every failure path without real corruption; and run budgets for
// bounded execution.
//
// The taxonomy is sentinel-based: rich error types (BoundsError,
// OverflowError, ...) unwrap to the matching sentinel, so callers match with
// errors.Is(err, fault.ErrOutOfBounds) and recover detail with errors.As.
package fault

import (
	"errors"
	"fmt"
)

// Sentinel errors of the taxonomy. Every failure surfaced by the execution
// stack wraps exactly one of these.
var (
	// ErrOutOfBounds: a gather/scatter/packed-store index or scalar access
	// left the bound array's range.
	ErrOutOfBounds = fmt.Errorf("out-of-bounds access")
	// ErrWorklistOverflow: a worklist push exceeded capacity with growth
	// disabled.
	ErrWorklistOverflow = fmt.Errorf("worklist overflow")
	// ErrNonConvergence: a pipe loop stalled — the frontier made no progress
	// across the configured watchdog window.
	ErrNonConvergence = fmt.Errorf("non-convergence")
	// ErrCorruptGraph: a CSR failed structural validation (non-monotone row
	// pointers, out-of-range edge destinations, inconsistent counts).
	ErrCorruptGraph = fmt.Errorf("corrupt graph")
	// ErrBudgetExceeded: a run budget (iterations, modeled cycles, wall-clock
	// deadline) was exhausted.
	ErrBudgetExceeded = fmt.Errorf("budget exceeded")
	// ErrKernelPanic: a task body panicked with a value the engine does not
	// recognize as a typed failure; the panic was recovered into an error.
	ErrKernelPanic = fmt.Errorf("kernel panic")
	// ErrInvariantViolation: a checkpoint-time validator found live state
	// inconsistent with the kernel's algorithmic invariants (e.g. a BFS
	// level that increased) — the signature of silent data corruption.
	ErrInvariantViolation = fmt.Errorf("invariant violation")
	// ErrTransientFault: an injected detected-but-uncorrupting soft error
	// (the model of an ECC machine-check abort): the affected execution must
	// be discarded, but no state was corrupted.
	ErrTransientFault = fmt.Errorf("transient fault")
	// ErrWALCorrupt: a write-ahead-log record failed structural validation
	// during replay (checksum mismatch mid-log, bad op code, out-of-range
	// node id, batch-sequence gap). Distinct from a torn tail, which is the
	// expected signature of a crash mid-append and is repaired by
	// truncation, not reported as corruption.
	ErrWALCorrupt = fmt.Errorf("corrupt write-ahead log")
	// ErrUnsupportedInput: a well-formed input lies outside a kernel's
	// supported range (e.g. an mst edge whose packed weight|edge selection
	// key would reach the sentinel). Re-running cannot help.
	ErrUnsupportedInput = fmt.Errorf("unsupported input")
)

// Recoverable reports whether a checkpointed run may retry the failed
// execution from its last verified checkpoint. Transient classes — injected
// or data-dependent faults that a re-execution can clear — are recoverable;
// deterministic exhaustion (budgets, stalled loops) and structural input
// corruption re-fail identically and escalate to the fallback ladder
// directly.
func Recoverable(err error) bool {
	return errors.Is(err, ErrOutOfBounds) ||
		errors.Is(err, ErrWorklistOverflow) ||
		errors.Is(err, ErrInvariantViolation) ||
		errors.Is(err, ErrTransientFault) ||
		errors.Is(err, ErrKernelPanic)
}

// BoundsError reports an out-of-range memory-primitive index with lane
// detail. Lane is -1 for uniform scalar accesses.
type BoundsError struct {
	Op    string // "gather", "scatter", "packed-store", "vload", "scalar-load", ...
	Array string // backing array name, when known
	Lane  int    // SIMD lane of the offending index; -1 for scalar ops
	Index int32  // the offending element index
	Len   int    // length of the addressed array
}

func (e *BoundsError) Error() string {
	where := e.Op
	if e.Array != "" {
		where += " " + e.Array
	}
	if e.Lane >= 0 {
		return fmt.Sprintf("%s: lane %d index %d outside [0,%d): %v",
			where, e.Lane, e.Index, e.Len, ErrOutOfBounds)
	}
	return fmt.Sprintf("%s: index %d outside [0,%d): %v", where, e.Index, e.Len, ErrOutOfBounds)
}

func (e *BoundsError) Unwrap() error { return ErrOutOfBounds }

// OverflowError reports a worklist capacity violation.
type OverflowError struct {
	Worklist string
	Size     int32 // items currently in the list
	Push     int32 // items the failing operation tried to add
	Cap      int32
	Injected bool // true when forced by a fault injector
}

func (e *OverflowError) Error() string {
	suffix := ""
	if e.Injected {
		suffix = " (injected)"
	}
	return fmt.Sprintf("worklist %s: %d + %d > cap %d%s: %v",
		e.Worklist, e.Size, e.Push, e.Cap, suffix, ErrWorklistOverflow)
}

func (e *OverflowError) Unwrap() error { return ErrWorklistOverflow }

// ConvergenceError reports a stalled pipe loop: the frontier signature was
// unchanged for Window consecutive iterations.
type ConvergenceError struct {
	Loop       string // pipe-loop kind, e.g. "loop-wl"
	Iterations int    // iterations completed when the watchdog fired
	Window     int    // configured stall window
}

func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("%s: frontier unchanged for %d iterations (after %d total): %v",
		e.Loop, e.Window, e.Iterations, ErrNonConvergence)
}

func (e *ConvergenceError) Unwrap() error { return ErrNonConvergence }

// BudgetError reports an exhausted run budget.
type BudgetError struct {
	Resource string  // "iterations", "cycles" or "deadline"
	Limit    float64 // configured limit (0 for deadline)
	Used     float64 // consumption when the check fired
	Cause    error   // underlying context error for deadline violations
}

func (e *BudgetError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%s budget: %v: %v", e.Resource, e.Cause, ErrBudgetExceeded)
	}
	return fmt.Sprintf("%s budget: used %g of %g: %v", e.Resource, e.Used, e.Limit, ErrBudgetExceeded)
}

// Unwrap exposes both the sentinel and, for deadline violations, the
// underlying context error — so errors.Is can distinguish an expired
// deadline (context.DeadlineExceeded) from a caller hang-up
// (context.Canceled), which a serving layer maps to different statuses.
func (e *BudgetError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrBudgetExceeded, e.Cause}
	}
	return []error{ErrBudgetExceeded}
}

// PanicError is a recovered task panic, carrying the task index, the kernel
// (phase) being executed and the pipe iteration at the time of the panic.
type PanicError struct {
	Task      int
	Kernel    string
	Iteration int64
	Value     any // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d (kernel %q, iteration %d) panicked: %v: %v",
		e.Task, e.Kernel, e.Iteration, e.Value, ErrKernelPanic)
}

func (e *PanicError) Unwrap() error { return ErrKernelPanic }

// InvariantError reports a kernel-invariant violation found by a
// checkpoint-time validator. Index is the offending element, -1 for
// scalar or frontier-level violations.
type InvariantError struct {
	Kernel string // benchmark name, e.g. "bfs-wl"
	Rule   string // violated rule, e.g. "lvl-monotone"
	Array  string // array the rule constrains, "" for frontier rules
	Index  int    // offending element index, -1 when not element-addressed
	Detail string // human-readable specifics (values involved)
}

func (e *InvariantError) Error() string {
	where := e.Array
	if where == "" {
		where = "frontier"
	}
	if e.Index >= 0 {
		where = fmt.Sprintf("%s[%d]", where, e.Index)
	}
	return fmt.Sprintf("%s: rule %s at %s: %s: %v",
		e.Kernel, e.Rule, where, e.Detail, ErrInvariantViolation)
}

func (e *InvariantError) Unwrap() error { return ErrInvariantViolation }

// TransientError is an injected soft error raised at a pipe-loop fault
// window: detected by the (modeled) hardware, corrupting nothing, and
// clearing on re-execution — the canonical checkpoint/rollback customer.
type TransientError struct {
	Site string // pipe-loop window that raised it
	Seq  int    // injection sequence number
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("injected transient fault #%d at %s: %v", e.Seq, e.Site, ErrTransientFault)
}

func (e *TransientError) Unwrap() error { return ErrTransientFault }

// WALError reports structural corruption found while replaying a
// write-ahead delta log: the record that failed, where it sits in the file,
// and which rule it broke. It wraps ErrWALCorrupt.
type WALError struct {
	Record int    // 0-based record index in the log
	Offset int64  // byte offset of the record header
	Rule   string // violated rule: "crc", "op", "range", "seq-gap", "length"
	Detail string // human-readable specifics
}

func (e *WALError) Error() string {
	return fmt.Sprintf("wal record %d at offset %d: rule %s: %s: %v",
		e.Record, e.Offset, e.Rule, e.Detail, ErrWALCorrupt)
}

func (e *WALError) Unwrap() error { return ErrWALCorrupt }
