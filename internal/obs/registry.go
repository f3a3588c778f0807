package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Registry is a concurrency-safe store of named scalar observations. The
// bench harness threads one through its experiments so headline numbers
// (lane utilization, atomic-push reductions, geomean speedups) land in a
// machine-readable JSONL file (`egacs-bench -metrics`) instead of only in
// tables printed to stdout.
type Registry struct {
	mu   sync.Mutex
	vals map[string]float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{vals: map[string]float64{}}
}

// Observe sets name to v, replacing any previous observation.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	r.vals[name] = v
	r.mu.Unlock()
}

// Add increments name by v (starting from zero).
func (r *Registry) Add(name string, v float64) {
	r.mu.Lock()
	r.vals[name] += v
	r.mu.Unlock()
}

// Get returns the observation for name, and whether one exists.
func (r *Registry) Get(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vals[name]
	return v, ok
}

// Len returns the number of distinct names observed.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vals)
}

// Snapshot returns a copy of all observations.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.vals))
	for k, v := range r.vals {
		out[k] = v
	}
	return out
}

// WriteJSONL emits one {"name": ..., "value": ...} object per line, sorted by
// name for deterministic output.
func (r *Registry) WriteJSONL(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	type row struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	for _, k := range names {
		b, err := json.Marshal(row{Name: k, Value: snap[k]})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
