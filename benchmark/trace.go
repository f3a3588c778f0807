package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a public function of the program under test.
// Spans of one op share Op; Parent is the enclosing span's ID, or -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; nothing is written until the run ends. A nil
// tracer records nothing, which is how the untraced run is run.
type tracer struct {
	t0    time.Time
	spans []span
	nextO int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// newOp hands out the id the spans of one op share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.nextO++
	return t.nextO
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].ms()
}

// selfTimes returns, per span, its duration minus the part its children
// cover.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

func (t *tracer) writeFile(path string, ledger map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Ledger map[string]float64 `json:"ledger"`
		Spans  []span             `json:"spans"`
	}{ledger, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
