package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one frame or request share req; parent is the id of
// the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the phase began
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced run, which gives the end-to-end metrics, pays for
// no span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<14)} }

// begin marks the start of the timed phase; span times count from it.
func (t *tracer) begin(t0 time.Time) {
	if t != nil {
		t.t0 = t0
	}
}

// add records a span and returns its id.
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// ms returns the durations of every span of the given name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfTimes returns, for every root span that has children, its duration
// minus the part they cover, in ms. Children of one root do not overlap
// here (a frame runs its layers one after another), so the cover is their
// sum. A root without children is a layer call itself, not harness time.
func (t *tracer) selfTimes() []float64 {
	covered := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var out []float64
	for _, s := range t.spans {
		if c, ok := covered[s.ID]; ok && s.Parent == 0 {
			out = append(out, float64(s.EndNs-s.StartNs-c)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
