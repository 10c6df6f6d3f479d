package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's exported function (the program itself is not instrumented). Start
// and End are nanoseconds since the tracer was created; Parent is the id of
// the span that caused this one (0 for a root); spans of one request share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing but
// still times, so traced and untraced passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when disabled) and start time.
func (t *tracer) begin(name string, parent, op int) (int, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now.Sub(t.t0).Nanoseconds()})
	return len(t.spans), now
}

// end closes the span and returns its duration.
func (t *tracer) end(id int, start time.Time) time.Duration {
	now := time.Now()
	if t != nil {
		t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
	}
	return now.Sub(start)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
