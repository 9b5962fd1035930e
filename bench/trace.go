package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// harness's side of the call. Spans of one statement share Stmt; Parent is
// the ID of the span that caused this one, or -1 for a statement's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Stmt   int64  `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory for one goroutine; they are written out
// when the benchmark ends. A nil *tracer records nothing, which is how the
// untraced runs execute the same client code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its ID (-1 when not tracing).
func (t *tracer) begin(name string, parent int32, stmt int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// writeSpans merges per-goroutine tracers into one file, renumbering IDs so
// they stay unique.
func writeSpans(path string, tracers ...*tracer) error {
	var all []span
	for _, t := range tracers {
		if t == nil {
			continue
		}
		base := int32(len(all))
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
