package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (spans inside the program are a later change). A
// layer's self time is its span minus the part its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. Untraced passes
// run with on=false, so every begin/end is a load and a return; the
// difference between traced and untraced pass time is the overhead. Span
// ids count from 1 within one workload's tracer.
type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool

	mu    sync.Mutex
	pass  int
	spans []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// enable switches recording for the next pass.
func (t *tracer) enable(on bool, pass int) {
	t.mu.Lock()
	t.pass = pass
	t.mu.Unlock()
	t.on.Store(on)
}

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Pass: t.pass,
		StartNS: int64(time.Since(t.t0)),
	})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// writeSpans dumps the spans of every workload of the run as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
