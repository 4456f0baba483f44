package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around that call (the program under test carries no spans of its own).
// Spans of one request share Request; Parent is the span that caused this
// one (0 for a phase, which has no cause).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	requests int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// nextRequest hands out the identifier the spans of one request share.
func (t *tracer) nextRequest() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	return t.requests
}

// sliceRecord keeps every slice value of one phase, not only the best
// quarter the metric is computed from.
type sliceRecord struct {
	Phase  string    `json:"phase"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// traceLine is one line of the trace file: exactly one field is set.
type traceLine struct {
	Span   *span        `json:"span,omitempty"`
	Slices *sliceRecord `json:"slices,omitempty"`
	Metric *metricLine  `json:"metric,omitempty"`
}

type metricLine struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeTrace writes spans, slice values and metrics as JSON lines.
func writeTrace(path string, t *tracer, slices []sliceRecord, metrics []metricLine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	write := func(l traceLine) {
		if err == nil {
			err = enc.Encode(l)
		}
	}
	for i := range t.spans {
		write(traceLine{Span: &t.spans[i]})
	}
	for i := range slices {
		write(traceLine{Slices: &slices[i]})
	}
	for i := range metrics {
		write(traceLine{Metric: &metrics[i]})
	}
	if err == nil {
		err = w.Flush()
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}
