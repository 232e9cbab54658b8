package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions (the program itself is not instrumented). Parent
// is the ID of the span that caused it, 0 for a root. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Self is the span's self time, filled in when the trace is written.
	Self int64 `json:"self"`
}

// tracer keeps spans in memory until flush. A nil tracer records nothing, so
// the same driver code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID together with the function that
// closes it.
func (t *tracer) start(name, op string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Op: op, Parent: parent, Start: begin})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// time runs fn inside a span.
func (t *tracer) time(name, op string, parent int, fn func()) {
	_, done := t.start(name, op, parent)
	fn()
	done()
}

// durations returns the duration in seconds of every finished span called
// name, optionally restricted to one op ("" = any).
func (t *tracer) durations(name, op string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (op == "" || s.Op == op) && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// total is the summed duration in seconds of every span called name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name, "") {
		sum += d
	}
	return sum
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its children (the union of their intervals clipped to
// the parent, so overlapping or parallel children are not counted twice). A
// span whose parent is unknown is treated as a root.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	known := map[int]bool{}
	for _, s := range spans {
		known[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// flush writes every span, with its self time, as JSON to
// <dir>/trace-<workload>.json.
func (t *tracer) flush(dir, workload string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	for id, self := range selfTimes(t.spans) {
		t.spans[id-1].Self = self
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
