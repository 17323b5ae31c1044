// Package trace is the benchmark's span recorder. Spans are opened from the
// benchmark's own files around calls into each layer, kept in memory, and
// written out once when the run ends; nothing is recorded during an
// untraced run. A nil *Recorder is valid and records nothing, so call sites
// need no branches.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer.
type Span struct {
	// ID is the span's position in the recording; Parent is the ID of the
	// span that caused it, -1 for a root.
	ID     int `json:"id"`
	Parent int `json:"parent"`
	// Name is "<layer>.<call>", e.g. "apsp.TargetSlice".
	Name string `json:"name"`
	// Request identifies the request the span belongs to,
	// "<workload>/<stream index>"; spans of one request share it.
	Request string `json:"request"`
	// StartUS and EndUS are microseconds since the recorder was created.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// Recorder collects spans. Safe for concurrent use.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewRecorder starts an empty recording.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Start opens a span and returns its ID for End and for children's parent.
func (r *Recorder) Start(name, request string, parent int) int {
	if r == nil {
		return -1
	}
	now := float64(time.Since(r.origin)) / float64(time.Microsecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Request: request, StartUS: now, EndUS: now})
	return id
}

// End closes the span.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := float64(time.Since(r.origin)) / float64(time.Microsecond)
	r.mu.Lock()
	r.spans[id].EndUS = now
	r.mu.Unlock()
}

// Add records a span measured elsewhere, as offsets from the recorder's
// origin.
func (r *Recorder) Add(name, request string, parent int, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Request: request,
		StartUS: float64(start) / float64(time.Microsecond),
		EndUS:   float64(end) / float64(time.Microsecond),
	})
	return id
}

// Origin is the instant span offsets count from.
func (r *Recorder) Origin() time.Time { return r.origin }

// Spans returns a copy of the recording.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children are clipped to the parent's interval
// and overlapping children are counted once, so concurrent children cannot
// drive a parent's self time negative.
func SelfTimes(spans []Span) []time.Duration {
	type interval struct{ start, end float64 }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			start, end := max(s.StartUS, p.StartUS), min(s.EndUS, p.EndUS)
			if end > start {
				children[s.Parent] = append(children[s.Parent], interval{start, end})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered := 0.0
		cursor := s.StartUS
		for _, c := range kids {
			if c.end <= cursor {
				continue
			}
			covered += c.end - max(c.start, cursor)
			cursor = c.end
		}
		self[i] = time.Duration((s.EndUS - s.StartUS - covered) * float64(time.Microsecond))
	}
	return self
}

// File is the on-disk shape of one run's trace.
type File struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// Write stores the recording at path.
func (r *Recorder) Write(path, workload string, seed int64) error {
	buf, err := json.Marshal(File{Workload: workload, Seed: seed, Spans: r.Spans()})
	if err != nil {
		return fmt.Errorf("trace: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
