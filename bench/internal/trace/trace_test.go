package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func span(id, parent int, start, end float64) Span {
	return Span{ID: id, Parent: parent, Name: "x", StartUS: start, EndUS: end}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		span(0, -1, 0, 100), // root
		span(1, 0, 10, 30),  // child
		span(2, 0, 50, 70),  // child
		span(3, 1, 12, 20),  // grandchild: charged to 1, not to 0
	}
	self := SelfTimes(spans)
	want := []time.Duration{60 * time.Microsecond, 12 * time.Microsecond, 20 * time.Microsecond, 8 * time.Microsecond}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClipsToParent(t *testing.T) {
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 60),
		span(2, 0, 40, 80),  // overlaps 1 on [40,60]
		span(3, 0, 90, 150), // runs past the parent's end
	}
	// Covered: [10,80] and [90,100] = 80.
	if got := SelfTimes(spans)[0]; got != 20*time.Microsecond {
		t.Errorf("root self = %v, want 20µs", got)
	}
}

func TestSelfTimeOrdersChildrenByStart(t *testing.T) {
	// Children recorded out of start order, as Add allows.
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 50, 60),
		span(2, 0, 10, 20),
	}
	if got := SelfTimes(spans)[0]; got != 80*time.Microsecond {
		t.Errorf("root self = %v, want 80µs", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Start("a", "w/0", -1)
	r.End(id)
	r.Add("b", "w/0", -1, 0, time.Millisecond)
	if len(r.Spans()) != 0 {
		t.Error("nil recorder returned spans")
	}
}

func TestRecorderWritesParentedSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Start("core.Searcher.Run", "w/7", -1)
	child := r.Start("apsp.TargetSlice", "w/7", root)
	r.End(child)
	r.End(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.Write(path, "w", 42); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || f.Seed != 42 || len(f.Spans) != 2 {
		t.Fatalf("file = %+v", f)
	}
	if f.Spans[1].Parent != root || f.Spans[1].Request != "w/7" || f.Spans[1].EndUS < f.Spans[1].StartUS {
		t.Errorf("child span = %+v", f.Spans[1])
	}
	if f.Spans[0].EndUS < f.Spans[1].EndUS {
		t.Errorf("root ended at %v, before its child at %v", f.Spans[0].EndUS, f.Spans[1].EndUS)
	}
}
