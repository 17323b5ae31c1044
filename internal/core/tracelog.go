package core

import (
	"fmt"
	"io"
	"strings"
)

// TraceLog is a bounded in-memory Tracer: it keeps the most recent events
// in a ring and renders them for diagnostics. The Example-2 walkthrough in
// the tests and the korquery -metrics output both use it.
//
// The zero value is not usable; construct with NewTraceLog.
type TraceLog struct {
	events []TraceEvent
	next   int
	filled bool
	total  int
}

// NewTraceLog returns a tracer retaining the last n events (minimum 16).
func NewTraceLog(n int) *TraceLog {
	if n < 16 {
		n = 16
	}
	return &TraceLog{events: make([]TraceEvent, n)}
}

// Trace records one event.
func (l *TraceLog) Trace(e TraceEvent) {
	l.events[l.next] = e
	l.next++
	l.total++
	if l.next == len(l.events) {
		l.next = 0
		l.filled = true
	}
}

// Total returns how many events were observed, including evicted ones.
func (l *TraceLog) Total() int { return l.total }

// Events returns the retained events in observation order.
func (l *TraceLog) Events() []TraceEvent {
	if !l.filled {
		return append([]TraceEvent(nil), l.events[:l.next]...)
	}
	out := make([]TraceEvent, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	out = append(out, l.events[:l.next]...)
	return out
}

// Dump writes the retained events, one per line, in observation order.
func (l *TraceLog) Dump(w io.Writer) error {
	for _, e := range l.Events() {
		line := formatEvent(e)
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func formatEvent(e TraceEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s node=%-5d λ=%-10s ŌS=%-8d OS=%-9.4g BS=%-9.4g",
		e.Kind, e.Label.Node, e.Label.Covered.String(), e.Label.ScaledOS, e.Label.OS, e.Label.BS)
	if e.Kind == TraceUpperBound || e.Kind == TraceFeasible {
		fmt.Fprintf(&b, " U=%.4g", e.U)
	}
	return b.String()
}
