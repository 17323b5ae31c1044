package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kor/internal/bitset"
	"kor/internal/graph"
	"kor/internal/pqueue"
)

// --- label order and domination laws -----------------------------------

// arbitraryLabel builds a label from fuzzing inputs.
func arbitraryLabel(node uint8, covered uint16, scaled int16, bs uint16) *label {
	return &label{
		node:    graph.NodeID(node % 16),
		covered: bitset.Mask(covered & 0xF),
		scaled:  int64(scaled),
		bs:      float64(bs),
	}
}

// Property: domination is reflexive and transitive (a preorder), and the
// label order is a strict weak ordering consistent with domination on equal
// coverage counts.
func TestDominationLaws(t *testing.T) {
	reflexive := func(n uint8, c uint16, s int16, b uint16) bool {
		l := arbitraryLabel(n, c, s, b)
		return l.dominates(l)
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	transitive := func(n1, n2, n3 uint8, c1, c2, c3 uint16, s1, s2, s3 int16, b1, b2, b3 uint16) bool {
		a := arbitraryLabel(n1, c1, s1, b1)
		b := arbitraryLabel(n2, c2, s2, b2)
		c := arbitraryLabel(n3, c3, s3, b3)
		if a.dominates(b) && b.dominates(c) {
			return a.dominates(c)
		}
		return true
	}
	if err := quick.Check(transitive, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

// Property: the label order (Definition 8) is irreflexive and asymmetric.
func TestLabelOrderLaws(t *testing.T) {
	f := func(n1, n2 uint8, c1, c2 uint16, s1, s2 int16, b1, b2 uint16, q1, q2 uint8) bool {
		a := arbitraryLabel(n1, c1, s1, b1)
		b := arbitraryLabel(n2, c2, s2, b2)
		a.seq, b.seq = uint64(q1), uint64(q2)
		if a.less(a) || b.less(b) {
			return false
		}
		if a.less(b) && b.less(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a heap of labels pops in non-decreasing label order.
func TestLabelHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := pqueue.New(func(a, b *label) bool { return a.less(b) })
	for i := 0; i < 500; i++ {
		l := arbitraryLabel(uint8(rng.Intn(16)), uint16(rng.Intn(16)), int16(rng.Intn(100)), uint16(rng.Intn(50)))
		l.seq = uint64(i)
		h.Push(l)
	}
	prev := h.Pop()
	for !h.Empty() {
		cur := h.Pop()
		if cur.less(prev) {
			t.Fatalf("heap order violated: %+v before %+v", prev, cur)
		}
		prev = cur
	}
}

// scratchForTest builds a standalone planScratch over n nodes for tests
// that exercise the label store without a full plan.
func scratchForTest(n int) *planScratch {
	return &planScratch{
		nodeMask: make([]bitset.Mask, n),
		perNode:  make([][]*label, n),
		union:    make([]bitset.Mask, n),
	}
}

// Property: after arbitrary insertions with k=1, no two live labels at a
// node dominate each other.
func TestLabelStoreAntichainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		st := newLabelStore(scratchForTest(1), 1, &Metrics{}, nil)
		for i := 0; i < 80; i++ {
			l := arbitraryLabel(0, uint16(rng.Intn(8)), int16(rng.Intn(20)), uint16(rng.Intn(10)))
			l.node = 0
			l.seq = uint64(i)
			st.tryInsert(l)
		}
		live := st.sc.perNode[0]
		for i, a := range live {
			if a.deleted {
				t.Fatal("deleted label left in store")
			}
			for j, b := range live {
				if i == j {
					continue
				}
				if a.dominates(b) && b.dominates(a) {
					t.Fatalf("duplicate labels in store: %+v and %+v", a, b)
				}
				if a.dominates(b) {
					t.Fatalf("live label %+v dominates live label %+v", a, b)
				}
			}
		}
	}
}

// --- candidateSet -------------------------------------------------------

func TestCandidateSetOrderingAndDedup(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	p, err := s.newPlan(nil, Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: 10}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSet(2)
	if !math.IsInf(cs.bound(), 1) {
		t.Fatal("empty set bound must be +Inf")
	}

	// A label at v3 covering both keywords (path 0→2→3).
	l3 := p.startLabel()
	l3 = p.newLabel(l3, graph.Edge{To: 2, Objective: 1, Budget: 3})
	l3 = p.newLabel(l3, graph.Edge{To: 3, Objective: 3, Budget: 2})
	tos, tbs, _ := s.oracle.MinObjective(3, 7)
	changed, err := cs.offer(p, l3, tos, tbs)
	if err != nil || !changed {
		t.Fatalf("offer = %v, %v", changed, err)
	}
	// Same label again: dedup.
	changed, err = cs.offer(p, l3, tos, tbs)
	if err != nil || changed {
		t.Fatalf("duplicate offer = %v, %v", changed, err)
	}
	if cs.full() {
		t.Fatal("k=2 set full after one route")
	}
	if got := cs.bound(); !math.IsInf(got, 1) {
		t.Fatalf("bound with 1 of 2 slots = %v", got)
	}

	// A second, worse route through v5.
	l5 := p.startLabel()
	l5 = p.newLabel(l5, graph.Edge{To: 3, Objective: 2, Budget: 2})
	l5 = p.newLabel(l5, graph.Edge{To: 5, Objective: 3, Budget: 2})
	tos5, tbs5, _ := s.oracle.MinObjective(5, 7)
	if _, err := cs.offer(p, l5, tos5, tbs5); err != nil {
		t.Fatal(err)
	}
	routes := cs.take()
	if len(routes) != 2 {
		t.Fatalf("take returned %d routes", len(routes))
	}
	if routes[0].Objective > routes[1].Objective {
		t.Fatal("routes not sorted by objective")
	}
	if !cs.full() {
		t.Fatal("set should be full")
	}
	if cs.bound() != routes[1].Objective {
		t.Fatalf("bound = %v, want %v", cs.bound(), routes[1].Objective)
	}
}

// --- bucketRing ---------------------------------------------------------

func TestBucketRingIndexing(t *testing.T) {
	br := newBucketRing(4, 1.2)
	cases := map[float64]int{
		4:    0, // exactly the base
		4.79: 0, // just under 4·1.2
		4.81: 1,
		9:    4, // log(9/4)/log(1.2) ≈ 4.45
		3.9:  0, // float jitter below base clamps to 0
	}
	for low, want := range cases {
		if got := br.index(low); got != want {
			t.Errorf("index(%v) = %d, want %d", low, got, want)
		}
	}
}

func TestBucketRingFrontMonotone(t *testing.T) {
	br := newBucketRing(1, 2)
	mk := func(seq uint64, low float64) *label {
		return &label{seq: seq, os: low} // os unused by ring; low passed explicitly
	}
	br.push(mk(1, 1), 1)     // bucket 0
	br.push(mk(2, 8), 8)     // bucket 3
	br.push(mk(3, 2.5), 2.5) // bucket 1

	l, front := br.pop()
	if front != 0 || l.seq != 1 {
		t.Fatalf("first pop = seq %d from bucket %d", l.seq, front)
	}
	l, front = br.pop()
	if front != 1 || l.seq != 3 {
		t.Fatalf("second pop = seq %d from bucket %d", l.seq, front)
	}
	// Pushing below the front clamps to the front.
	br.push(mk(4, 1), 1)
	l, front = br.pop()
	if front != 1 || l.seq != 4 {
		t.Fatalf("clamped pop = seq %d from bucket %d", l.seq, front)
	}
	l, front = br.pop()
	if front != 3 || l.seq != 2 {
		t.Fatalf("final pop = seq %d from bucket %d", l.seq, front)
	}
	if l, _ := br.pop(); l != nil {
		t.Fatal("pop on empty ring returned a label")
	}
}

func TestBucketRingSkipsDeleted(t *testing.T) {
	br := newBucketRing(1, 2)
	dead := &label{seq: 1}
	dead.deleted = true
	br.push(dead, 1)
	alive := &label{seq: 2}
	br.push(alive, 1)
	l, _ := br.pop()
	if l == nil || l.seq != 2 {
		t.Fatalf("pop returned %+v, want the live label", l)
	}
}

// --- options ------------------------------------------------------------

func TestOptionsNormalize(t *testing.T) {
	o := DefaultOptions()
	n, err := o.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Width != 1 || n.K != 1 || n.MaxExpansions <= 0 {
		t.Fatalf("normalized defaults wrong: %+v", n)
	}

	o.Width = 0
	o.K = -3
	o.InfrequentFraction = -1
	o.MaxExpansions = -5
	n, err = o.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Width != 1 || n.K != 1 || n.InfrequentFraction != 0.01 || n.MaxExpansions <= 0 {
		t.Fatalf("normalize did not repair: %+v", n)
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k := TraceCreated; k <= TraceUpperBound; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if s := TraceKind(99).String(); !strings.HasPrefix(s, "kind(") {
		t.Errorf("unknown kind renders as %q", s)
	}
}

// --- TraceLog -----------------------------------------------------------

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(16)
	for i := 0; i < 40; i++ {
		l.Trace(TraceEvent{Kind: TraceCreated, Label: LabelView{Node: graph.NodeID(i)}})
	}
	if l.Total() != 40 {
		t.Fatalf("Total = %d", l.Total())
	}
	ev := l.Events()
	if len(ev) != 16 {
		t.Fatalf("retained %d events, want 16", len(ev))
	}
	for i, e := range ev {
		if want := graph.NodeID(24 + i); e.Label.Node != want {
			t.Fatalf("event %d node = %d, want %d (oldest-first order)", i, e.Label.Node, want)
		}
	}
}

func TestTraceLogDump(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	log := NewTraceLog(256)
	opts := DefaultOptions()
	opts.Tracer = log
	if _, err := s.OSScaling(Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: 10}, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "created") || !strings.Contains(out, "dequeued") {
		t.Errorf("dump lacks lifecycle events:\n%s", out)
	}
	if log.Total() == 0 {
		t.Error("no events observed")
	}
}

// TestTracerObservesAllLifecycles drives one search and checks every
// counter in Metrics matches the corresponding event count.
func TestTracerObservesAllLifecycles(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	rec := &traceRecorder{}
	opts := DefaultOptions()
	opts.Tracer = rec
	res, err := s.OSScaling(Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[TraceKind]int)
	for _, e := range rec.events {
		counts[e.Kind]++
	}
	m := res.Metrics
	if counts[TraceCreated] != m.LabelsCreated {
		t.Errorf("created events %d vs metric %d", counts[TraceCreated], m.LabelsCreated)
	}
	if counts[TraceDequeued] != m.LabelsDequeued {
		t.Errorf("dequeued events %d vs metric %d", counts[TraceDequeued], m.LabelsDequeued)
	}
	if counts[TracePrunedBudget] != m.PrunedBudget {
		t.Errorf("budget-pruned events %d vs metric %d", counts[TracePrunedBudget], m.PrunedBudget)
	}
	if counts[TraceDominated] != m.Dominated {
		t.Errorf("dominated events %d vs metric %d", counts[TraceDominated], m.Dominated)
	}
}
