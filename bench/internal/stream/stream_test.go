package stream

import (
	"bytes"
	"encoding/json"
	"testing"

	"kor"
	"kor/korapi"
)

func roadGraph() *kor.Graph { return kor.SyntheticRoadNetwork(3, 600) }

func bodies(t *testing.T, s *Stream, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		q, err := s.At(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q.Body
	}
	return out
}

func newStream(t *testing.T, g *kor.Graph, spec Spec, seed int64, sub string) *Stream {
	t.Helper()
	s, err := New(g, spec, seed, sub)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var roadSpec = Spec{Keywords: 3, Budget: 12, Planar: true}

func TestSeedIsTheOnlyRandomness(t *testing.T) {
	g := roadGraph()
	a := bodies(t, newStream(t, g, roadSpec, 42, "load"), 300)
	b := bodies(t, newStream(t, g, roadSpec, 42, "load"), 300)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two generators with one seed:\n%s\n%s", i, a[i], b[i])
		}
	}
	c := bodies(t, newStream(t, g, roadSpec, 43, "load"), 300)
	d := bodies(t, newStream(t, g, roadSpec, 42, "trace"), 300)
	same := func(x, y [][]byte) int {
		n := 0
		for i := range x {
			if bytes.Equal(x[i], y[i]) {
				n++
			}
		}
		return n
	}
	if n := same(a, c); n > 3 {
		t.Errorf("%d of 300 requests identical under another seed", n)
	}
	if n := same(a, d); n > 3 {
		t.Errorf("%d of 300 requests identical in another substream", n)
	}
}

func TestAccessOrderDoesNotMatter(t *testing.T) {
	g := roadGraph()
	forward := bodies(t, newStream(t, g, roadSpec, 5, "load"), 50)
	s := newStream(t, g, roadSpec, 5, "load")
	last, err := s.At(49)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last.Body, forward[49]) || !bytes.Equal(first.Body, forward[0]) {
		t.Error("stream content depends on the order it is read in")
	}
}

func TestRequestsAreWellFormedAndDistinct(t *testing.T) {
	g := roadGraph()
	s := newStream(t, g, roadSpec, 9, "load")
	seen := make(map[string]bool)
	for i := range 500 {
		q, err := s.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(q.Body)] {
			t.Fatalf("request %d repeats an earlier one: %s", i, q.Body)
		}
		seen[string(q.Body)] = true
		var wire korapi.Request
		if err := json.Unmarshal(q.Body, &wire); err != nil {
			t.Fatal(err)
		}
		if wire.Algorithm != Algorithms[i%len(Algorithms)] {
			t.Errorf("request %d: algorithm %q breaks the round-robin", i, wire.Algorithm)
		}
		if wire.From == wire.To || len(wire.Keywords) != 3 || wire.Budget != 12 {
			t.Errorf("request %d malformed: %s", i, q.Body)
		}
		crow := g.Position(kor.NodeID(wire.From)).Euclidean(g.Position(kor.NodeID(wire.To)))
		if crow > CrowFactor*12 {
			t.Errorf("request %d: endpoints %.2f km apart, limit %.2f", i, crow, CrowFactor*12)
		}
		for _, kw := range wire.Keywords {
			if _, ok := g.Vocab().Lookup(kw); !ok {
				t.Errorf("request %d: keyword %q not in graph", i, kw)
			}
		}
	}
}

func TestPoolConfinesEndpoints(t *testing.T) {
	g := roadGraph()
	spec := roadSpec
	in := make(map[int64]bool)
	for v := kor.NodeID(0); v < 40; v++ {
		spec.Pool = append(spec.Pool, v)
		in[int64(v)] = true
	}
	spec.Budget = 100 // any pair of the pool qualifies
	s := newStream(t, g, spec, 1, "load")
	for i := range 100 {
		q, err := s.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !in[q.Request.From] || !in[q.Request.To] {
			t.Fatalf("request %d leaves the pool: %s", i, q.Body)
		}
	}
}

func TestHotSetShare(t *testing.T) {
	g := roadGraph()
	spec := roadSpec
	spec.HotSet, spec.HotShare = 16, 0.8
	s := newStream(t, g, spec, 2, "load")
	hot, distinctHot := 0, make(map[string]bool)
	fresh := make(map[string]bool)
	const n = 2000
	for i := range n {
		q, err := s.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if i < 16 && (!q.Hot || distinctHot[string(q.Body)]) {
			t.Fatalf("request %d: the stream must open with each hot query once", i)
		}
		if q.Hot {
			hot++
			distinctHot[string(q.Body)] = true
		} else if fresh[string(q.Body)] {
			t.Fatalf("fresh request %d repeats", i)
		} else {
			fresh[string(q.Body)] = true
		}
	}
	if share := float64(hot) / n; share < 0.76 || share > 0.84 {
		t.Errorf("hot share %.3f, want about 0.8", share)
	}
	if len(distinctHot) != 16 {
		t.Errorf("%d distinct hot queries, want 16", len(distinctHot))
	}
	for body := range distinctHot {
		if fresh[body] {
			t.Error("a fresh request duplicates a hot one")
		}
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	g := roadGraph()
	if _, err := New(g, Spec{Keywords: 0, Budget: 5}, 1, "x"); err == nil {
		t.Error("zero keywords accepted")
	}
	if _, err := New(g, Spec{Keywords: 2, Budget: 0}, 1, "x"); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(g, Spec{Keywords: 2, Budget: 5, Pool: []kor.NodeID{1}}, 1, "x"); err == nil {
		t.Error("one-node pool accepted")
	}
	if _, err := New(g, Spec{Keywords: 100000, Budget: 5}, 1, "x"); err == nil {
		t.Error("more keywords than the vocabulary accepted")
	}
}
