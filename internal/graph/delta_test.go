package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// deltaFixture builds a small graph with positions, names and a few
// keywords, returning it alongside its builder for reference rebuilds.
func deltaFixture(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("hotel")          // 0
	b.AddNode("cafe", "jazz")   // 1
	b.AddNode("park")           // 2
	b.AddNode("museum", "jazz") // 3
	edges := []struct {
		from, to NodeID
		o, c     float64
	}{
		{0, 1, 0.7, 1.2}, {1, 2, 0.3, 0.8}, {2, 0, 0.5, 1.0},
		{0, 3, 0.9, 0.9}, {3, 2, 0.4, 1.1},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if err := b.SetName(0, "Grand Hotel"); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

// snapshotEdges captures every out-edge of g for later mutation checks.
func snapshotEdges(g *Graph) []Edge {
	return append([]Edge(nil), g.outEdges...)
}

// checkCSRMirror verifies the reverse CSR is an exact mirror of the forward
// one — every out-edge appears as an in-edge with matching attributes.
func checkCSRMirror(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.outEdges) != len(g.inEdges) {
		t.Fatalf("edge arrays disagree: %d out vs %d in", len(g.outEdges), len(g.inEdges))
	}
	type rec struct {
		from, to NodeID
		o, c     float64
	}
	count := make(map[rec]int)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			count[rec{NodeID(v), e.To, e.Objective, e.Budget}]++
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.In(NodeID(v)) {
			count[rec{e.To, NodeID(v), e.Objective, e.Budget}]--
		}
	}
	for r, c := range count {
		if c != 0 {
			t.Fatalf("CSR mirror broken at %+v (count %d)", r, c)
		}
	}
}

func TestApplyEmptyDeltaReturnsSameGraph(t *testing.T) {
	g := deltaFixture(t)
	g2, err := g.Apply(Delta{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g2 != g {
		t.Fatal("empty delta did not return the same graph")
	}
}

func TestApplyUpdateEdgeSharesUntouchedStorage(t *testing.T) {
	g := deltaFixture(t)
	before := snapshotEdges(g)
	fpBefore := g.Fingerprint()

	g2, err := g.Apply(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 2.5, Budget: 0.1}}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}

	// The new graph sees the new attributes, forward and reverse.
	found := false
	for _, e := range g2.Out(0) {
		if e.To == 1 {
			found = true
			if e.Objective != 2.5 || e.Budget != 0.1 {
				t.Fatalf("updated edge = %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("edge 0→1 missing after update")
	}
	for _, e := range g2.In(1) {
		if e.To == 0 && (e.Objective != 2.5 || e.Budget != 0.1) {
			t.Fatalf("reverse edge not updated: %+v", e)
		}
	}

	// The old graph is untouched.
	for i, e := range g.outEdges {
		if e != before[i] {
			t.Fatalf("source graph mutated at edge %d: %+v vs %+v", i, e, before[i])
		}
	}
	if g.Fingerprint() != fpBefore {
		t.Fatal("source fingerprint changed")
	}
	if g2.Fingerprint() == fpBefore {
		t.Fatal("updated graph kept the old fingerprint")
	}

	// Unchanged storage is shared: vocab, keyword CSR, CSR heads, names.
	if g2.vocab != g.vocab {
		t.Error("vocabulary not shared on an attr-only delta")
	}
	if &g2.terms[0] != &g.terms[0] || &g2.termHead[0] != &g.termHead[0] {
		t.Error("keyword CSR not shared on an attr-only delta")
	}
	if &g2.outHead[0] != &g.outHead[0] || &g2.inHead[0] != &g.inHead[0] {
		t.Error("CSR head arrays not shared on an attr-only delta")
	}
	if &g2.names[0] != &g.names[0] {
		t.Error("names not shared")
	}

	// Extrema recomputed: 0.1 is the new minimum budget, 2.5 the new max
	// objective.
	if g2.MinBudget() != 0.1 || g2.MaxObjective() != 2.5 {
		t.Errorf("extrema = obj[%v,%v] bud[%v,%v]", g2.MinObjective(), g2.MaxObjective(), g2.MinBudget(), g2.MaxBudget())
	}
	checkCSRMirror(t, g2)
}

func TestApplyKeywordPatchesShareEdgeStorage(t *testing.T) {
	g := deltaFixture(t)
	fpBefore := g.Fingerprint()
	g2, err := g.Apply(Delta{
		AddKeywords:    []KeywordPatch{{Node: 2, Keywords: []string{"jazz", "fountain"}}},
		RemoveKeywords: []KeywordPatch{{Node: 1, Keywords: []string{"jazz"}}},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}

	jazz, ok := g2.Vocab().Lookup("jazz")
	if !ok {
		t.Fatal("jazz vanished from the vocabulary")
	}
	if !g2.HasTerm(2, jazz) || g2.HasTerm(1, jazz) {
		t.Fatalf("keyword patch not applied: node2=%v node1=%v", g2.Terms(2), g2.Terms(1))
	}
	fountain, ok := g2.Vocab().Lookup("fountain")
	if !ok || !g2.HasTerm(2, fountain) {
		t.Fatal("new keyword fountain not interned onto node 2")
	}

	// The source graph and its vocabulary are untouched (copy-on-write).
	if _, ok := g.Vocab().Lookup("fountain"); ok {
		t.Fatal("new keyword leaked into the source vocabulary")
	}
	oldJazz, _ := g.Vocab().Lookup("jazz")
	if !g.HasTerm(1, oldJazz) {
		t.Fatal("source graph keywords mutated")
	}
	if g.Fingerprint() != fpBefore {
		t.Fatal("source fingerprint changed")
	}
	if g2.Fingerprint() == fpBefore {
		t.Fatal("keyword change kept the old fingerprint")
	}

	// Edge storage is fully shared on a keyword-only delta.
	if &g2.outEdges[0] != &g.outEdges[0] || &g2.inEdges[0] != &g.inEdges[0] {
		t.Error("edge arrays not shared on a keyword-only delta")
	}
	if g2.MinObjective() != g.MinObjective() || g2.MaxBudget() != g.MaxBudget() {
		t.Error("extrema changed on a keyword-only delta")
	}
}

func TestApplyAddKeywordSharedVocabWhenInterned(t *testing.T) {
	g := deltaFixture(t)
	// "park" is already interned, so the vocabulary can be shared.
	g2, err := g.Apply(Delta{AddKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"park"}}}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g2.vocab != g.vocab {
		t.Error("vocabulary cloned although no new keyword was interned")
	}
	// Idempotence: re-adding a carried keyword is a no-op.
	g3, err := g2.Apply(Delta{AddKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"park"}}}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g3.Fingerprint() != g2.Fingerprint() {
		t.Error("re-adding a carried keyword changed the fingerprint")
	}
}

func TestApplyTopologyChange(t *testing.T) {
	g := deltaFixture(t)
	g2, err := g.Apply(Delta{
		AddEdges:    []EdgePatch{{From: 2, To: 3, Objective: 0.2, Budget: 0.3}},
		RemoveEdges: []EdgeRef{{From: 0, To: 3}},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	for _, e := range g2.Out(0) {
		if e.To == 3 {
			t.Fatal("removed edge 0→3 still present")
		}
	}
	found := false
	for _, e := range g2.Out(2) {
		if e.To == 3 {
			found = true
			if e.Objective != 0.2 || e.Budget != 0.3 {
				t.Fatalf("added edge = %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("added edge 2→3 missing")
	}
	// Keyword CSR shared; extrema recomputed (0.2/0.3 are new minima).
	if &g2.terms[0] != &g.terms[0] {
		t.Error("keyword CSR not shared on an edge-only delta")
	}
	if g2.MinObjective() != 0.2 || g2.MinBudget() != 0.3 {
		t.Errorf("extrema = %v/%v", g2.MinObjective(), g2.MinBudget())
	}
	checkCSRMirror(t, g2)

	// Replace = remove + add of the same pair in one delta.
	g3, err := g2.Apply(Delta{
		RemoveEdges: []EdgeRef{{From: 2, To: 3}},
		AddEdges:    []EdgePatch{{From: 2, To: 3, Objective: 5, Budget: 6}},
	})
	if err != nil {
		t.Fatalf("Apply replace: %v", err)
	}
	n := 0
	for _, e := range g3.Out(2) {
		if e.To == 3 {
			n++
			if e.Objective != 5 || e.Budget != 6 {
				t.Fatalf("replaced edge = %+v", e)
			}
		}
	}
	if n != 1 {
		t.Fatalf("replace left %d copies of 2→3", n)
	}
	checkCSRMirror(t, g3)
}

func TestApplyValidation(t *testing.T) {
	g := deltaFixture(t)
	cases := []struct {
		name string
		d    Delta
		want string
	}{
		{"unknown node keywords", Delta{AddKeywords: []KeywordPatch{{Node: 9, Keywords: []string{"x"}}}}, "no such node"},
		{"unknown node edge", Delta{AddEdges: []EdgePatch{{From: 0, To: 42, Objective: 1, Budget: 1}}}, "no such node"},
		{"update missing edge", Delta{UpdateEdges: []EdgePatch{{From: 1, To: 0, Objective: 1, Budget: 1}}}, "no such edge"},
		{"remove missing edge", Delta{RemoveEdges: []EdgeRef{{From: 1, To: 0}}}, "no such edge"},
		{"duplicate add", Delta{AddEdges: []EdgePatch{{From: 0, To: 1, Objective: 1, Budget: 1}}}, "edge exists"},
		{"double add", Delta{AddEdges: []EdgePatch{
			{From: 1, To: 0, Objective: 1, Budget: 1},
			{From: 1, To: 0, Objective: 2, Budget: 2},
		}}, "edge exists"},
		{"self loop", Delta{AddEdges: []EdgePatch{{From: 1, To: 1, Objective: 1, Budget: 1}}}, "self-loop"},
		{"zero objective", Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0, Budget: 1}}}, "positive and finite"},
		{"negative budget", Delta{AddEdges: []EdgePatch{{From: 1, To: 0, Objective: 1, Budget: -2}}}, "positive and finite"},
		{"nan objective", Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: math.NaN(), Budget: 1}}}, "positive and finite"},
		{"inf budget", Delta{AddEdges: []EdgePatch{{From: 1, To: 0, Objective: 1, Budget: math.Inf(1)}}}, "positive and finite"},
		{"remove unknown keyword", Delta{RemoveKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"nope"}}}}, "not in vocabulary"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g2, err := g.Apply(c.d)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Apply err = %v, want containing %q", err, c.want)
			}
			if g2 != nil {
				t.Fatal("failed Apply returned a graph")
			}
		})
	}
}

// TestApplySaveLoadRoundTrip: an applied graph survives the binary format
// with an identical fingerprint — patched datasets can be persisted.
func TestApplySaveLoadRoundTrip(t *testing.T) {
	g := deltaFixture(t)
	g2, err := g.Apply(Delta{
		UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 1.5, Budget: 2.5}},
		AddKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"rooftop"}}},
		AddEdges:    []EdgePatch{{From: 2, To: 1, Objective: 0.4, Budget: 0.4}},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var buf bytes.Buffer
	if err := g2.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	g3, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g3.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("round trip fingerprint %x, want %x", g3.Fingerprint(), g2.Fingerprint())
	}
}

// TestApplyDistanceFingerprint: a keyword delta keeps the distance digest —
// carried over, not recomputed, since the edge arrays are aliased — while an
// edge delta changes it; the full fingerprint changes in both cases.
func TestApplyDistanceFingerprint(t *testing.T) {
	g := deltaFixture(t)
	fp, dfp := g.Fingerprint(), g.DistanceFingerprint()

	kw, err := g.Apply(Delta{
		AddKeywords:    []KeywordPatch{{Node: 2, Keywords: []string{"jazz", "fountain"}}},
		RemoveKeywords: []KeywordPatch{{Node: 1, Keywords: []string{"jazz"}}},
	})
	if err != nil {
		t.Fatalf("Apply keywords: %v", err)
	}
	if got := kw.dfp.Load(); got != dfp {
		t.Fatalf("keyword delta cached distance fingerprint %x, want %x carried over", got, dfp)
	}
	if kw.Fingerprint() == fp {
		t.Fatal("keyword delta kept the full fingerprint")
	}
	// The carried digest is the one a recomputation yields.
	kw.dfp.Store(0)
	if got := kw.DistanceFingerprint(); got != dfp {
		t.Fatalf("recomputed distance fingerprint %x, want %x", got, dfp)
	}

	for _, d := range []Delta{
		{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.7, Budget: 1.3}}},
		{RemoveEdges: []EdgeRef{{From: 3, To: 2}}},
		{AddEdges: []EdgePatch{{From: 1, To: 0, Objective: 0.2, Budget: 0.2}}},
		{
			AddKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"jazz"}}},
			UpdateEdges: []EdgePatch{{From: 1, To: 2, Objective: 0.3, Budget: 0.9}},
		},
	} {
		g2, err := g.Apply(d)
		if err != nil {
			t.Fatalf("Apply %+v: %v", d, err)
		}
		if g2.DistanceFingerprint() == dfp {
			t.Errorf("edge delta %+v kept the distance fingerprint", d)
		}
		if g2.Fingerprint() == fp {
			t.Errorf("edge delta %+v kept the full fingerprint", d)
		}
	}
}

// TestDistanceFingerprintIgnoresLabels: keywords, names and positions do
// not enter the distance digest; the edges and their weights do.
func TestDistanceFingerprintIgnoresLabels(t *testing.T) {
	build := func(kw string, obj float64, relabel bool) *Graph {
		b := NewBuilder()
		b.AddNode(kw)
		if relabel {
			b.AddNode("extra")
		} else {
			b.AddNode()
		}
		b.AddNode(kw, "extra")
		if err := b.AddEdge(0, 1, obj, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(1, 2, 1, 2); err != nil {
			t.Fatal(err)
		}
		if relabel {
			if err := b.SetName(1, "Station"); err != nil {
				t.Fatal(err)
			}
		}
		return b.MustBuild()
	}
	a, b := build("cafe", 1, false), build("park", 1, true)
	if a.DistanceFingerprint() != b.DistanceFingerprint() {
		t.Fatal("graphs with the same edges have different distance fingerprints")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("graphs with different keywords share a full fingerprint")
	}
	if c := build("cafe", 1.5, false); c.DistanceFingerprint() == a.DistanceFingerprint() {
		t.Fatal("a changed edge weight kept the distance fingerprint")
	}
}
