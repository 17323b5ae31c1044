package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"kor/internal/geo"
)

// buildDiamond builds a 4-node diamond: 0→1→3, 0→2→3, plus 0→3.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	v0 := b.AddNode("start")
	v1 := b.AddNode("cafe", "jazz")
	v2 := b.AddNode("park")
	v3 := b.AddNode("end", "cafe")
	for _, e := range []struct {
		from, to NodeID
		o, c     float64
	}{
		{v0, v1, 1, 2}, {v1, v3, 2, 1}, {v0, v2, 3, 1}, {v2, v3, 1, 3}, {v0, v3, 10, 0.5},
	} {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 3 {
		t.Errorf("OutDegree(0) = %d, want 3", g.OutDegree(0))
	}
	if g.InDegree(3) != 3 {
		t.Errorf("InDegree(3) = %d, want 3", g.InDegree(3))
	}
	if g.MinObjective() != 1 || g.MaxObjective() != 10 {
		t.Errorf("objective extrema = %v,%v", g.MinObjective(), g.MaxObjective())
	}
	if g.MinBudget() != 0.5 || g.MaxBudget() != 3 {
		t.Errorf("budget extrema = %v,%v", g.MinBudget(), g.MaxBudget())
	}
}

func TestForwardReverseConsistency(t *testing.T) {
	g := buildDiamond(t)
	type triple struct {
		from, to NodeID
		o, c     float64
	}
	var fwd, rev []triple
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, e := range g.Out(v) {
			fwd = append(fwd, triple{v, e.To, e.Objective, e.Budget})
		}
		for _, e := range g.In(v) {
			rev = append(rev, triple{e.To, v, e.Objective, e.Budget})
		}
	}
	key := func(x triple) [4]float64 {
		return [4]float64{float64(x.from), float64(x.to), x.o, x.c}
	}
	sort.Slice(fwd, func(i, j int) bool { return less4(key(fwd[i]), key(fwd[j])) })
	sort.Slice(rev, func(i, j int) bool { return less4(key(rev[i]), key(rev[j])) })
	if len(fwd) != len(rev) {
		t.Fatalf("edge count mismatch fwd=%d rev=%d", len(fwd), len(rev))
	}
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, fwd[i], rev[i])
		}
	}
}

func less4(a, b [4]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestTermsAndHasTerm(t *testing.T) {
	g := buildDiamond(t)
	cafe, ok := g.Vocab().Lookup("cafe")
	if !ok {
		t.Fatal("cafe not interned")
	}
	if !g.HasTerm(1, cafe) || !g.HasTerm(3, cafe) {
		t.Error("HasTerm(cafe) = false on a cafe node")
	}
	if g.HasTerm(0, cafe) || g.HasTerm(2, cafe) {
		t.Error("HasTerm(cafe) = true on a non-cafe node")
	}
	if g.HasTerm(0, Term(999)) {
		t.Error("HasTerm(unknown term) = true")
	}
	ts := g.Terms(1)
	if len(ts) != 2 {
		t.Fatalf("Terms(1) = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			t.Fatal("Terms not sorted")
		}
	}
}

func TestDuplicateKeywordsCollapsed(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("pub", "pub", "jazz", "pub")
	g := b.MustBuild()
	if got := len(g.Terms(v)); got != 2 {
		t.Fatalf("Terms = %v, want 2 distinct", g.Terms(v))
	}
}

func TestAddEdgeValidation(t *testing.T) {
	b := NewBuilder()
	v0 := b.AddNode()
	v1 := b.AddNode()
	cases := []struct {
		name     string
		from, to NodeID
		o, c     float64
	}{
		{"missing from", 9, v1, 1, 1},
		{"missing to", v0, 9, 1, 1},
		{"negative from", -1, v1, 1, 1},
		{"self loop", v0, v0, 1, 1},
		{"zero objective", v0, v1, 0, 1},
		{"negative objective", v0, v1, -2, 1},
		{"zero budget", v0, v1, 1, 0},
		{"nan objective", v0, v1, nan(), 1},
		{"inf budget", v0, v1, 1, inf()},
	}
	for _, c := range cases {
		if err := b.AddEdge(c.from, c.to, c.o, c.c); err == nil {
			t.Errorf("%s: AddEdge accepted invalid input", c.name)
		}
	}
	if err := b.AddEdge(v0, v1, 1, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }

func TestSetPositionAndName(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("hotel")
	if err := b.SetPosition(v, geo.Point{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetName(v, "Dewitt Clinton Park"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPosition(99, geo.Point{}); err == nil {
		t.Error("SetPosition on missing node accepted")
	}
	if err := b.SetName(-1, "x"); err == nil {
		t.Error("SetName on missing node accepted")
	}
	g := b.MustBuild()
	if !g.HasPositions() {
		t.Fatal("HasPositions = false")
	}
	if g.Position(v) != (geo.Point{X: 1, Y: 2}) {
		t.Errorf("Position = %v", g.Position(v))
	}
	if g.Name(v) != "Dewitt Clinton Park" {
		t.Errorf("Name = %q", g.Name(v))
	}
}

func TestNoPositionsByDefault(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode()
	g := b.MustBuild()
	if g.HasPositions() {
		t.Error("HasPositions = true without SetPosition")
	}
	if g.Position(v) != (geo.Point{}) {
		t.Error("Position should be zero without coordinates")
	}
	if g.Name(v) != "" {
		t.Error("Name should be empty without names")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().MustBuild()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.MinObjective() != 0 || g.MinBudget() != 0 {
		t.Error("empty graph extrema should be zero")
	}
	s := g.ComputeStats()
	if s.Nodes != 0 || s.Edges != 0 {
		t.Errorf("stats = %v", s)
	}
}

func TestStats(t *testing.T) {
	g := buildDiamond(t)
	s := g.ComputeStats()
	if s.Nodes != 4 || s.Edges != 5 || s.MaxOutDegree != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Isolated != 0 {
		t.Errorf("Isolated = %d", s.Isolated)
	}
	if s.String() == "" {
		t.Error("empty Stats.String")
	}

	b := NewBuilder()
	b.AddNode("alone")
	g2 := b.MustBuild()
	if got := g2.ComputeStats().Isolated; got != 1 {
		t.Errorf("Isolated = %d, want 1", got)
	}
}

func TestStronglyConnected(t *testing.T) {
	b := NewBuilder()
	v0, v1, v2 := b.AddNode(), b.AddNode(), b.AddNode()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddEdge(v0, v1, 1, 1))
	must(b.AddEdge(v1, v2, 1, 1))
	g := b.MustBuild()
	if g.StronglyConnected() {
		t.Error("path graph reported strongly connected")
	}
	must(b.AddEdge(v2, v0, 1, 1))
	g = b.MustBuild()
	if !g.StronglyConnected() {
		t.Error("cycle graph reported not strongly connected")
	}
}

func TestMemIndex(t *testing.T) {
	g := buildDiamond(t)
	idx := NewMemIndex(g)
	cafe, _ := g.Vocab().Lookup("cafe")
	post := idx.Postings(cafe)
	if len(post) != 2 || post[0] != 1 || post[1] != 3 {
		t.Fatalf("Postings(cafe) = %v", post)
	}
	if idx.DocFrequency(cafe) != 2 {
		t.Errorf("DocFrequency = %d", idx.DocFrequency(cafe))
	}
	if got := idx.Postings(Term(404)); len(got) != 0 {
		t.Errorf("Postings(unknown) = %v", got)
	}
	if idx.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", idx.NumNodes())
	}
}

// randomGraph builds a pseudo-random valid graph for property tests.
func randomGraph(rng *rand.Rand, maxNodes int) *Graph {
	b := NewBuilder()
	n := 2 + rng.Intn(maxNodes-1)
	words := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		kws := make([]string, k)
		for j := range kws {
			kws[j] = words[rng.Intn(len(words))]
		}
		b.AddNode(kws...)
	}
	edges := rng.Intn(4 * n)
	for i := 0; i < edges; i++ {
		from := NodeID(rng.Intn(n))
		to := NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		// Errors cannot happen here by construction; ignore the few that
		// would come from duplicates, which are legal anyway.
		_ = b.AddEdge(from, to, 0.1+rng.Float64(), 0.1+rng.Float64())
	}
	return b.MustBuild()
}

// Property: in/out degree totals both equal |E|, and CSR offsets are sane.
func TestDegreeSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 30)
		var outSum, inSum int
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			outSum += g.OutDegree(v)
			inSum += g.InDegree(v)
		}
		if outSum != g.NumEdges() || inSum != g.NumEdges() {
			t.Fatalf("degree sums %d/%d, edges %d", outSum, inSum, g.NumEdges())
		}
	}
}

// Property: vocabulary interning is stable and bijective over its range.
func TestVocabularyProperty(t *testing.T) {
	f := func(names []string) bool {
		v := NewVocabulary()
		for _, n := range names {
			t1 := v.Intern(n)
			t2 := v.Intern(n)
			if t1 != t2 {
				return false
			}
			if v.Name(t1) != n {
				return false
			}
			if got, ok := v.Lookup(n); !ok || got != t1 {
				return false
			}
		}
		return v.Len() <= len(names) || len(names) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVocabularyUnknown(t *testing.T) {
	v := NewVocabulary()
	if _, ok := v.Lookup("ghost"); ok {
		t.Error("Lookup on empty vocabulary returned ok")
	}
	if v.Name(Term(3)) != "" || v.Name(Term(-1)) != "" {
		t.Error("Name of unknown term should be empty")
	}
}

// TestFingerprintCoversAnswers: everything a route answer shows enters the
// fingerprint — a keyword's spelling, a node's name, a node's position, and
// which name stands behind a term ID — while the distance fingerprint stays
// put across all of them.
func TestFingerprintCoversAnswers(t *testing.T) {
	type variant struct {
		vocab    []string // interned first, fixing the term numbering
		kw0, kw1 string
		name     string
		x        float64
	}
	build := func(c variant) *Graph {
		vocab := NewVocabulary()
		for _, s := range c.vocab {
			vocab.Intern(s)
		}
		b := NewBuilderWithVocab(vocab)
		b.AddNode(c.kw0)
		b.AddNode(c.kw1)
		if err := b.SetName(1, c.name); err != nil {
			t.Fatal(err)
		}
		if err := b.SetPosition(0, geo.Point{X: c.x, Y: 1}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBidirectional(0, 1, 1, 2); err != nil {
			t.Fatal(err)
		}
		return b.MustBuild()
	}
	base := variant{vocab: []string{"cafe", "park"}, kw0: "cafe", kw1: "park", name: "Station", x: 3}
	g := build(base)
	for what, c := range map[string]variant{
		"keyword spelling": {vocab: []string{"cafe", "parc"}, kw0: "cafe", kw1: "parc", name: "Station", x: 3},
		"node name":        {vocab: base.vocab, kw0: "cafe", kw1: "park", name: "Depot", x: 3},
		"position":         {vocab: base.vocab, kw0: "cafe", kw1: "park", name: "Station", x: 4},
		"term numbering":   {vocab: []string{"park", "cafe"}, kw0: "park", kw1: "cafe", name: "Station", x: 3},
	} {
		h := build(c)
		if h.Fingerprint() == g.Fingerprint() {
			t.Errorf("%s: graphs hash alike (%016x)", what, g.Fingerprint())
		}
		if h.DistanceFingerprint() != g.DistanceFingerprint() {
			t.Errorf("%s: distance fingerprint moved", what)
		}
	}
	if build(base).Fingerprint() != g.Fingerprint() {
		t.Error("equal graphs hash apart")
	}
}
