package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kor/internal/geo"
)

// randomEdges draws a deterministic edge set over n nodes with no self-loops
// or duplicate (from,to) pairs, in a fixed arrival order.
func randomEdges(rng *rand.Rand, n, m int) [][4]float64 {
	seen := make(map[[2]int]bool)
	var out [][4]float64
	for len(out) < m {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		out = append(out, [4]float64{float64(from), float64(to), 0.1 + rng.Float64(), 0.1 + 2*rng.Float64()})
	}
	return out
}

func randomTags(rng *rand.Rand, v int) []string {
	k := rng.Intn(4)
	tags := make([]string, 0, k)
	for i := 0; i < k; i++ {
		tags = append(tags, fmt.Sprintf("tag%02d", rng.Intn(20)))
	}
	return tags
}

// streamFixture is the node set of TestStreamBuilderMatchesBuilder: random
// keywords (duplicates included), a position on every node and a name on
// every third.
type streamFixture struct{ tags [][]string }

func (f streamFixture) position(v int) geo.Point { return geo.Point{X: float64(v), Y: float64(-v)} }

func (f streamFixture) name(v int) string {
	if v%3 != 0 {
		return ""
	}
	return fmt.Sprintf("poi-%d", v)
}

// build lays the fixture and edges out with Builder: the reference every
// assembly path is held to. CSV carries no names, so its reference has
// none either.
func (f streamFixture) build(t *testing.T, edges [][4]float64, names bool) *Graph {
	t.Helper()
	b := NewBuilder()
	for v, tags := range f.tags {
		id := b.AddNode(tags...)
		if err := b.SetPosition(id, f.position(v)); err != nil {
			t.Fatalf("builder SetPosition: %v", err)
		}
		if name := f.name(v); names && name != "" {
			if err := b.SetName(id, name); err != nil {
				t.Fatalf("builder SetName: %v", err)
			}
		}
	}
	for _, e := range edges {
		if err := b.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2], e[3]); err != nil {
			t.Fatalf("builder AddEdge: %v", err)
		}
	}
	return b.MustBuild()
}

// stream lays the fixture and edges out through StreamBuilder's public
// two-pass protocol.
func (f streamFixture) stream(t *testing.T, edges [][4]float64) *Graph {
	t.Helper()
	sb := NewStreamBuilder(nil)
	for v, tags := range f.tags {
		id, err := sb.AddNode(tags...)
		if err != nil {
			t.Fatalf("stream AddNode: %v", err)
		}
		if err := sb.SetPosition(id, f.position(v)); err != nil {
			t.Fatalf("stream SetPosition: %v", err)
		}
		if name := f.name(v); name != "" {
			if err := sb.SetName(id, name); err != nil {
				t.Fatalf("stream SetName: %v", err)
			}
		}
	}
	for _, e := range edges {
		if err := sb.CountEdge(NodeID(e[0]), NodeID(e[1])); err != nil {
			t.Fatalf("CountEdge: %v", err)
		}
	}
	if err := sb.FinishCount(); err != nil {
		t.Fatalf("FinishCount: %v", err)
	}
	for _, e := range edges {
		if err := sb.FillEdge(NodeID(e[0]), NodeID(e[1]), e[2], e[3]); err != nil {
			t.Fatalf("FillEdge: %v", err)
		}
	}
	g, err := sb.Build()
	if err != nil {
		t.Fatalf("stream Build: %v", err)
	}
	return g
}

// csv lays the fixture and edges out through LoadCSV.
func (f streamFixture) csv(t *testing.T, edges [][4]float64) *Graph {
	t.Helper()
	var nodes, edgeRecs strings.Builder
	for v, tags := range f.tags {
		p := f.position(v)
		fmt.Fprintf(&nodes, "%d,%v,%v,%s\n", v, p.X, p.Y, strings.Join(tags, ";"))
	}
	for _, e := range edges {
		fmt.Fprintf(&edgeRecs, "%d,%d,%v,%v\n", int(e[0]), int(e[1]), e[2], e[3])
	}
	g, err := LoadCSV(strings.NewReader(nodes.String()), "nodes.csv", strings.NewReader(edgeRecs.String()), "edges.csv")
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	return g
}

// outOrder lists g's edges in Out order: the order Save writes and Apply
// re-assembles from.
func outOrder(g *Graph) [][4]float64 {
	var out [][4]float64
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, e := range g.Out(v) {
			out = append(out, [4]float64{float64(v), float64(e.To), e.Objective, e.Budget})
		}
	}
	return out
}

// permutedSave saves g with its edge records shuffled and the checksum
// recomputed, returning the file and the edge order it holds.
func permutedSave(tb testing.TB, g *Graph, rng *rand.Rand) ([]byte, [][4]float64) {
	tb.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	data := buf.Bytes()
	off := len(data) - 4 - g.NumEdges()*edgeRecordSize
	if g.HasPositions() {
		off -= 16 * g.NumNodes()
	}
	for v := NodeID(0); g.names != nil && int(v) < g.NumNodes(); v++ {
		off -= 4 + len(g.Name(v))
	}
	section := data[off : off+g.NumEdges()*edgeRecordSize]
	recs := slices.Clone(section)
	order := outOrder(g)
	permuted := make([][4]float64, len(order))
	for i, j := range rng.Perm(len(order)) {
		copy(section[i*edgeRecordSize:(i+1)*edgeRecordSize], recs[j*edgeRecordSize:])
		permuted[i] = order[j]
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[4:len(data)-4]))
	return data, permuted
}

// assertSameLayout fails unless got matches want in both CSR directions,
// the terms, positions, names, the edge extrema and the fingerprint.
func assertSameLayout(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d nodes/edges",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		if !slices.Equal(got.Out(v), want.Out(v)) {
			t.Fatalf("node %d out: %+v vs %+v", v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("node %d in: %+v vs %+v", v, got.In(v), want.In(v))
		}
		if !slices.Equal(got.Terms(v), want.Terms(v)) {
			t.Fatalf("node %d terms: %v vs %v", v, got.Terms(v), want.Terms(v))
		}
		if got.Position(v) != want.Position(v) || got.Name(v) != want.Name(v) {
			t.Fatalf("node %d position or name mismatch", v)
		}
	}
	if got.MinObjective() != want.MinObjective() || got.MaxObjective() != want.MaxObjective() ||
		got.MinBudget() != want.MinBudget() || got.MaxBudget() != want.MaxBudget() {
		t.Fatalf("extrema mismatch")
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %x vs %x", got.Fingerprint(), want.Fingerprint())
	}
}

// TestStreamBuilderMatchesBuilder pins the one-assembly contract: every path
// that lays a graph out gives the graph Builder gives for the same nodes and
// the same edges in the order that path saw them — same CSR in both
// directions, terms, extrema and fingerprint.
func TestStreamBuilderMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 60, 240
	f := streamFixture{tags: make([][]string, n)}
	for v := range f.tags {
		f.tags[v] = randomTags(rng, v)
	}
	edges := randomEdges(rng, n, m)
	base := f.build(t, edges, true)
	saved := outOrder(base)
	permutedFile, permuted := permutedSave(t, base, rng)

	// One edge to update, one pair to add and one edge to remove.
	upd := saved[17]
	var add [4]float64
	for from, to := 0, 1; ; to++ {
		if !slices.ContainsFunc(saved, func(e [4]float64) bool { return e[0] == float64(from) && e[1] == float64(to) }) {
			add = [4]float64{float64(from), float64(to), 0.05, 3.5}
			break
		}
	}
	rm := saved[42]
	apply := func(d Delta) func(t *testing.T) *Graph {
		return func(t *testing.T) *Graph {
			g, err := base.Apply(d)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			checkCSRMirror(t, g)
			return g
		}
	}
	updated := slices.Clone(saved)
	updated[17][2], updated[17][3] = 9.5, 0.01

	cases := []struct {
		name  string
		edges [][4]float64 // the order the path sees the edges in
		names bool
		got   func(t *testing.T) *Graph
	}{
		{"Builder", edges, true, func(t *testing.T) *Graph { return f.build(t, edges, true) }},
		{"StreamBuilder", edges, true, func(t *testing.T) *Graph { return f.stream(t, edges) }},
		{"Load of Save", saved, true, func(t *testing.T) *Graph { return roundTrip(t, base) }},
		{"Load of permuted edges", permuted, true, func(t *testing.T) *Graph {
			g, err := Load(bytes.NewReader(permutedFile))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			return g
		}},
		{"LoadCSV", edges, false, func(t *testing.T) *Graph { return f.csv(t, edges) }},
		{"Apply update", updated, true, apply(Delta{UpdateEdges: []EdgePatch{
			{From: NodeID(upd[0]), To: NodeID(upd[1]), Objective: 9.5, Budget: 0.01}}})},
		{"Apply add", append(slices.Clone(saved), add), true, apply(Delta{AddEdges: []EdgePatch{
			{From: NodeID(add[0]), To: NodeID(add[1]), Objective: add[2], Budget: add[3]}}})},
		{"Apply remove", slices.Delete(slices.Clone(saved), 42, 43), true, apply(Delta{RemoveEdges: []EdgeRef{
			{From: NodeID(rm[0]), To: NodeID(rm[1])}}})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			assertSameLayout(t, f.build(t, c.edges, c.names), c.got(t))
		})
	}
}

func TestStreamBuilderValidation(t *testing.T) {
	sb := NewStreamBuilder(nil)
	a, _ := sb.AddNode("x")
	b, _ := sb.AddNode()

	if err := sb.CountEdge(a, a); err == nil {
		t.Errorf("self-loop CountEdge accepted")
	}
	if err := sb.CountEdge(a, 99); err == nil {
		t.Errorf("undeclared endpoint accepted")
	}
	if err := sb.FillEdge(a, b, 1, 1); err == nil {
		t.Errorf("FillEdge before FinishCount accepted")
	}
	if err := sb.CountEdge(a, b); err != nil {
		t.Fatalf("CountEdge: %v", err)
	}
	if err := sb.FinishCount(); err != nil {
		t.Fatalf("FinishCount: %v", err)
	}
	if err := sb.FinishCount(); err == nil {
		t.Errorf("double FinishCount accepted")
	}
	if _, err := sb.AddNode("late"); err == nil {
		t.Errorf("AddNode after FinishCount accepted")
	}
	if err := sb.FillEdge(a, b, -1, 1); err == nil {
		t.Errorf("negative objective accepted")
	}
	if _, err := sb.Build(); err == nil {
		t.Errorf("Build with unfilled edges accepted")
	}
	if err := sb.FillEdge(a, b, 1, 2); err != nil {
		t.Fatalf("FillEdge: %v", err)
	}
	if err := sb.FillEdge(a, b, 1, 2); err == nil {
		t.Errorf("overfilling counted degree accepted")
	}
	g, err := sb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestStreamBuilderEdgeless(t *testing.T) {
	sb := NewStreamBuilder(nil)
	if _, err := sb.AddNode("solo"); err != nil {
		t.Fatal(err)
	}
	g, err := sb.Build() // Build without FinishCount: implicit empty edge set
	if err != nil {
		t.Fatalf("edgeless Build: %v", err)
	}
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}
