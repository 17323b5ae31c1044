package cluster

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"kor"
)

func testGraph(t *testing.T, nodes int) *kor.Graph {
	t.Helper()
	return kor.SyntheticRoadNetwork(2012, nodes)
}

// TestCutFullHaloEquivalence: with a halo deeper than the graph, every
// shard's closure is the whole graph — so every shard graph must be
// bit-identical to the original (same fingerprint), which is what makes the
// full-halo configuration a ground-truth oracle for router tests.
func TestCutFullHaloEquivalence(t *testing.T) {
	g := testGraph(t, 120)
	full := fmt.Sprintf("%016x", g.Fingerprint())
	cut, err := CutGraph(g, CutConfig{Shards: 2, CellSize: 16, Halo: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Graphs) != 2 {
		t.Fatalf("got %d shards, want 2", len(cut.Graphs))
	}
	for i, info := range cut.Map.Shards {
		if info.Fingerprint != full {
			t.Errorf("shard %d fingerprint %s != full graph %s under an exhaustive halo", i, info.Fingerprint, full)
		}
		if info.Closure != g.NumNodes() {
			t.Errorf("shard %d closure %d != %d nodes", i, info.Closure, g.NumNodes())
		}
	}
	if cut.Map.FullFingerprint != full {
		t.Errorf("map full fingerprint %s != %s", cut.Map.FullFingerprint, full)
	}
}

func TestCutShardInvariants(t *testing.T) {
	g := testGraph(t, 150)
	cut, err := CutGraph(g, CutConfig{Shards: 3, CellSize: 12, Halo: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := cut.Map
	if err := m.Validate(); err != nil {
		t.Fatalf("cut produced an invalid map: %v", err)
	}
	if len(m.NodeShard) != g.NumNodes() {
		t.Fatalf("node_shard has %d entries for %d nodes", len(m.NodeShard), g.NumNodes())
	}
	owned := 0
	for _, info := range m.Shards {
		owned += info.Owned
		if info.Closure < info.Owned {
			t.Errorf("shard %d closure %d < owned %d", info.ID, info.Closure, info.Owned)
		}
	}
	if owned != g.NumNodes() {
		t.Errorf("shards own %d nodes in total, want %d (ownership must partition)", owned, g.NumNodes())
	}
	// Owned keyword counts must sum to the full graph's document
	// frequencies — the invariant the router's exact /v1/keywords merge
	// rests on.
	wantDF := make(map[string]int)
	for v := 0; v < g.NumNodes(); v++ {
		for _, term := range g.Terms(kor.NodeID(v)) {
			wantDF[g.Vocab().Name(term)]++
		}
	}
	for kw, want := range wantDF {
		got, ok := m.OwnedKeywordCount(kw)
		if !ok || got != want {
			t.Errorf("OwnedKeywordCount(%q) = %d,%v, want %d", kw, got, ok, want)
		}
	}
	if _, ok := m.OwnedKeywordCount("no-such-keyword"); ok {
		t.Error("OwnedKeywordCount claims to know a keyword absent from the cut")
	}
	for i, sg := range cut.Graphs {
		// Full node set: global IDs are valid verbatim on every shard.
		if sg.NumNodes() != g.NumNodes() {
			t.Errorf("shard %d graph has %d nodes, want the full %d", i, sg.NumNodes(), g.NumNodes())
		}
		if sg.NumEdges() > g.NumEdges() {
			t.Errorf("shard %d has %d edges, more than the original %d", i, sg.NumEdges(), g.NumEdges())
		}
		// Identical term numbering: a keyword unknown to one shard is
		// unknown to all, and known keywords keep their IDs.
		if sg.Vocab().Len() != g.Vocab().Len() {
			t.Errorf("shard %d vocabulary has %d terms, want %d", i, sg.Vocab().Len(), g.Vocab().Len())
		}
		for ti, name := range g.Vocab().Names() {
			if got := sg.Vocab().Name(kor.Term(ti)); got != name {
				t.Fatalf("shard %d term %d is %q, want %q — term numbering diverged", i, ti, got, name)
			}
		}
	}
}

func TestScatterSetSelection(t *testing.T) {
	m := &ShardMap{
		Version:   ShardMapVersion,
		Nodes:     4,
		NodeShard: []int{0, 0, 1, 1},
		Shards: []ShardInfo{
			{ID: 0, Keywords: []string{"bar", "cafe"}},
			{ID: 1, Keywords: []string{"cafe", "fuel"}},
		},
	}
	m.index()

	cases := []struct {
		keywords []string
		from     int64
		want     []int
	}{
		{[]string{"cafe"}, 0, []int{0, 1}},     // both shards carry it
		{[]string{"bar"}, 2, []int{0}},         // only shard 0
		{[]string{"bar", "cafe"}, 2, []int{0}}, // intersection
		{[]string{"bar", "fuel"}, 2, []int{1}}, // empty intersection → owner of from
		{[]string{"nope"}, 1, []int{0}},        // unknown keyword → owner classifies
		{nil, 3, []int{1}},                     // no keywords → owner of from
	}
	for _, c := range cases {
		got := m.ScatterSet(c.from, 0, c.keywords)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ScatterSet(from=%d, %v) = %v, want %v", c.from, c.keywords, got, c.want)
		}
	}
}

func TestShardMapRoundTrip(t *testing.T) {
	g := testGraph(t, 80)
	cut, err := CutGraph(g, CutConfig{Shards: 2, CellSize: 10, Halo: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cut.Map.Shards {
		cut.Map.Shards[i].Graph = fmt.Sprintf("g.shard%d.korg", i)
	}
	path := filepath.Join(t.TempDir(), "g.shardmap.json")
	if err := cut.Map.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShardMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FullFingerprint != cut.Map.FullFingerprint ||
		loaded.Nodes != cut.Map.Nodes || loaded.Edges != cut.Map.Edges ||
		loaded.Halo != cut.Map.Halo || len(loaded.Shards) != len(cut.Map.Shards) {
		t.Fatalf("round trip changed the map: %+v vs %+v", loaded, cut.Map)
	}
	if !reflect.DeepEqual(loaded.NodeShard, cut.Map.NodeShard) {
		t.Fatalf("round trip changed node ownership")
	}
	for i := range loaded.Shards {
		if !reflect.DeepEqual(loaded.Shards[i], cut.Map.Shards[i]) {
			t.Fatalf("round trip changed shard %d: %+v vs %+v", i, loaded.Shards[i], cut.Map.Shards[i])
		}
	}
	// The loaded map scatters identically.
	if len(loaded.Shards[0].Keywords) == 0 {
		t.Fatal("shard 0 carries no keywords — synthetic generator changed?")
	}
	kw := loaded.Shards[0].Keywords[0]
	if got, want := loaded.ScatterSet(0, 0, []string{kw}), cut.Map.ScatterSet(0, 0, []string{kw}); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded map scatters %v, original %v", got, want)
	}
}

func TestCutRejectsBadConfig(t *testing.T) {
	g := testGraph(t, 30)
	if _, err := CutGraph(g, CutConfig{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := CutGraph(g, CutConfig{Shards: 2, Halo: -1}); err == nil {
		t.Error("negative halo accepted")
	}
}

// TestCutClampsShards: asking for more shards than partition cells clamps
// rather than emitting empty shards.
func TestCutClampsShards(t *testing.T) {
	g := testGraph(t, 20)
	cut, err := CutGraph(g, CutConfig{Shards: 1000, CellSize: 10, Halo: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range cut.Map.Shards {
		if info.Owned == 0 {
			t.Fatalf("shard %d owns no nodes", info.ID)
		}
	}
}

// TestCutIsCompact: cells cut by coordinate bisection come out in spatial
// order, so the sequential fill makes compact shards. On the 8,000-node bench
// graph the 2-shard cut leaves few edges between shards (cells grown
// breadth-first from seeds in ID order left 2,694), and each halo-2 closure
// stays near half the graph (those cells gave 5,813 and 5,268 nodes).
func TestCutIsCompact(t *testing.T) {
	g := testGraph(t, 8000)
	cut, err := CutGraph(g, CutConfig{Shards: 2, Halo: 2})
	if err != nil {
		t.Fatal(err)
	}
	crossing := 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(kor.NodeID(v)) {
			if cut.Map.NodeShard[v] != cut.Map.NodeShard[e.To] {
				crossing++
			}
		}
	}
	if crossing > 400 {
		t.Errorf("%d cross-shard edges, want at most 400", crossing)
	}
	for _, info := range cut.Map.Shards {
		if info.Closure > 4400 {
			t.Errorf("shard %d: halo-2 closure of %d nodes, want at most 4,400", info.ID, info.Closure)
		}
	}
	t.Logf("%d cross-shard edges, closures %d and %d", crossing, cut.Map.Shards[0].Closure, cut.Map.Shards[1].Closure)
}
