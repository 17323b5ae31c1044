package kor

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyCity builds a hand-sized city for façade tests.
func tinyCity(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	hotel := b.AddNode("hotel")
	cafe := b.AddNode("cafe", "jazz")
	park := b.AddNode("park")
	mall := b.AddNode("mall", "cafe")
	edges := []struct {
		from, to NodeID
		o, c     float64
	}{
		{hotel, cafe, 0.7, 1.2}, {cafe, park, 0.3, 0.8}, {park, hotel, 0.5, 1.0},
		{cafe, mall, 0.4, 0.5}, {mall, park, 0.6, 0.9}, {hotel, park, 2.0, 0.4},
		{park, cafe, 0.3, 0.8},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetName(hotel, "Grand Hotel"); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

func TestEngineSearch(t *testing.T) {
	g := tinyCity(t)
	configs := []struct {
		name string
		cfg  EngineConfig
	}{
		{"auto", EngineConfig{Oracle: OracleAuto}},
		{"dense", EngineConfig{Oracle: OracleDense}},
		{"lazy", EngineConfig{Oracle: OracleLazy}},
		{"dist-index", EngineConfig{DistIndexPath: buildDistIndex(t, g)}},
	}
	for _, c := range configs {
		eng, err := NewEngine(g, &c.cfg)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", c.name, err)
		}
		resp, err := eng.Run(context.Background(), Request{From: 0, To: 0, Keywords: []string{"jazz", "park"}, Budget: 4})
		eng.Close()
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		route := resp.Best()
		if !route.Feasible {
			t.Fatalf("%s: infeasible route %v", c.name, route)
		}
		if route.Nodes[0] != 0 || route.Nodes[len(route.Nodes)-1] != 0 {
			t.Fatalf("%s: round trip endpoints wrong: %v", c.name, route)
		}
	}
}

func TestEngineAlgorithmsAgreeOnEasyQuery(t *testing.T) {
	g := tinyCity(t)
	eng, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5}
	run := func(algo Algorithm) (Response, error) {
		q.Algorithm = algo
		return eng.Run(ctx, q)
	}
	exact, err := run(AlgorithmExact)
	if err != nil {
		t.Fatal(err)
	}
	oss, err := run(AlgorithmOSScaling)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := run(AlgorithmBucketBound)
	if err != nil {
		t.Fatal(err)
	}
	opt := exact.Best().Objective
	if oss.Best().Objective > opt/(1-0.5)+1e-9 {
		t.Errorf("OSScaling %v outside bound of optimum %v", oss.Best().Objective, opt)
	}
	if bb.Best().Objective > 1.2*opt/(1-0.5)+1e-9 {
		t.Errorf("BucketBound %v outside bound of optimum %v", bb.Best().Objective, opt)
	}
	gre, err := run(AlgorithmGreedy)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Greedy: %v", err)
	}
	if err == nil && gre.Best().Objective < opt-1e-9 {
		t.Errorf("Greedy %v beats exact %v", gre.Best().Objective, opt)
	}
}

func TestEngineUnknownKeyword(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), Request{From: 0, To: 2, Keywords: []string{"spa"}, Budget: 5})
	if !errors.Is(err, ErrUnknownKeyword) {
		t.Fatalf("err = %v, want ErrUnknownKeyword", err)
	}
}

func TestEngineNoRoute(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 0.1})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestEngineTopK(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.K = 3
	opts.Epsilon = 0.1
	resp, err := eng.Run(context.Background(), Request{
		From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6, Algorithm: AlgorithmTopK, Options: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	routes := resp.Routes
	if len(routes) < 2 {
		t.Fatalf("TopK returned %d routes", len(routes))
	}
	for i := 1; i < len(routes); i++ {
		if routes[i-1].Objective > routes[i].Objective+1e-9 {
			t.Fatal("TopK routes not sorted")
		}
	}
}

func TestDescribeUsesNames(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Run(context.Background(), Request{From: 0, To: 0, Keywords: []string{"park"}, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	desc := eng.Describe(resp.Best())
	if !strings.Contains(desc, "Grand Hotel") {
		t.Errorf("Describe lost the node name: %q", desc)
	}
	if !strings.Contains(desc, "objective") {
		t.Errorf("Describe lost the scores: %q", desc)
	}
}

func TestSaveLoadGraphFile(t *testing.T) {
	g := tinyCity(t)
	path := filepath.Join(t.TempDir(), "city.korg")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	eng, err := NewEngine(loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 5}); err != nil {
		t.Fatalf("search on loaded graph: %v", err)
	}
}

func TestSyntheticGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic datasets in -short mode")
	}
	road := SyntheticRoadNetwork(3, 800)
	if road.NumNodes() != 800 {
		t.Fatalf("road nodes = %d", road.NumNodes())
	}
	eng, err := NewEngine(road, &EngineConfig{Oracle: OracleLazy})
	if err != nil {
		t.Fatal(err)
	}
	// Any frequent keyword works for a smoke query.
	name := road.Vocab().Name(0)
	_, err = eng.Run(context.Background(), Request{From: 0, To: 100, Keywords: []string{name}, Budget: 200})
	if err != nil && !errors.Is(err, ErrNoRoute) {
		t.Fatalf("road search: %v", err)
	}

	city, err := SyntheticCity(5)
	if err != nil {
		t.Fatal(err)
	}
	if city.NumNodes() < 100 {
		t.Fatalf("city has only %d nodes", city.NumNodes())
	}
	if !city.HasPositions() {
		t.Fatal("city lost positions")
	}
}

func TestEngineSuggest(t *testing.T) {
	g := tinyCity(t)
	// Memory-backed suggestions.
	eng, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Suggest("ca", 10)
	if len(got) != 1 || got[0].Keyword != "cafe" || got[0].Nodes != 2 {
		t.Fatalf("Suggest(ca) = %v, want [{cafe 2}]", got)
	}
	all := eng.Suggest("", 100)
	if len(all) != g.Vocab().Len() {
		t.Fatalf("Suggest(\"\") returned %d of %d keywords", len(all), g.Vocab().Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Keyword >= all[i].Keyword {
			t.Fatal("suggestions not sorted")
		}
	}

	// Suggestions follow a live update.
	if _, err := eng.Patch(Delta{AddKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"cava"}}}}); err != nil {
		t.Fatal(err)
	}
	got = eng.Suggest("ca", 10)
	if len(got) != 2 || got[0] != (Suggestion{"cafe", 2}) || got[1] != (Suggestion{"cava", 1}) {
		t.Fatalf("Suggest(ca) after Patch = %v, want [{cafe 2} {cava 1}]", got)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil); err == nil {
		t.Fatal("NewEngine(nil) succeeded")
	}
	if _, err := NewEngine(tinyCity(t), &EngineConfig{Oracle: OracleKind(99)}); err == nil {
		t.Fatal("unknown oracle kind accepted")
	}
}

func TestSyntheticGridEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic datasets in -short mode")
	}
	grid := SyntheticGrid(4, 400)
	if grid.NumNodes() != 400 {
		t.Fatalf("grid nodes = %d", grid.NumNodes())
	}
	eng, err := NewEngine(grid, &EngineConfig{Oracle: OracleLazy})
	if err != nil {
		t.Fatal(err)
	}
	name := grid.Vocab().Name(0)
	_, err = eng.Run(context.Background(), Request{From: 0, To: 399, Keywords: []string{name}, Budget: 1e6})
	if err != nil && !errors.Is(err, ErrNoRoute) {
		t.Fatalf("grid search: %v", err)
	}
}

func TestLoadGraphTextFacades(t *testing.T) {
	dir := t.TempDir()
	nodes := filepath.Join(dir, "n.csv")
	edges := filepath.Join(dir, "e.csv")
	if err := os.WriteFile(nodes, []byte("1,0,0,cafe\n2,1,1,jazz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edges, []byte("1,2,1,2\n2,1,2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraphCSV(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("CSV facade got %d/%d", g.NumNodes(), g.NumEdges())
	}

	tsv := filepath.Join(dir, "x.tsv")
	if err := os.WriteFile(tsv, []byte("node\t1\t0\t0\tcafe\nnode\t2\t1\t1\nedge\t1\t2\t1.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = LoadGraphOSM(tsv)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("OSM facade got %d/%d", g.NumNodes(), g.NumEdges())
	}
}
