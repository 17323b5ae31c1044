package kor

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kor/internal/apsp"
)

// Tests of the façade outside the engine conformance table
// (conformance_test.go): naming, persistence, generators, loaders,
// suggestions and construction errors.

// newTestEngine returns an engine over g with its table build settled,
// closed when the test ends.
func newTestEngine(t testing.TB, g *Graph, cfg *EngineConfig) *Engine {
	t.Helper()
	eng, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	settle(eng)
	return eng
}

// randomRequest draws uniform endpoints, one to three keywords from pool and
// a budget between half and three times the straight-line distance plus a
// slack, so both feasible and infeasible queries occur.
func randomRequest(rng *rand.Rand, g *Graph, pool []string) Request {
	from, to := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
	kws := make([]string, 1+rng.Intn(3))
	for i := range kws {
		kws[i] = pool[rng.Intn(len(pool))]
	}
	crow := g.Position(from).Euclidean(g.Position(to))
	return Request{From: from, To: to, Keywords: kws, Budget: crow*(0.5+2.5*rng.Float64()) + 2}
}

// randomKeywordDelta adds keywords from pool to a few random nodes and
// removes one keyword from a few others.
func randomKeywordDelta(rng *rand.Rand, g *Graph, pool []string) Delta {
	var d Delta
	for i := 0; i < 1+rng.Intn(3); i++ {
		kws := []string{pool[rng.Intn(len(pool))]}
		if rng.Intn(2) == 0 {
			kws = append(kws, pool[rng.Intn(len(pool))])
		}
		d.AddKeywords = append(d.AddKeywords, KeywordPatch{Node: NodeID(rng.Intn(g.NumNodes())), Keywords: kws})
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		v := NodeID(rng.Intn(g.NumNodes()))
		if terms := g.Terms(v); len(terms) > 0 {
			kw := g.Vocab().Name(terms[rng.Intn(len(terms))])
			d.RemoveKeywords = append(d.RemoveKeywords, KeywordPatch{Node: v, Keywords: []string{kw}})
		}
	}
	return d
}

// concurrencyQueries derives feasible-looking queries from the graph itself,
// for the benchmarks: keywords are read off sampled nodes, so every query
// resolves.
func concurrencyQueries(t testing.TB, eng *Engine, n int) []Request {
	t.Helper()
	g := eng.Graph()
	rng := rand.New(rand.NewSource(7))
	queries := make([]Request, 0, n)
	for len(queries) < n {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		seen := map[string]bool{}
		var kws []string
		for len(kws) < 3 {
			v := NodeID(rng.Intn(g.NumNodes()))
			for _, term := range g.Terms(v) {
				name := g.Vocab().Name(term)
				if !seen[name] {
					seen[name] = true
					kws = append(kws, name)
				}
			}
		}
		queries = append(queries, Request{From: from, To: to, Keywords: kws[:3], Budget: 60})
	}
	return queries
}

func TestDescribeUsesNames(t *testing.T) {
	eng := newTestEngine(t, handCity(t, 0.7), nil)
	resp, err := eng.Run(context.Background(), cityQuery)
	if err != nil {
		t.Fatal(err)
	}
	desc := eng.Describe(resp.Best())
	if !strings.Contains(desc, "Grand Hotel → #1 → #2") {
		t.Errorf("Describe lost the node names: %q", desc)
	}
	if !strings.Contains(desc, "objective 1,") {
		t.Errorf("Describe lost the scores: %q", desc)
	}
}

func TestSaveLoadGraphFile(t *testing.T) {
	g := handCity(t, 0.7)
	path := filepath.Join(t.TempDir(), "city.korg")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != g.Fingerprint() {
		t.Fatalf("LoadGraph = %v; want the saved graph's content", loaded)
	}
}

// smokeSynthetic checks a generated graph's size and positions and runs one
// lazy query on it.
func smokeSynthetic(t *testing.T, g *Graph, nodes int) {
	t.Helper()
	if testing.Short() {
		t.Skip("synthetic datasets in -short mode")
	}
	if g.NumNodes() != nodes {
		t.Fatalf("generated %d nodes, want %d", g.NumNodes(), nodes)
	}
	if !g.HasPositions() {
		t.Fatal("generated graph lost positions")
	}
	// Any frequent keyword works for a smoke query.
	eng := newTestEngine(t, g, &EngineConfig{Oracle: OracleLazy})
	req := Request{From: 0, To: NodeID(nodes / 2), Keywords: []string{g.Vocab().Name(0)}, Budget: 1e6}
	if _, err := eng.Run(context.Background(), req); err != nil && !errors.Is(err, ErrNoRoute) {
		t.Fatalf("search: %v", err)
	}
}

func TestSyntheticGenerators(t *testing.T) {
	t.Parallel()
	smokeSynthetic(t, SyntheticRoadNetwork(3, 800), 800)
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

func TestSyntheticGridEngine(t *testing.T) {
	t.Parallel()
	smokeSynthetic(t, SyntheticGrid(4, 400), 400)
}

func TestEngineSuggest(t *testing.T) {
	eng := newTestEngine(t, handCity(t, 0.7), &EngineConfig{Oracle: OracleLazy})
	want := []Suggestion{{"cafe", 1}, {"hotel", 1}, {"jazz", 2}, {"museum", 1}, {"park", 1}}
	if got := eng.Suggest("", 100); !slices.Equal(got, want) {
		t.Fatalf("Suggest(\"\") = %v, want %v", got, want)
	}
	// Suggestions follow a live update.
	if _, err := eng.Patch(Delta{AddKeywords: []KeywordPatch{{Node: 0, Keywords: []string{"cava"}}}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Suggest("ca", 10); !slices.Equal(got, []Suggestion{{"cafe", 1}, {"cava", 1}}) {
		t.Fatalf("Suggest(ca) after Patch = %v, want [{cafe 1} {cava 1}]", got)
	}
	if got := eng.Suggest("", 1); !slices.Equal(got, want[:1]) {
		t.Fatalf("Suggest(\"\", 1) = %v, want %v", got, want[:1])
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil); err == nil {
		t.Fatal("NewEngine(nil) succeeded")
	}
	if _, err := NewEngine(handCity(t, 0.7), &EngineConfig{Oracle: OracleKind(99)}); err == nil {
		t.Fatal("unknown oracle kind accepted")
	}
}

func TestEngineRejectsMismatchedDistIndex(t *testing.T) {
	path := writeIndex(t, t.TempDir(), handCity(t, 0.7), 0)
	if _, err := NewEngine(handCity(t, 0.1), &EngineConfig{DistIndexPath: path}); !errors.Is(err, apsp.ErrIndexFingerprint) {
		t.Fatalf("NewEngine err = %v, want ErrIndexFingerprint", err)
	}
}

func TestLoadGraphTextFacades(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	g, err := LoadGraphCSV(write("n.csv", "1,0,0,cafe\n2,1,1,jazz\n"), write("e.csv", "1,2,1,2\n2,1,2,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("CSV façade got %d/%d", g.NumNodes(), g.NumEdges())
	}
	g, err = LoadGraphOSM(write("x.tsv", "node\t1\t0\t0\tcafe\nnode\t2\t1\t1\nedge\t1\t2\t1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("OSM façade got %d/%d", g.NumNodes(), g.NumEdges())
	}
}
