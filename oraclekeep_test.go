package kor

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// Tests for oracle reuse across keyword-only updates: τ and σ depend only
// on the edges, so a Patch or Swap that changes keywords alone keeps the
// current oracle — the persistent index, the matrix, the lazy oracle or the
// degraded fallback — while an edge change still rebuilds or degrades.

// oracleConfigs are the three ways an engine serves τ/σ. Each builds its
// config for g, writing the distance index when it needs one.
var oracleConfigs = []struct {
	name string
	kind string
	cfg  func(t *testing.T, g *Graph) *EngineConfig
}{
	{"disk", OracleKindPartitionedDisk, func(t *testing.T, g *Graph) *EngineConfig {
		path := filepath.Join(t.TempDir(), "dist.kori")
		if _, err := WriteDistIndex(path, g, 0); err != nil {
			t.Fatalf("WriteDistIndex: %v", err)
		}
		return &EngineConfig{DistIndexPath: path}
	}},
	{"matrix", OracleKindMatrix, func(*testing.T, *Graph) *EngineConfig { return &EngineConfig{Oracle: OracleDense} }},
	{"lazy", OracleKindLazy, func(*testing.T, *Graph) *EngineConfig { return &EngineConfig{Oracle: OracleLazy} }},
}

// TestKeywordPatchKeepsOracle: a keyword-only Patch, and a Swap to a graph
// with the same edges, leave the searcher on the very same oracle, and the
// answers follow the new keywords.
func TestKeywordPatchKeepsOracle(t *testing.T) {
	for _, oc := range oracleConfigs {
		t.Run(oc.name, func(t *testing.T) {
			g := swapCity(t, 0.7)
			eng, err := NewEngine(g, oc.cfg(t, g))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer eng.Close()
			settle(eng) // the matrix row keeps the published tables
			before := eng.snap.Load().searcher.Oracle()

			// Node 1 no longer offers jazz: the best route now detours
			// through the museum, 0→3→2 at 0.9+0.4.
			info, err := eng.Patch(Delta{RemoveKeywords: []KeywordPatch{{Node: 1, Keywords: []string{"jazz"}}}})
			if err != nil {
				t.Fatalf("Patch: %v", err)
			}
			if info.Fingerprint == g.Fingerprint() {
				t.Fatal("keyword patch kept the snapshot fingerprint")
			}
			if after := eng.snap.Load().searcher.Oracle(); after != before {
				t.Fatalf("keyword patch replaced the oracle %p with %p", before, after)
			}
			if ost := eng.OracleStatus(); ost.Kind != oc.kind || ost.Degraded {
				t.Fatalf("OracleStatus after keyword patch = %+v, want %s, not degraded", ost, oc.kind)
			}
			resp, err := eng.Run(context.Background(), swapRequest())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := resp.Best().Objective; got != 0.9+0.4 {
				t.Fatalf("objective after keyword patch = %v, want %v", got, 0.9+0.4)
			}

			// Swapping the original graph back: same edges, same oracle.
			if _, err := eng.Swap(swapCity(t, 0.7)); err != nil {
				t.Fatalf("Swap: %v", err)
			}
			if after := eng.snap.Load().searcher.Oracle(); after != before {
				t.Fatalf("same-edge swap replaced the oracle %p with %p", before, after)
			}

			// An edge patch still replaces it.
			if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
				t.Fatalf("edge Patch: %v", err)
			}
			if after := eng.snap.Load().searcher.Oracle(); after == before {
				t.Fatal("edge patch kept the oracle built for the old edges")
			}
			resp, err = eng.Run(context.Background(), swapRequest())
			if err != nil {
				t.Fatalf("Run after edge patch: %v", err)
			}
			if got := resp.Best().Objective; got != 0.4 {
				t.Fatalf("objective after edge patch = %v, want 0.4", got)
			}
		})
	}
}

// TestKeywordPatchKeepsDegradedEpisode: on a degraded disk-index engine a
// keyword patch keeps the lazy fallback, the flag and the episode's onset;
// restoring the index's edges ends the episode even though the keywords
// still differ from the graph the index was built for.
func TestKeywordPatchKeepsDegradedEpisode(t *testing.T) {
	g := swapCity(t, 0.7)
	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: buildDistIndex(t, g)})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	// A keyword patch before any edge change keeps the index.
	if _, err := eng.Patch(Delta{AddKeywords: []KeywordPatch{{Node: 2, Keywords: []string{"fountain"}}}}); err != nil {
		t.Fatalf("keyword Patch: %v", err)
	}
	if ost := eng.OracleStatus(); ost.Kind != OracleKindPartitionedDisk || ost.Degraded {
		t.Fatalf("OracleStatus after keyword patch = %+v, want the index", ost)
	}

	// An edge patch still degrades.
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatalf("edge Patch: %v", err)
	}
	first := eng.OracleStatus()
	if first.Kind != OracleKindLazy || !first.Degraded || first.DegradedSince.IsZero() {
		t.Fatalf("OracleStatus after edge patch = %+v, want degraded lazy", first)
	}
	fallback := eng.snap.Load().searcher.Oracle()

	if _, err := eng.Patch(Delta{RemoveKeywords: []KeywordPatch{{Node: 1, Keywords: []string{"jazz"}}}}); err != nil {
		t.Fatalf("keyword Patch while degraded: %v", err)
	}
	if ost := eng.OracleStatus(); ost != first {
		t.Fatalf("keyword patch while degraded moved OracleStatus from %+v to %+v", first, ost)
	}
	if after := eng.snap.Load().searcher.Oracle(); after != fallback {
		t.Fatalf("keyword patch while degraded replaced the fallback %p with %p", fallback, after)
	}
	resp, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 0→1→3→2 on the cheaper hotel→cafe edge, now that the cafe has no jazz.
	if got := resp.Best().Objective; got != 0.1+0.6+0.4 {
		t.Fatalf("objective while degraded = %v, want %v", got, 0.1+0.6+0.4)
	}

	// Restoring the edge returns to the index, keywords patched or not.
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.7, Budget: 1.2}}}); err != nil {
		t.Fatalf("restoring Patch: %v", err)
	}
	if ost := eng.OracleStatus(); ost.Kind != OracleKindPartitionedDisk || ost.Degraded || !ost.DegradedSince.IsZero() {
		t.Fatalf("OracleStatus after restoring the edges = %+v, want the index", ost)
	}
	if got := eng.Graph().Fingerprint(); got == g.Fingerprint() {
		t.Fatal("restored graph still carries the original keywords")
	}
}

// TestKeywordPatchesMatchRebuild is the differential check behind oracle
// reuse: after a seeded sequence of keyword-only patches, an engine still on
// its original oracle answers every query exactly as a fresh engine built
// on the patched graph — its distance index rebuilt from that graph.
func TestKeywordPatchesMatchRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replay in -short mode")
	}
	base := SyntheticRoadNetwork(11, 300)
	for _, oc := range oracleConfigs {
		t.Run(oc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			patched, err := NewEngine(base, oc.cfg(t, base))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer patched.Close()
			settle(patched)
			oracle := patched.snap.Load().searcher.Oracle()

			// Three keywords new to the vocabulary and five frequent ones.
			keywordPool := []string{"patch-a", "patch-b", "patch-c", "tag0000", "tag0001", "tag0002", "tag0005", "tag0010"}
			for round := 0; round < 8; round++ {
				// Queries between the patches warm the kept oracle the way
				// live traffic does.
				for i := 0; i < 4; i++ {
					answer(patched, randomRequest(rng, base, keywordPool))
				}
				if _, err := patched.Patch(randomKeywordDelta(rng, patched.Graph(), keywordPool)); err != nil {
					t.Fatalf("round %d: Patch: %v", round, err)
				}
				if patched.snap.Load().searcher.Oracle() != oracle {
					t.Fatalf("round %d: keyword patch replaced the oracle", round)
				}
			}

			g := patched.Graph()
			fresh, err := NewEngine(g, oc.cfg(t, g))
			if err != nil {
				t.Fatalf("NewEngine on the patched graph: %v", err)
			}
			defer fresh.Close()
			settle(fresh)
			if fresh.Snapshot().Fingerprint != patched.Snapshot().Fingerprint {
				t.Fatal("fresh and patched engines disagree on the graph")
			}

			algorithms := []Algorithm{AlgorithmBucketBound, AlgorithmOSScaling, AlgorithmGreedy, AlgorithmTopK}
			for i := 0; i < 96; i++ {
				req := randomRequest(rng, g, keywordPool)
				req.Algorithm = algorithms[i%len(algorithms)]
				if req.Algorithm == AlgorithmTopK {
					req.K = 3
				}
				want, got := answer(fresh, req), answer(patched, req)
				if got != want {
					t.Fatalf("%+v:\npatched engine: %s\nrebuilt engine: %s", req, got, want)
				}
			}
		})
	}
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

// answer renders what a query returns — routes with their scores, and the
// error — for a byte-wise comparison.
func answer(eng *Engine, req Request) string {
	resp, err := eng.Run(context.Background(), req)
	return fmt.Sprintf("algorithm=%s bound=%v routes=%+v err=%v", resp.Algorithm, resp.Bound, resp.Routes, err)
}
