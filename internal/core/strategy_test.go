package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kor/internal/graph"
)

// rareKeywordGraph builds a graph where one query keyword is genuinely
// infrequent — below the 1% document-frequency threshold — so optimization
// strategy 2 actually engages (the synthetic benchmark workloads use
// frequent keywords and never trigger it; this fixture covers the code
// path).
func rareKeywordGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	// Exactly two nodes carry the rare keyword.
	rare1 := graph.NodeID(n / 3)
	rare2 := graph.NodeID(2 * n / 3)
	b2 := graph.NewBuilder()
	for i := 0; i < n; i++ {
		kws := []string{"common"}
		if rng.Intn(3) == 0 {
			kws = append(kws, "shared")
		}
		if graph.NodeID(i) == rare1 || graph.NodeID(i) == rare2 {
			kws = append(kws, "hiddengem")
		}
		b2.AddNode(kws...)
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		if err := b2.AddEdge(graph.NodeID(i), graph.NodeID(next), 0.2+rng.Float64(), 0.2+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := b2.AddEdge(graph.NodeID(next), graph.NodeID(i), 0.2+rng.Float64(), 0.2+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			j := rng.Intn(n)
			if j != i {
				_ = b2.AddEdge(graph.NodeID(i), graph.NodeID(j), 0.2+rng.Float64(), 0.5+2*rng.Float64())
			}
		}
	}
	return b2.MustBuild()
}

// TestStrategy2EngagesOnRareKeywords verifies that the infrequent-keyword
// pruning fires, and that pruning never changes feasibility or breaks the
// approximation bound.
func TestStrategy2EngagesOnRareKeywords(t *testing.T) {
	g := rareKeywordGraph(t, 300)
	s := searcherFor(t, g, false)
	kws := terms(t, g, "common", "hiddengem")

	engaged := false
	for _, budget := range []float64{6, 10, 16} {
		for srcSeed := 0; srcSeed < 6; srcSeed++ {
			q := Query{
				Source:   graph.NodeID(srcSeed * 41 % g.NumNodes()),
				Target:   graph.NodeID((srcSeed*97 + 13) % g.NumNodes()),
				Keywords: kws,
				Budget:   budget,
			}
			if q.Source == q.Target {
				continue
			}
			withS2 := DefaultOptions()
			withoutS2 := DefaultOptions()
			withoutS2.DisableStrategy2 = true

			resWith, errWith := s.OSScaling(q, withS2)
			resWithout, errWithout := s.OSScaling(q, withoutS2)
			if (errWith == nil) != (errWithout == nil) {
				t.Fatalf("Δ=%v src=%d: strategy 2 changed feasibility: %v vs %v",
					budget, q.Source, errWith, errWithout)
			}
			if errWith != nil {
				continue
			}
			if resWith.Metrics.PrunedStrategy2 > 0 {
				engaged = true
			}
			// Both must respect the bound versus exact.
			exact, errE := s.Exact(q, DefaultOptions())
			if errE != nil {
				t.Fatalf("exact failed where OSScaling succeeded: %v", errE)
			}
			bound := exact.Best().Objective/(1-withS2.Epsilon) + 1e-9
			for name, r := range map[string]Result{"with": resWith, "without": resWithout} {
				if r.Best().Objective > bound {
					t.Fatalf("Δ=%v src=%d %s-s2: %v breaks bound %v",
						budget, q.Source, name, r.Best().Objective, bound)
				}
				verifyRoute(t, g, q, r.Best(), fmt.Sprintf("Δ=%v src=%d %s", budget, q.Source, name))
			}
		}
	}
	if !engaged {
		t.Error("strategy 2 never pruned a label on the rare-keyword workload")
	}
}
