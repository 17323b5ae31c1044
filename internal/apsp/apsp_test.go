package apsp

import (
	"math/rand"
	"slices"
	"testing"

	"kor/internal/graph"
)

// buildPaperGraph reconstructs the Figure-1 example graph of the paper, as
// derived from Examples 1–2, Table 1 and the pre-processing examples in
// §3.1. Edge tuples are (objective, budget).
func buildPaperGraph() *graph.Graph {
	b := withNodes(8)
	edges := []struct {
		from, to graph.NodeID
		o, c     float64
	}{
		{0, 1, 4, 1}, {0, 2, 1, 3}, {0, 3, 2, 2},
		{2, 3, 3, 2}, {2, 6, 1, 1},
		{3, 1, 1, 2}, {3, 4, 1, 2}, {3, 5, 3, 2},
		{4, 7, 1, 3},
		{5, 4, 2, 1}, {5, 7, 4, 1},
		{6, 5, 2, 6},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

// TestPaperPreprocessingExamples checks the exact τ/σ values §3.1 reports
// for the Figure-1 graph, on every oracle: τ(0,7) = ⟨v0,v3,v4,v7⟩ with OS 4,
// BS 7 and σ(0,7) = ⟨v0,v3,v5,v7⟩ with OS 9, BS 5, plus the values Example 2
// uses: BS(σ(6,7)) = 7 (step b, over ⟨v6,v5,v7⟩ with OS 6), τ(3,7) = (2, 5)
// (step c) and OS(τ(5,7)) = 3 with budget 4 (step e).
func TestPaperPreprocessingExamples(t *testing.T) {
	want := []struct {
		from, to graph.NodeID
		m        Metric
		os, bs   float64
		path     []graph.NodeID
	}{
		{0, 7, ByObjective, 4, 7, []graph.NodeID{0, 3, 4, 7}},
		{0, 7, ByBudget, 9, 5, []graph.NodeID{0, 3, 5, 7}},
		{6, 7, ByBudget, 6, 7, []graph.NodeID{6, 5, 7}},
		{3, 7, ByObjective, 2, 5, []graph.NodeID{3, 4, 7}},
		{5, 7, ByObjective, 3, 4, []graph.NodeID{5, 4, 7}},
	}
	conform(t, "matrix lazy partitioned", func(c *confGraph) bool { return c.name == "paper" }, func(t *testing.T, c *confCase) {
		for _, w := range want {
			os, bs, ok := pairScores(c.o, w.m, w.from, w.to)
			path, _ := (&pairVector{c.o, w.to, w.m, false}).Walk(w.from)
			if !ok || os != w.os || bs != w.bs || !slices.Equal(path, w.path) {
				t.Errorf("metric %d %d→%d: (%v, %v, %v) over %v, want (%v, %v) over %v", w.m, w.from, w.to, os, bs, ok, path, w.os, w.bs, w.path)
			}
		}
	})
}

// TestPartitionShape: every partitioned form of every generator puts each
// node in exactly one cell of at most the cell size, at the position region
// and local name, and cuts a connected graph it splits at border nodes.
func TestPartitionShape(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) {
		seen := make([]int, c.g.NumNodes())
		for ci, cell := range c.part.cells {
			for l, v := range cell.nodes {
				if seen[v]++; int(c.part.region[v]) != ci || int(c.part.local[v]) != l || len(cell.nodes) > c.part.CellSize() {
					t.Fatalf("node %d at %d of cell %d (%d nodes): region %d, local %d", v, l, ci, len(cell.nodes), c.part.region[v], c.part.local[v])
				}
			}
		}
		if i := slices.IndexFunc(seen, func(k int) bool { return k != 1 }); i >= 0 {
			t.Fatalf("node %d appears in %d cells", i, seen[i])
		}
		if c.part.NumRegions() > 1 && c.name != "disconnected" && c.part.NumBorders() == 0 {
			t.Fatalf("%d regions and no border node", c.part.NumRegions())
		}
	})
}

func BenchmarkLazyOracleQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := ringGraph(rng, 2000, 3*2000)
	o := NewLazyOracle(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.MinObjective(graph.NodeID(i%2000), graph.NodeID((i*7)%2000))
	}
}
