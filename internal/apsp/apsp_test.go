package apsp

import (
	"math"
	"math/rand"
	"testing"

	"kor/internal/graph"
)

// buildPaperGraph reconstructs the Figure-1 example graph of the paper, as
// derived from Examples 1–2, Table 1 and the pre-processing examples in
// §3.1. Edge tuples are (objective, budget).
func buildPaperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 8; i++ {
		b.AddNode()
	}
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
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return b.MustBuild()
}

// TestPaperPreprocessingExamples checks the exact τ/σ values §3.1 reports
// for the Figure-1 graph: τ(0,7) = ⟨v0,v3,v4,v7⟩ with OS 4, BS 7 and
// σ(0,7) = ⟨v0,v3,v5,v7⟩ with OS 9, BS 5, plus the values used in Example 2.
func TestPaperPreprocessingExamples(t *testing.T) {
	g := buildPaperGraph(t)
	oracles := map[string]interface {
		Oracle
		PathMaterializer
	}{
		"matrix": NewMatrixOracle(g),
		"lazy":   NewLazyOracle(g),
	}
	for name, o := range oracles {
		os, bs, ok := o.MinObjective(0, 7)
		if !ok || os != 4 || bs != 7 {
			t.Errorf("%s: τ(0,7) = (%v,%v,%v), want (4,7,true)", name, os, bs, ok)
		}
		os, bs, ok = o.MinBudget(0, 7)
		if !ok || os != 9 || bs != 5 {
			t.Errorf("%s: σ(0,7) = (%v,%v,%v), want (9,5,true)", name, os, bs, ok)
		}
		// Example 2 step (b): BS(σ(6,7)) = 7.
		if _, bs, ok = o.MinBudget(6, 7); !ok || bs != 7 {
			t.Errorf("%s: BS(σ(6,7)) = %v, want 7", name, bs)
		}
		// Example 2 step (c): OS(τ(3,7)) = 2, BS(τ(3,7)) = 5.
		if os, bs, ok = o.MinObjective(3, 7); !ok || os != 2 || bs != 5 {
			t.Errorf("%s: τ(3,7) = (%v,%v), want (2,5)", name, os, bs)
		}
		// Example 2 step (e): OS(τ(5,7)) = 3 with budget 4.
		if os, bs, ok = o.MinObjective(5, 7); !ok || os != 3 || bs != 4 {
			t.Errorf("%s: τ(5,7) = (%v,%v), want (3,4)", name, os, bs)
		}

		path, ok := o.MinObjectivePath(0, 7)
		if !ok || !equalPath(path, []graph.NodeID{0, 3, 4, 7}) {
			t.Errorf("%s: τ path = %v, want [0 3 4 7]", name, path)
		}
		path, ok = o.MinBudgetPath(0, 7)
		if !ok || !equalPath(path, []graph.NodeID{0, 3, 5, 7}) {
			t.Errorf("%s: σ path = %v, want [0 3 5 7]", name, path)
		}
	}

	part := NewPartitionedOracle(g, 3)
	if os, bs, ok := part.MinObjective(0, 7); !ok || os != 4 || bs != 7 {
		t.Errorf("partitioned: τ(0,7) = (%v,%v,%v)", os, bs, ok)
	}
	if os, bs, ok := part.MinBudget(0, 7); !ok || os != 9 || bs != 5 {
		t.Errorf("partitioned: σ(0,7) = (%v,%v,%v)", os, bs, ok)
	}
}

func equalPath(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfPair(t *testing.T) {
	g := buildPaperGraph(t)
	for _, o := range []Oracle{NewMatrixOracle(g), NewLazyOracle(g), NewPartitionedOracle(g, 4)} {
		os, bs, ok := o.MinObjective(3, 3)
		if !ok || os != 0 || bs != 0 {
			t.Errorf("%T: τ(v,v) = (%v,%v,%v)", o, os, bs, ok)
		}
		os, bs, ok = o.MinBudget(3, 3)
		if !ok || os != 0 || bs != 0 {
			t.Errorf("%T: σ(v,v) = (%v,%v,%v)", o, os, bs, ok)
		}
	}
	lazy := NewLazyOracle(g)
	p, ok := lazy.MinObjectivePath(2, 2)
	if !ok || len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v", p)
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder()
	v0, v1, v2 := b.AddNode(), b.AddNode(), b.AddNode()
	if err := b.AddEdge(v0, v1, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	for _, o := range []Oracle{NewMatrixOracle(g), NewLazyOracle(g), NewPartitionedOracle(g, 2)} {
		if _, _, ok := o.MinObjective(v1, v0); ok {
			t.Errorf("%T: τ(v1,v0) reachable on one-way edge", o)
		}
		if _, _, ok := o.MinBudget(v0, v2); ok {
			t.Errorf("%T: σ(v0,v2) reachable to isolated node", o)
		}
	}
	lazy := NewLazyOracle(g)
	if _, ok := lazy.MinObjectivePath(v1, v2); ok {
		t.Error("path to unreachable node returned ok")
	}
}

// randomTestGraph builds a connected-ish random graph without parallel
// edges. Weights are drawn from small integer grids when quantize is true,
// forcing score ties so the lexicographic tie-break is exercised.
func randomTestGraph(rng *rand.Rand, n int, quantize bool) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	seen := make(map[[2]graph.NodeID]bool)
	addEdge := func(from, to graph.NodeID) {
		if from == to || seen[[2]graph.NodeID{from, to}] {
			return
		}
		seen[[2]graph.NodeID{from, to}] = true
		var o, c float64
		if quantize {
			o = float64(1 + rng.Intn(4))
			c = float64(1 + rng.Intn(4))
		} else {
			o = 0.05 + rng.Float64()
			c = 0.05 + rng.Float64()
		}
		_ = b.AddEdge(from, to, o, c)
	}
	// Ring for connectivity, then random chords.
	for i := 0; i < n; i++ {
		addEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	for k := 0; k < 3*n; k++ {
		addEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestOraclesAgreeWithFloydWarshall is the cross-implementation property
// test: on random graphs (with deliberate ties), matrix, lazy and
// Floyd-Warshall must agree exactly on both scores; the partitioned oracle
// must agree on primary scores and produce a witness no worse on the
// secondary.
func TestOraclesAgreeWithFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(25)
		g := randomTestGraph(rng, n, trial%2 == 0)
		fwTau := floydWarshall(g, ByObjective)
		fwSig := floydWarshall(g, ByBudget)
		matrix := NewMatrixOracle(g)
		lazy := NewLazyOracle(g)
		part := NewPartitionedOracle(g, 5+rng.Intn(6))

		for i := graph.NodeID(0); int(i) < n; i++ {
			for j := graph.NodeID(0); int(j) < n; j++ {
				wantP, wantS, wantOK := fwTau.at(i, j)
				for name, o := range map[string]Oracle{"matrix": matrix, "lazy": lazy} {
					gotP, gotS, ok := o.MinObjective(i, j)
					if ok != wantOK || (ok && (!feq(gotP, wantP) || !feq(gotS, wantS))) {
						t.Fatalf("trial %d %s τ(%d,%d) = (%v,%v,%v), FW (%v,%v,%v)",
							trial, name, i, j, gotP, gotS, ok, wantP, wantS, wantOK)
					}
				}
				gotP, gotS, ok := part.MinObjective(i, j)
				if ok != wantOK || (ok && !feq(gotP, wantP)) {
					t.Fatalf("trial %d partitioned τ(%d,%d) primary = (%v,%v), FW %v",
						trial, i, j, gotP, ok, wantP)
				}
				if ok && gotS < wantS-1e-9 {
					t.Fatalf("trial %d partitioned τ(%d,%d) secondary %v below lexicographic optimum %v",
						trial, i, j, gotS, wantS)
				}

				wantP, wantS, wantOK = fwSig.at(i, j)
				for name, o := range map[string]Oracle{"matrix": matrix, "lazy": lazy} {
					gotS2, gotP2, ok := o.MinBudget(i, j) // returns (os, bs)
					if ok != wantOK || (ok && (!feq(gotP2, wantP) || !feq(gotS2, wantS))) {
						t.Fatalf("trial %d %s σ(%d,%d) = (%v,%v,%v), FW (%v,%v,%v)",
							trial, name, i, j, gotS2, gotP2, ok, wantS, wantP, wantOK)
					}
				}
				gotOS, gotBS, ok := part.MinBudget(i, j)
				if ok != wantOK || (ok && !feq(gotBS, wantP)) {
					t.Fatalf("trial %d partitioned σ(%d,%d) = (%v,%v,%v), FW primary %v",
						trial, i, j, gotOS, gotBS, ok, wantP)
				}
			}
		}
	}
}

func feq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// TestPathScoresMatchReportedScores verifies that materialized paths are
// real paths in the graph whose summed attributes equal the reported scores.
func TestPathScoresMatchReportedScores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTestGraph(rng, 30, false)
	lazy := NewLazyOracle(g)
	matrix := NewMatrixOracle(g)
	for trial := 0; trial < 200; trial++ {
		from := graph.NodeID(rng.Intn(g.NumNodes()))
		to := graph.NodeID(rng.Intn(g.NumNodes()))
		for name, o := range map[string]interface {
			Oracle
			PathMaterializer
		}{"lazy": lazy, "matrix": matrix} {
			wantOS, wantBS, ok := o.MinObjective(from, to)
			path, pok := o.MinObjectivePath(from, to)
			if ok != pok {
				t.Fatalf("%s: score ok=%v but path ok=%v", name, ok, pok)
			}
			if !ok {
				continue
			}
			gotOS, gotBS := pathScores(t, g, path, ByObjective)
			if !feq(gotOS, wantOS) || !feq(gotBS, wantBS) {
				t.Fatalf("%s: τ(%d,%d) path scores (%v,%v), reported (%v,%v)",
					name, from, to, gotOS, gotBS, wantOS, wantBS)
			}
		}
	}
}

// pathScores sums a path's attributes, resolving each hop to the edge a
// two-criteria search would pick under metric m.
func pathScores(t *testing.T, g *graph.Graph, path []graph.NodeID, m Metric) (os, bs float64) {
	t.Helper()
	for i := 1; i < len(path); i++ {
		bestO, bestB := math.Inf(1), math.Inf(1)
		found := false
		for _, e := range g.Out(path[i-1]) {
			if e.To != path[i] {
				continue
			}
			better := false
			if m == ByObjective {
				better = e.Objective < bestO || (e.Objective == bestO && e.Budget < bestB)
			} else {
				better = e.Budget < bestB || (e.Budget == bestB && e.Objective < bestO)
			}
			if !found || better {
				bestO, bestB = e.Objective, e.Budget
				found = true
			}
		}
		if !found {
			t.Fatalf("path hop %v→%v is not an edge", path[i-1], path[i])
		}
		os += bestO
		bs += bestB
	}
	return os, bs
}

func TestPartitionShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomTestGraph(rng, 120, false)
	o := NewPartitionedOracle(g, 16)
	if o.NumRegions() < 2 {
		t.Errorf("120 nodes with cell cap 16 produced %d regions", o.NumRegions())
	}
	if o.NumBorders() == 0 {
		t.Error("multi-region partition has no border nodes")
	}
	// Every node must be assigned exactly once.
	counts := make(map[graph.NodeID]int)
	for _, c := range o.cells {
		for _, v := range c.nodes {
			counts[v]++
		}
	}
	if len(counts) != g.NumNodes() {
		t.Fatalf("partition covers %d of %d nodes", len(counts), g.NumNodes())
	}
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("node %d appears in %d cells", v, c)
		}
	}
}

func BenchmarkLazyOracleQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomTestGraph(rng, 2000, false)
	o := NewLazyOracle(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.MinObjective(graph.NodeID(i%2000), graph.NodeID((i*7)%2000))
	}
}
