package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// dijkstra runs a full, dense two-criteria Dijkstra from root: the serving
// sweep with no bound.
func dijkstra(g *graph.Graph, root graph.NodeID, m Metric, reverse bool) *sweep {
	return dijkstraBounded(g, root, m, reverse, math.Inf(1))
}

// referenceSweep is the textbook two-criteria Dijkstra the pooled one must
// reproduce bit for bit: dense arrays, no queue — each round settles the
// unsettled node that is least under (primary, secondary, node ID), the order
// the queue pops in — and no bound.
func referenceSweep(g *graph.Graph, root graph.NodeID, m Metric, reverse bool) *sweep {
	n := g.NumNodes()
	s := &sweep{primary: make([]float64, n), secondary: make([]float64, n), parent: make([]int32, n)}
	for i := range s.primary {
		s.primary[i], s.secondary[i], s.parent[i] = math.Inf(1), math.Inf(1), noParent
	}
	s.primary[root], s.secondary[root] = 0, 0
	adj := g.Out
	if reverse {
		adj = g.In
	}
	done := make([]bool, n)
	for {
		u := -1
		for v := 0; v < n; v++ {
			if done[v] || math.IsInf(s.primary[v], 1) {
				continue
			}
			if u < 0 || s.primary[v] < s.primary[u] || (s.primary[v] == s.primary[u] && s.secondary[v] < s.secondary[u]) {
				u = v
			}
		}
		if u < 0 {
			return s
		}
		done[u] = true
		for _, e := range adj(graph.NodeID(u)) {
			p, sec := s.primary[u]+e.Budget, s.secondary[u]+e.Objective
			if m == ByObjective {
				p, sec = s.primary[u]+e.Objective, s.secondary[u]+e.Budget
			}
			if v := e.To; p < s.primary[v] || (p == s.primary[v] && sec < s.secondary[v]) {
				s.primary[v], s.secondary[v], s.parent[v] = p, sec, int32(u)
			}
		}
	}
}

// sameWithin checks got against the reference at every node: identical
// primary, secondary, parent and walk where the reference is within bound,
// unreached everywhere else.
func sameWithin(got, ref *sweep, root graph.NodeID, bound float64) string {
	within := 0
	for v := graph.NodeID(0); int(v) < len(ref.primary); v++ {
		i := got.pos(v)
		if math.IsInf(ref.primary[v], 1) || ref.primary[v] > bound {
			if i >= 0 {
				return fmt.Sprintf("node %d reported at %v, past the bound %v", v, got.primary[i], bound)
			}
			continue
		}
		within++
		if i < 0 {
			return fmt.Sprintf("node %d at %v missing within the bound %v", v, ref.primary[v], bound)
		}
		if got.primary[i] != ref.primary[v] || got.secondary[i] != ref.secondary[v] || got.parent[i] != ref.parent[v] {
			return fmt.Sprintf("node %d: (%v, %v, parent %d), want (%v, %v, parent %d)", v,
				got.primary[i], got.secondary[i], got.parent[i], ref.primary[v], ref.secondary[v], ref.parent[v])
		}
		gotPath, _ := walkReverse(got, root, v)
		if wantPath, _ := walkReverse(ref, root, v); !slices.Equal(gotPath, wantPath) {
			return fmt.Sprintf("node %d: walk %v, want %v", v, gotPath, wantPath)
		}
	}
	if got.count() != within {
		return fmt.Sprintf("sweep reports %d nodes, %d lie within the bound", got.count(), within)
	}
	return ""
}

// sweepBenchRoots: the bench road network (8,000 nodes on a 40 km plane) and
// 256 seeded roots.
func sweepBenchRoots() (*graph.Graph, []graph.NodeID) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 8000})
	rng := rand.New(rand.NewSource(1))
	roots := make([]graph.NodeID, 256)
	for i := range roots {
		roots[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	return g, roots
}

func benchmarkSweep(b *testing.B, bound float64) {
	g, roots := sweepBenchRoots()
	settled := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		settled += ReverseBoundedSweep(g, roots[i%len(roots)], ByBudget, bound).s.count()
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}

// BenchmarkSweepBall is one candidate sweep of the bench road-uniform stream:
// reverse σ truncated at Δ = 9 km. settled/op is the deterministic work
// counter (over whole passes of the 256 roots); B/op must follow it, not |V|.
func BenchmarkSweepBall(b *testing.B) { benchmarkSweep(b, 9) }

// BenchmarkSweepFull is the same sweep without a bound: what a table build
// runs per row and Greedy per waypoint.
func BenchmarkSweepFull(b *testing.B) { benchmarkSweep(b, math.Inf(1)) }
