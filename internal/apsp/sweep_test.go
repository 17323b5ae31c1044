package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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
		if ref.primary[v] > bound { // also: unreachable
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

// sweepTestGraphs: tied weights on a ring with chords, continuous weights on
// the same shape, and a sparse graph with disconnected parts.
func sweepTestGraphs(rng *rand.Rand) []*graph.Graph {
	return []*graph.Graph{
		randomTestGraph(rng, 30+rng.Intn(40), true),
		randomTestGraph(rng, 30+rng.Intn(40), false),
		sparseTestGraph(rng, 30+rng.Intn(40)),
	}
}

// TestSweepFormsAgree is the contract of the pooled Dijkstra: whatever form a
// sweep is computed and stored in — full and dense, truncated and compact, or
// run in a scratch a thousand other runs have been through — it is the
// reference sweep, bit for bit on primary, secondary and parent, at every
// node within its bound, and nothing beyond it.
func TestSweepFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	for trial := 0; trial < 4; trial++ {
		for gi, g := range sweepTestGraphs(rng) {
			n := g.NumNodes()
			// Kept out of the pool: this test owns its history — a thousand
			// runs, every fourth one a frontier closed part way, with labels
			// still queued.
			worn := getScratch(n)
			for i := 0; i < 1000; i++ {
				root, m, reverse := graph.NodeID(rng.Intn(n)), Metric(rng.Intn(2)), rng.Intn(2) == 0
				if i%4 != 0 {
					worn.run(g, root, m, reverse, float64(rng.Intn(8)))
					continue
				}
				worn.start(g, root, m, reverse)
				for k := rng.Intn(n); k > 0 && worn.step(math.Inf(1)); k-- {
				}
			}
			for _, m := range []Metric{ByObjective, ByBudget} {
				for _, reverse := range []bool{false, true} {
					root := graph.NodeID(rng.Intn(n))
					ref := referenceSweep(g, root, m, reverse)
					name := fmt.Sprintf("trial %d graph %d metric %d reverse %v root %d", trial, gi, m, reverse, root)

					full := dijkstra(g, root, m, reverse)
					if full.slots != nil || !reflect.DeepEqual(full, ref) {
						t.Fatalf("%s: the full sweep is not the dense reference", name)
					}
					// A bound below 0 still settles the root: it is radius 0.
					for _, bound := range []float64{-1, math.NaN(), 0, 1.5, 3, 6, 1e9} {
						s := dijkstraBounded(g, root, m, reverse, bound)
						if !(bound >= 0) {
							bound = 0
						}
						if s.slots == nil {
							t.Fatalf("%s bound %v: a truncated sweep is not compact", name, bound)
						}
						if msg := sameWithin(s, ref, root, bound); msg != "" {
							t.Fatalf("%s bound %v: %s", name, bound, msg)
						}
						worn.run(g, root, m, reverse, bound)
						if !reflect.DeepEqual(worn.compact(), s) {
							t.Fatalf("%s bound %v: a worn scratch produced a different sweep", name, bound)
						}
					}
				}
			}
		}
	}
}

// TestSweepPoolConcurrent: eight goroutines drawing scratches from the one
// pool get the sweeps they would get alone. Run with -race.
func TestSweepPoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2302))
	g := randomTestGraph(rng, 80, true)
	n := g.NumNodes()
	type job struct {
		root    graph.NodeID
		m       Metric
		reverse bool
		bound   float64
		want    *sweep
	}
	jobs := make([]job, 64)
	for i := range jobs {
		j := job{root: graph.NodeID(rng.Intn(n)), m: Metric(rng.Intn(2)), reverse: rng.Intn(2) == 0, bound: float64(rng.Intn(10))}
		if i%8 == 0 {
			j.bound = math.Inf(1)
		}
		j.want = dijkstraBounded(g, j.root, j.m, j.reverse, j.bound)
		if msg := sameWithin(j.want, referenceSweep(g, j.root, j.m, j.reverse), j.root, j.bound); msg != "" {
			t.Fatalf("job %d: %s", i, msg)
		}
		jobs[i] = j
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, i := range order {
					j := jobs[i]
					if got := dijkstraBounded(g, j.root, j.m, j.reverse, j.bound); !reflect.DeepEqual(got, j.want) {
						t.Errorf("job %d: a pooled scratch produced a different sweep", i)
						return
					}
				}
			}
		}(rng.Perm(len(jobs)))
	}
	wg.Wait()
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
