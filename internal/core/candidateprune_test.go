package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kor/internal/apsp"
	"kor/internal/gen"
	"kor/internal/graph"
)

// Tests for the candidate prune: newPlan drops the strategy-2 candidates
// outside the (source, target) budget ellipse, on every oracle, and must
// answer exactly as if it kept them.

// unprune restores the candidate list newPlan selected before its prune —
// every node of the rare keyword whose σ into the target fits Δ and whose τ
// reaches it — and closes the source frontier, so that the candidate sweeps
// run unrestricted: the plan the prune must not change.
func unprune(p *plan) {
	if p.infreqBit >= 0 {
		p.infreq = nil
		for _, v := range p.postings[p.infreqBit] {
			if bsLT, ok := p.sigBudgetTo(v); ok && bsLT <= p.q.Budget {
				if osLT, _, ok := p.tauTo(v); ok {
					p.infreq = append(p.infreq, viaNode{node: v, osLT: osLT, bsLT: bsLT})
				}
			}
		}
	}
	if p.src != nil {
		p.src.Close()
		p.src = nil
	}
}

// runUnpruned runs a label algorithm over an unpruned plan.
func runUnpruned(s *Searcher, algo Algorithm, q Query, opts Options) (Result, error) {
	p, err := s.newPlan(context.Background(), q, opts)
	if err != nil {
		return Result{}, err
	}
	unprune(p)
	switch algo {
	case AlgorithmBucketBound:
		return p.runBucketBound()
	case AlgorithmExact:
		p.exact = true
	}
	return p.runOSScaling()
}

// candidateNodes lists a plan's strategy-2 candidates in plan order, and its
// infrequent keyword's bit.
func candidateNodes(p *plan) (via []graph.NodeID, infreqBit int) {
	for _, v := range p.infreq {
		via = append(via, v.node)
	}
	return via, p.infreqBit
}

// isSubsequence reports whether sub lists some of full's nodes in full's order.
func isSubsequence(sub, full []graph.NodeID) bool {
	i := 0
	for _, v := range full {
		if i < len(sub) && sub[i] == v {
			i++
		}
	}
	return i == len(sub)
}

// planCandidates builds the plan of q on o and returns its candidates, with
// the prune undone when unpruned is set.
func planCandidates(g *graph.Graph, o RouteOracle, q Query, opts Options, unpruned bool) (via []graph.NodeID, infreqBit int) {
	p, err := NewSearcher(g, o, nil).newPlan(context.Background(), q, opts)
	if err != nil {
		return nil, -1
	}
	defer p.close()
	if unpruned {
		unprune(p)
	}
	return candidateNodes(p)
}

// renderPruneOutcome is renderSweepOutcome plus each route's feasibility and
// coverage flags.
func renderPruneOutcome(res Result, err error) string {
	out := renderSweepOutcome(res, err)
	for _, r := range res.Routes {
		out += fmt.Sprintf("feasible=%v covers=%v ", r.Feasible, r.CoversAll)
	}
	return out
}

// TestCandidatePruneDifferential: over a seeded road network, a tied-weight
// and a disconnected graph, and a graph whose rare keyword engages strategy
// 2, OSScaling, BucketBound, Exact and KkR on the lazy oracle return, bit for
// bit, the routes, feasibility and errors of the same searches over plans
// whose unpruned candidate list is restored, from the same labels created,
// pruned and dequeued. The pruned lists keep the order of the full ones, and
// on the integer-weight graphs every oracle's list equals the lazy oracle's.
func TestCandidatePruneDifferential(t *testing.T) {
	type variant struct {
		algo Algorithm
		k    int
	}
	variants := []variant{{AlgorithmOSScaling, 1}, {AlgorithmBucketBound, 1}, {AlgorithmExact, 1}, {AlgorithmTopK, 3}}

	rng := rand.New(rand.NewSource(2904))
	road := gen.RoadNetwork(gen.RoadConfig{Seed: 23, Nodes: 800, SizeKm: 13})
	var roadQueries []Query
	for _, delta := range []float64{1.5, 3, 5, 8} {
		for i := 0; i < 5; i++ {
			roadQueries = append(roadQueries, roadQuery(rng, road, 2+i%2, delta))
		}
	}
	randomQueries := func(g *graph.Graph) []Query {
		qs := make([]Query, 40)
		for i := range qs {
			qs[i] = randomQuery(rng, g, 1+i%3)
		}
		return qs
	}
	rare := rareKeywordGraph(t, 300)
	rareSets := [][]graph.Term{
		terms(t, rare, "hiddengem"),
		terms(t, rare, "common", "hiddengem"),
		terms(t, rare, "shared", "hiddengem"),
	}
	var rareQueries []Query
	for i := 0; i < 40; i++ {
		rareQueries = append(rareQueries, Query{
			Source:   graph.NodeID(rng.Intn(rare.NumNodes())),
			Target:   graph.NodeID(rng.Intn(rare.NumNodes())),
			Keywords: rareSets[i%len(rareSets)],
			Budget:   4 + 12*rng.Float64(),
		})
	}
	tied, split := tiedGraph(rng, 60, 8), disconnectedGraph(rng, 30, 8)
	graphs := []struct {
		name    string
		g       *graph.Graph
		queries []Query
		exact   bool // integer weights: every oracle's sums agree bit for bit
	}{
		{"road", road, roadQueries, false},
		{"tied", tied, randomQueries(tied), true},
		{"disconnected", split, randomQueries(split), true},
		{"rare", rare, rareQueries, false},
	}

	var dropped, emptied, strategy2 int
	for _, gc := range graphs {
		g := gc.g
		var tables []RouteOracle
		if gc.exact {
			tables = []RouteOracle{apsp.NewMatrixOracle(g), apsp.NewPartitionedOracle(g, 8)}
		}
		for i, q := range gc.queries {
			opts := DefaultOptions()
			opts.MaxExpansions = 30_000 // exact must stop; where it stops is part of the answer
			name := fmt.Sprintf("%s query %d (Δ=%v)", gc.name, i, q.Budget)

			via, bit := planCandidates(g, apsp.NewLazyOracle(g), q, opts, false)
			fullVia, fullBit := planCandidates(g, apsp.NewLazyOracle(g), q, opts, true)
			if bit != fullBit || !isSubsequence(via, fullVia) {
				t.Fatalf("%s: pruned candidates %v (bit %d) are not an ordered part of %v (bit %d)",
					name, via, bit, fullVia, fullBit)
			}
			dropped += len(fullVia) - len(via)
			if len(via) == 0 && len(fullVia) > 0 {
				emptied++
			}
			for _, o := range tables {
				tv, tb := planCandidates(g, o, q, opts, false)
				if !slices.Equal(tv, via) || tb != bit {
					t.Fatalf("%s: %T plan candidates %v (bit %d), want the lazy oracle's %v (bit %d)",
						name, o, tv, tb, via, bit)
				}
			}

			for _, v := range variants {
				opts.K = v.k
				lazyOracle := apsp.NewLazyOracle(g)
				got, gotErr := NewSearcher(g, lazyOracle, nil).Run(context.Background(), v.algo, q, opts)
				want, wantErr := runUnpruned(NewSearcher(g, apsp.NewLazyOracle(g), nil), v.algo, q, opts)
				vname := fmt.Sprintf("%s %s k=%d", name, v.algo, v.k)
				if g, w := renderPruneOutcome(got, gotErr), renderPruneOutcome(want, wantErr); g != w {
					t.Fatalf("%s: the prune changed the answer:\n got %s\nwant %s", vname, g, w)
				}
				gm, wm := got.Metrics, want.Metrics
				gm.PlanSweeps, gm.SharedSweeps, wm.PlanSweeps, wm.SharedSweeps = 0, 0, 0, 0
				if gm != wm {
					t.Fatalf("%s: the prune changed the search:\n got %+v\nwant %+v", vname, gm, wm)
				}
				if open, _ := lazyOracle.FrontierStats(); open != 0 {
					t.Fatalf("%s: %d frontiers left open", vname, open)
				}
				strategy2 += got.Metrics.PrunedStrategy2
			}
		}
	}
	if dropped < 20 || emptied == 0 || strategy2 == 0 {
		t.Fatalf("%d candidates dropped, %d strategy-2 lists emptied, %d strategy-2 prunes: the queries no longer exercise the prune",
			dropped, emptied, strategy2)
	}
}

// TestCandidatePruneSettlesOnDemand: on a lazy oracle the prune's source
// frontier keeps what asking a fresh frontier, candidate by candidate in
// plan order, whether each lies within its own limit keeps, and settles
// exactly as many nodes: never past the widest limit of a candidate not
// settled yet.
func TestCandidatePruneSettlesOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(2905))
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 23, Nodes: 800, SizeKm: 13})
	oracle := apsp.NewLazyOracle(g)
	s := NewSearcher(g, oracle, nil)
	checked, dropped := 0, 0
	for i := 0; i < 160; i++ {
		q := roadQuery(rng, g, 2+i%2, []float64{1.5, 3, 5, 8}[i%4])
		p, err := s.newPlan(context.Background(), q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.newPlan(context.Background(), q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		unprune(full)
		if p.src != nil {
			ref := oracle.Frontier(q.Source, apsp.ByBudget, true)
			limit := q.Budget + sweepSlack*q.Budget
			var want []graph.NodeID
			for _, via := range full.infreq {
				if ref.Within(via.node, limit-via.bsLT) {
					want = append(want, via.node)
				}
			}
			got, _ := candidateNodes(p)
			if !slices.Equal(got, want) || len(p.src.Order()) != len(ref.Order()) {
				t.Fatalf("query %d (%+v): prune kept %v settling %d nodes; per-candidate frontier keeps %v settling %d",
					i, q, got, len(p.src.Order()), want, len(ref.Order()))
			}
			ref.Close()
			checked++
			dropped += len(full.infreq) - len(got)
		}
		p.close()
		full.close()
	}
	if checked < 20 || dropped < 10 {
		t.Fatalf("%d plans pruned, %d candidates dropped: the queries no longer exercise the prune", checked, dropped)
	}
}

// BenchmarkLabelLazy is OSScaling and BucketBound on one lazy oracle over
// benchQueries. sweeps/op, the oracle's Dijkstra runs, and settled/op, the
// nodes its sweeps and frontiers settled, are the deterministic work
// counters (over whole passes of the 256 queries).
func BenchmarkLabelLazy(b *testing.B) {
	g, queries := benchQueries()
	for _, algo := range []Algorithm{AlgorithmOSScaling, AlgorithmBucketBound} {
		b.Run(string(algo), func(b *testing.B) {
			oracle := apsp.NewLazyOracle(g)
			s := NewSearcher(g, oracle, nil)
			opts := DefaultOptions()
			settled := func() int64 {
				_, frontiers := oracle.FrontierStats()
				return oracle.SweepSettled() + frontiers
			}
			sweeps, nodes := oracle.SweepCount(), settled()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = s.Run(context.Background(), algo, queries[i%len(queries)], opts)
			}
			b.StopTimer()
			b.ReportMetric(float64(oracle.SweepCount()-sweeps)/float64(b.N), "sweeps/op")
			b.ReportMetric(float64(settled()-nodes)/float64(b.N), "settled/op")
		})
	}
}

// BenchmarkLabelIndexed is BenchmarkLabelLazy's queries on one in-memory
// partitioned oracle per algorithm, whose slice memo starts empty. Over
// whole passes of the 256 queries B/op is the work counter: it is what the
// queries' slices come to hold, so it counts the cells and nodes the target
// and its strategy-2 candidates are read in, and the candidates the prune
// keeps. resident-MiB is the slice memo's residency after the last query.
func BenchmarkLabelIndexed(b *testing.B) {
	g, queries := benchQueries()
	for _, algo := range []Algorithm{AlgorithmOSScaling, AlgorithmBucketBound} {
		b.Run(string(algo), func(b *testing.B) {
			oracle := apsp.NewPartitionedOracle(g, apsp.DefaultCellSize)
			s := NewSearcher(g, oracle, nil)
			opts := DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = s.Run(context.Background(), algo, queries[i%len(queries)], opts)
			}
			b.StopTimer()
			b.ReportMetric(float64(oracle.MemoStats().ResidentBytes)/(1<<20), "resident-MiB")
		})
	}
}
