package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kor/internal/apsp"
	"kor/internal/gen"
	"kor/internal/graph"
)

// Tests for the budget-derived sweep bounds: on a lazy oracle a plan reads
// sweeps truncated at what its query can still reach — σ(·,t) at Δ, τ(·,t) as
// far as that σ sweep goes, σ(·,c) at Δ−σ(c,t) — and must answer exactly as
// if every sweep were full.

// fullSweepOracle is a lazy oracle without the OnDemand capability: plans
// over it go through the pair interface, which only ever reads full sweeps.
type fullSweepOracle struct{ o *apsp.LazyOracle }

func (f fullSweepOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	return f.o.MinObjective(from, to)
}
func (f fullSweepOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return f.o.MinBudget(from, to)
}
func (f fullSweepOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return f.o.MinObjectivePath(from, to)
}
func (f fullSweepOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return f.o.MinBudgetPath(from, to)
}
func (f fullSweepOracle) PrefetchSource(from graph.NodeID) { f.o.PrefetchSource(from) }
func (f fullSweepOracle) PrefetchTarget(to graph.NodeID)   { f.o.PrefetchTarget(to) }

// roadQuery draws a query the way the serving benchmark does: endpoints
// within 0.45·Δ crow distance, keywords off the nodes of a random
// neighbourhood so that most queries are feasible.
func roadQuery(rng *rand.Rand, g *graph.Graph, m int, delta float64) Query {
	n := g.NumNodes()
	q := Query{Source: graph.NodeID(rng.Intn(n)), Budget: delta}
	for {
		q.Target = graph.NodeID(rng.Intn(n))
		if g.Position(q.Source).Euclidean(g.Position(q.Target)) <= 0.45*delta {
			break
		}
	}
	for len(q.Keywords) < m {
		ts := g.Terms(graph.NodeID(rng.Intn(n)))
		if len(ts) == 0 {
			continue
		}
		if t := ts[rng.Intn(len(ts))]; !slices.Contains(q.Keywords, t) {
			q.Keywords = append(q.Keywords, t)
		}
	}
	return q
}

// TestBoundedSweepsDifferential: over a seeded road network, budgets from
// tight to loose, all six registry algorithms, Greedy in both modes at both
// widths — the lazy oracle's bounded sweeps return, bit for bit, the node
// sequences, scores and errors of the same oracle reading full sweeps only,
// from the same number of labels created, pruned and jumped, and agree with
// the dense tables (whose forward sweeps sum each path from the other end)
// up to floating-point association.
func TestBoundedSweepsDifferential(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 23, Nodes: 800, SizeKm: 13})
	matrix := NewSearcher(g, apsp.NewMatrixOracle(g), nil)

	type variant struct {
		name string
		algo Algorithm
		opts func(*Options)
	}
	variants := []variant{
		{"bucketbound", AlgorithmBucketBound, func(*Options) {}},
		{"osscaling", AlgorithmOSScaling, func(*Options) {}},
		{"topk", AlgorithmTopK, func(o *Options) { o.K = 3 }},
		{"exact", AlgorithmExact, func(*Options) {}},
		{"bruteforce", AlgorithmBruteForce, func(*Options) {}},
	}
	for _, budgetFirst := range []bool{false, true} {
		for _, width := range []int{1, 2} {
			variants = append(variants, variant{
				fmt.Sprintf("greedy-%d-budgetfirst=%v", width, budgetFirst), AlgorithmGreedy,
				func(o *Options) { o.Width, o.BudgetPriority = width, budgetFirst },
			})
		}
	}

	rng := rand.New(rand.NewSource(2303))
	answered, failed := 0, 0
	for _, delta := range []float64{1.5, 3, 5, 8} {
		for i := 0; i < 5; i++ {
			q := roadQuery(rng, g, 2+i%2, delta)
			for _, v := range variants {
				opts := DefaultOptions()
				opts.MaxExpansions = 30_000 // exact and brute force must stop; where they stop is part of the answer
				v.opts(&opts)
				// Fresh oracles, so that what one search left resident cannot
				// change which sweep answers another's pair lookups.
				lazy := NewSearcher(g, apsp.NewLazyOracle(g), nil)
				full := NewSearcher(g, fullSweepOracle{apsp.NewLazyOracle(g)}, nil)
				got, gotErr := lazy.Run(context.Background(), v.algo, q, opts)
				want, wantErr := full.Run(context.Background(), v.algo, q, opts)
				name := fmt.Sprintf("Δ=%v query %d %s", delta, i, v.name)
				if g, w := renderSweepOutcome(got, gotErr), renderSweepOutcome(want, wantErr); g != w {
					t.Fatalf("%s: bounded sweeps diverged from full sweeps:\n got %s\nwant %s", name, g, w)
				}
				// The searches took the same decisions label for label: a sweep
				// cut too short would prune or jump differently before it ever
				// changed an answer.
				gm := got.Metrics
				gm.PlanSweeps, gm.SharedSweeps = 0, 0
				if gm != want.Metrics {
					t.Fatalf("%s: work counters diverged from full sweeps:\n got %+v\nwant %+v", name, gm, want.Metrics)
				}
				dense, denseErr := matrix.Run(context.Background(), v.algo, q, opts)
				if msg := sameOutcome(got, gotErr, dense, denseErr); msg != "" {
					t.Fatalf("%s: lazy and matrix oracle disagree: %s", name, msg)
				}
				if gotErr == nil {
					answered++
				} else {
					failed++
				}
			}
		}
	}
	if answered < 40 || failed < 10 {
		t.Fatalf("%d answers and %d errors: the query mix no longer exercises both", answered, failed)
	}
}

// sameOutcome compares two search outcomes: same error, same routes node for
// node, scores equal up to the association of their floating-point sums.
func sameOutcome(a Result, aErr error, b Result, bErr error) string {
	if (aErr == nil) != (bErr == nil) || (aErr != nil && aErr.Error() != bErr.Error()) {
		return fmt.Sprintf("errors %v / %v", aErr, bErr)
	}
	if len(a.Routes) != len(b.Routes) {
		return fmt.Sprintf("%d routes / %d routes", len(a.Routes), len(b.Routes))
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(x)) }
	for i := range a.Routes {
		ra, rb := a.Routes[i], b.Routes[i]
		if !slices.Equal(ra.Nodes, rb.Nodes) || !near(ra.Objective, rb.Objective) || !near(ra.Budget, rb.Budget) {
			return fmt.Sprintf("route %d: %v / %v", i, ra, rb)
		}
	}
	return ""
}

// TestBoundedSweepsHoldWhatTheyReach is the work assertion through the public
// counters: after one OSScaling query on a fresh lazy oracle over the bench
// road network (8,000 nodes, Δ = 9), the sweeps the query left resident are
// charged less than a quarter of what as many full-graph vectors cost.
func TestBoundedSweepsHoldWhatTheyReach(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 8000})
	oracle := apsp.NewLazyOracle(g)
	s := NewSearcher(g, oracle, nil)
	q := roadQuery(rand.New(rand.NewSource(1)), g, 4, 9)
	res, err := s.OSScaling(q, DefaultOptions())
	if err != nil {
		t.Fatalf("OSScaling: %v", err)
	}
	st := oracle.MemoStats()
	if st.Entries < 10 || res.Metrics.PlanSweeps < 8 {
		t.Fatalf("%d resident sweeps, %d plan sweeps: the query did not exercise candidate sweeps", st.Entries, res.Metrics.PlanSweeps)
	}
	fullVector := int64(g.NumNodes()) * (8 + 8 + 4) // apsp's sweepBytes: two scores and a parent per node
	if dense := int64(st.Entries) * fullVector; st.ResidentBytes*4 >= dense {
		t.Fatalf("%d sweeps hold %d bytes; as full-graph vectors they would hold %d", st.Entries, st.ResidentBytes, dense)
	}
}

// TestStrategy2ViaPastUpperBound: a strategy-2 keyword node whose τ tail into
// the target alone exceeds the upper bound U makes the plan ask for a τ sweep
// at a negative bound, U − OS(τ(via,t)). Such a sweep holds its root and
// nothing else, and the search goes on to the next keyword node.
func TestStrategy2ViaPastUpperBound(t *testing.T) {
	b := graph.NewBuilder()
	src := b.AddNode()
	far := b.AddNode("rare") // cheap in budget, ruinous in objective
	near := b.AddNode("rare")
	mid := b.AddNode()
	dst := b.AddNode()
	for _, e := range []struct {
		from, to graph.NodeID
		os, bs   float64
	}{
		{src, near, 1, 1}, {near, dst, 1, 1}, // found first: U = 2
		{src, mid, 0.5, 0.5}, {mid, dst, 0.5, 0.5}, // a label without "rare" that survives the bound check
		{mid, far, 1, 1}, {far, dst, 100, 1}, {mid, near, 0.5, 0.5},
		{src, far, 1, 1},
	} {
		if err := b.AddEdge(e.from, e.to, e.os, e.bs); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	rare, _ := g.Vocab().Lookup("rare")
	q := Query{Source: src, Target: dst, Keywords: []graph.Term{rare}, Budget: 10}
	opts := DefaultOptions()
	opts.InfrequentFraction = 1 // five nodes: make the one keyword "infrequent"

	matrix := NewSearcher(g, apsp.NewMatrixOracle(g), nil)
	for _, algo := range []Algorithm{AlgorithmOSScaling, AlgorithmTopK, AlgorithmExact} {
		oracle := apsp.NewLazyOracle(g)
		got, gotErr := NewSearcher(g, oracle, nil).Run(context.Background(), algo, q, opts)
		want, wantErr := matrix.Run(context.Background(), algo, q, opts)
		if msg := sameOutcome(got, gotErr, want, wantErr); msg != "" {
			t.Fatalf("%s: lazy and matrix oracle disagree: %s", algo, msg)
		}
		if gotErr != nil || got.Routes[0].Objective != 2 {
			t.Fatalf("%s: %v, %v; want the route through the near keyword node", algo, got.Routes, gotErr)
		}
		// The plan's own request left the sweep resident, and it is root-only.
		sw, shared := oracle.ReverseSweep(far, apsp.ByObjective, -1)
		if _, _, ok := sw.Scores(mid); !shared || ok {
			t.Fatalf("%s: τ sweep into the far keyword node: resident %v, reaches past its root %v — the scenario no longer asks for a negative bound", algo, shared, ok)
		}
		if _, _, ok := sw.Scores(far); !ok {
			t.Fatalf("%s: a root-only sweep must still reach its root", algo)
		}
	}
}
