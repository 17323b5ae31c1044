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
// For Greedy, forward is set and target is the query's: τ lookups not into
// the target are then answered off full forward sweeps out of their source,
// as Greedy's scan reads τ(waypoint, m) — a reverse sweep into m would sum
// the same path from the other end.
type fullSweepOracle struct {
	o       *apsp.LazyOracle
	target  graph.NodeID
	forward map[graph.NodeID]*apsp.Frontier // drained frontiers, by source
}

func (f fullSweepOracle) out(from, to graph.NodeID) *apsp.Frontier {
	if f.forward == nil || to == f.target {
		return nil
	}
	fr := f.forward[from]
	if fr == nil {
		fr = f.o.Frontier(from, apsp.ByObjective, true)
		for fr.Next() {
		}
		f.forward[from] = fr
	}
	return fr
}

func (f fullSweepOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	if fr := f.out(from, to); fr != nil {
		return fr.Scores(to)
	}
	return f.o.MinObjective(from, to)
}
func (f fullSweepOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return f.o.MinBudget(from, to)
}
func (f fullSweepOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	if fr := f.out(from, to); fr != nil {
		return fr.WalkTo(to)
	}
	return f.o.MinObjectivePath(from, to)
}
func (f fullSweepOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return f.o.MinBudgetPath(from, to)
}
func (f fullSweepOracle) PrefetchTarget(to graph.NodeID) { f.o.PrefetchTarget(to) }

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

// tiedGraph is randomKeywordGraph with weights drawn from {1, 2}: every
// sum is exact and ties in both scores are everywhere, so only the
// (primary, secondary, node) order decides between paths.
func tiedGraph(rng *rand.Rand, n, vocab int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		var kws []string
		for k := rng.Intn(3); k > 0; k-- {
			kws = append(kws, fmt.Sprintf("w%d", rng.Intn(vocab)))
		}
		b.AddNode(kws...)
	}
	for i := 0; i < n; i++ {
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), float64(1+rng.Intn(2)), float64(1+rng.Intn(2)))
	}
	for k := 0; k < 2*n; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(2)), float64(1+rng.Intn(2)))
		}
	}
	return b.MustBuild()
}

// disconnectedGraph is two random keyword graphs side by side, the first
// reaching the second over one-way bridges only, plus a few isolated keyword
// nodes: keyword nodes a waypoint reaches that never reach the target, and
// targets a source cannot reach. Weights are small integers, so every sum
// is exact.
func disconnectedGraph(rng *rand.Rand, n, vocab int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < 2*n+3; i++ {
		b.AddNode(fmt.Sprintf("w%d", rng.Intn(vocab)))
	}
	w := func() float64 { return float64(1 + rng.Intn(9)) }
	for part := 0; part < 2; part++ {
		base := part * n
		for i := 0; i < n; i++ {
			_ = b.AddEdge(graph.NodeID(base+i), graph.NodeID(base+(i+1)%n), w(), w())
		}
		for k := 0; k < 2*n; k++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				_ = b.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v), w(), w())
			}
		}
	}
	for k := 0; k < 3; k++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(n+rng.Intn(n)), w(), w())
	}
	return b.MustBuild()
}

// TestBoundedSweepsDifferential: over a seeded road network, budgets from
// tight to loose, all six registry algorithms and Greedy in both modes at
// both widths and α from 0 to 1 — and over a tied-weight and a disconnected
// graph — the lazy oracle's bounded sweeps and Greedy's frontiers return,
// bit for bit, the node sequences, scores and errors of the same oracle
// reading full sweeps only, from the same number of labels created, pruned
// and jumped, and agree with the dense tables (whose forward sweeps sum each
// path from the other end) up to floating-point association. The two small
// graphs have integer weights: every sum is exact, so the dense tables agree
// on every score bit, but equal-score paths abound and the tables may
// materialize another one, so there only scores and errors are compared.
func TestBoundedSweepsDifferential(t *testing.T) {
	type variant struct {
		name   string
		algo   Algorithm
		greedy bool
		opts   func(*Options)
	}
	variants := []variant{
		{"bucketbound", AlgorithmBucketBound, false, func(*Options) {}},
		{"osscaling", AlgorithmOSScaling, false, func(*Options) {}},
		{"topk", AlgorithmTopK, false, func(o *Options) { o.K = 3 }},
		{"exact", AlgorithmExact, false, func(*Options) {}},
		{"bruteforce", AlgorithmBruteForce, false, func(*Options) {}},
	}
	for _, budgetFirst := range []bool{false, true} {
		for _, width := range []int{1, 2} {
			for _, alpha := range []float64{0, 0.3, 0.5, 1} {
				variants = append(variants, variant{
					fmt.Sprintf("greedy-%d-α=%v-budgetfirst=%v", width, alpha, budgetFirst), AlgorithmGreedy, true,
					func(o *Options) { o.Width, o.Alpha, o.BudgetPriority = width, alpha, budgetFirst },
				})
			}
		}
	}

	rng := rand.New(rand.NewSource(2303))
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
	tied, split := tiedGraph(rng, 60, 8), disconnectedGraph(rng, 30, 8)
	graphs := []struct {
		name    string
		g       *graph.Graph
		queries []Query
		exact   bool // integer weights
	}{
		{"road", road, roadQueries, false},
		{"tied", tied, randomQueries(tied), true},
		{"disconnected", split, randomQueries(split), true},
	}

	for _, gc := range graphs {
		g := gc.g
		matrix := NewSearcher(g, apsp.NewMatrixOracle(g), nil)
		answered, failed := 0, 0
		for i, q := range gc.queries {
			for _, v := range variants {
				opts := DefaultOptions()
				opts.MaxExpansions = 30_000 // exact and brute force must stop; where they stop is part of the answer
				v.opts(&opts)
				// Fresh oracles, so that what one search left resident cannot
				// change which sweep answers another's pair lookups.
				lazyOracle := apsp.NewLazyOracle(g)
				lazy := NewSearcher(g, lazyOracle, nil)
				ref := fullSweepOracle{o: apsp.NewLazyOracle(g)}
				if v.greedy {
					ref.target, ref.forward = q.Target, make(map[graph.NodeID]*apsp.Frontier)
				}
				full := NewSearcher(g, ref, nil)
				got, gotErr := lazy.Run(context.Background(), v.algo, q, opts)
				want, wantErr := full.Run(context.Background(), v.algo, q, opts)
				name := fmt.Sprintf("%s query %d (Δ=%v) %s", gc.name, i, q.Budget, v.name)
				if g, w := renderSweepOutcome(got, gotErr), renderSweepOutcome(want, wantErr); g != w {
					t.Fatalf("%s: bounded sweeps diverged from full sweeps:\n got %s\nwant %s", name, g, w)
				}
				if open, _ := lazyOracle.FrontierStats(); open != 0 {
					t.Fatalf("%s: %d frontiers left open", name, open)
				}
				// The searches took the same decisions label for label: a sweep
				// cut too short would prune or jump differently before it ever
				// changed an answer.
				gm := got.Metrics
				gm.PlanSweeps, gm.SharedSweeps = 0, 0
				if gm != want.Metrics {
					t.Fatalf("%s: work counters diverged from full sweeps:\n got %+v\nwant %+v", name, gm, want.Metrics)
				}
				if gotErr == nil {
					answered++
				} else {
					failed++
				}
				if v.greedy && opts.Alpha == 1 && !gc.exact {
					// Every keyword node on τ(cur, t) scores the same by
					// Equation 1 in exact arithmetic. Which of those ties wins
					// is up to the last bit of each oracle's sums, and at α = 1
					// the tables break one of them the other way (query 19).
					continue
				}
				dense, denseErr := matrix.Run(context.Background(), v.algo, q, opts)
				if gc.exact {
					for i := range dense.Routes {
						if i < len(got.Routes) {
							dense.Routes[i].Nodes = got.Routes[i].Nodes
						}
					}
				}
				if msg := sameOutcome(got, gotErr, dense, denseErr); msg != "" {
					t.Fatalf("%s: lazy and matrix oracle disagree: %s", name, msg)
				}
			}
		}
		if gc.name == "road" && (answered < 40 || failed < 10) {
			t.Fatalf("%d answers and %d errors: the query mix no longer exercises both", answered, failed)
		}
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
