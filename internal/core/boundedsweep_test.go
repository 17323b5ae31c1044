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
// sweeps truncated at what its query can still reach — σ(·,t) at Δ, σ(·,c) at
// Δ−σ(c,t) — and a τ(·,t) frontier read only where σ(·,t) fits Δ, and must
// answer exactly as if every sweep were full.

// fullSweepOracle is a lazy oracle hidden behind the pair interface: plans
// over it read apsp's pair view, answered here off frontiers drained to the
// end — bit for bit full sweeps — kept by root. A lookup reads the reverse
// run into its target; for Greedy, greedy is set and target is the query's:
// τ lookups not into the target are then answered off the forward run out of
// their source, as Greedy's scan reads τ(waypoint, m) — a reverse run into m
// would sum the same path from the other end.
type fullSweepOracle struct {
	o      *apsp.LazyOracle
	target graph.NodeID
	greedy bool
	runs   map[fullRun]*apsp.Frontier
}

type fullRun struct {
	root     graph.NodeID
	m        apsp.Metric
	outbound bool
}

func newFullSweepOracle(g *graph.Graph, target graph.NodeID, greedy bool) fullSweepOracle {
	return fullSweepOracle{o: apsp.NewLazyOracle(g), target: target, greedy: greedy, runs: make(map[fullRun]*apsp.Frontier)}
}

// vector returns the drained run a lookup from→to under m reads, and the
// node to read it at.
func (f fullSweepOracle) vector(from, to graph.NodeID, m apsp.Metric) (*apsp.Frontier, graph.NodeID) {
	k, at := fullRun{to, m, false}, from
	if f.greedy && m == apsp.ByObjective && to != f.target {
		k, at = fullRun{from, m, true}, to
	}
	fr := f.runs[k]
	if fr == nil {
		fr = f.o.Frontier(k.root, k.m, k.outbound)
		for fr.Next() {
		}
		f.runs[k] = fr
	}
	return fr, at
}

func (f fullSweepOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	fr, at := f.vector(from, to, apsp.ByObjective)
	return fr.Scores(at)
}
func (f fullSweepOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	fr, at := f.vector(from, to, apsp.ByBudget)
	return fr.Scores(at)
}
func (f fullSweepOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	fr, at := f.vector(from, to, apsp.ByObjective)
	return fr.Walk(at)
}
func (f fullSweepOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	fr, at := f.vector(from, to, apsp.ByBudget)
	return fr.Walk(at)
}

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
// reading full sweeps only, from the same number of labels created and
// pruned, and agree with the dense tables (whose forward sweeps sum each
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
				// Fresh oracles, so that each counts its own frontiers.
				lazyOracle := apsp.NewLazyOracle(g)
				lazy := NewSearcher(g, lazyOracle, nil)
				full := NewSearcher(g, newFullSweepOracle(g, q.Target, v.greedy), nil)
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
				// cut too short would prune differently before it ever changed
				// an answer.
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
// counters: one OSScaling query on a fresh lazy oracle over the bench road
// network (8,000 nodes, Δ = 9) runs strategy-2 candidate sweeps besides its
// two frontiers, and those frontiers — the τ tail into the target and the
// source frontier of the candidate prune — settle less than a quarter of the
// graph between them: the τ tail is read only inside the Δ-ball the σ tail
// admits.
func TestBoundedSweepsHoldWhatTheyReach(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 8000})
	oracle := apsp.NewLazyOracle(g)
	s := NewSearcher(g, oracle, nil)
	q := roadQuery(rand.New(rand.NewSource(1)), g, 4, 9)
	res, err := s.OSScaling(q, DefaultOptions())
	if err != nil {
		t.Fatalf("OSScaling: %v", err)
	}
	if res.Metrics.PlanSweeps <= 2 {
		t.Fatalf("%d plan sweeps: the query ran no candidate sweep besides its two frontiers", res.Metrics.PlanSweeps)
	}
	open, settled := oracle.FrontierStats()
	if open != 0 || settled == 0 || settled*4 >= int64(g.NumNodes()) {
		t.Fatalf("frontiers: %d open, %d nodes settled of %d", open, settled, g.NumNodes())
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
		// The sweep the plan asks for at the negative bound is root-only.
		sw, _ := apsp.Into(oracle, far, apsp.ByObjective, -1, nil)
		if _, _, ok := sw.Scores(mid); ok {
			t.Fatalf("%s: a τ sweep into the far keyword node at a negative bound reaches past its root", algo)
		}
		if _, _, ok := sw.Scores(far); !ok {
			t.Fatalf("%s: a root-only sweep must still reach its root", algo)
		}
	}
}

// TestTauReadOnlyAfterSigma pins the σ-before-τ contract of the τ tail: on a
// lazy oracle τ(·, target) is a frontier that settles as far as it is read,
// so it may be read only where σ(·, target) already fits Δ. The rare keyword
// of the query sits only on the far end of a chain that reaches the target
// past Δ; newPlan's strategy-2 loop must drop that node on its σ tail
// without reading its τ tail. The frontiers then settle exactly what they
// settle for the same query with the keyword gone.
func TestTauReadOnlyAfterSigma(t *testing.T) {
	const chain = 10
	b := graph.NewBuilder()
	src, dst := b.AddNode(), b.AddNode()
	c1, c2 := b.AddNode("c"), b.AddNode("c")
	var far []graph.NodeID
	for i := 0; i < chain; i++ {
		far = append(far, b.AddNode())
	}
	b.AddNode("rare") // a placeholder, so the term outlives its removal below
	edge := func(u, v graph.NodeID) {
		if err := b.AddEdge(u, v, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]graph.NodeID{{src, c1}, {c1, dst}, {src, dst}, {dst, c2}, {c2, src}} {
		edge(e[0], e[1])
	}
	prev := dst
	for _, v := range far { // dst ⇄ far[0] ⇄ … ⇄ far[chain-1]
		edge(prev, v)
		edge(v, prev)
		prev = v
	}
	g := b.MustBuild()
	rare, _ := g.Vocab().Lookup("rare")
	placeholder := graph.NodeID(g.NumNodes() - 1)
	withRare, err := g.Apply(graph.Delta{
		AddKeywords:    []graph.KeywordPatch{{Node: far[chain-1], Keywords: []string{"rare"}}},
		RemoveKeywords: []graph.KeywordPatch{{Node: placeholder, Keywords: []string{"rare"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := g.Apply(graph.Delta{RemoveKeywords: []graph.KeywordPatch{{Node: placeholder, Keywords: []string{"rare"}}}})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := g.Vocab().Lookup("c")
	q := Query{Source: src, Target: dst, Keywords: []graph.Term{rare, c}, Budget: 5}
	opts := DefaultOptions()
	opts.InfrequentFraction = 1 // the rare keyword engages strategy 2

	for _, algo := range []Algorithm{AlgorithmOSScaling, AlgorithmBucketBound, AlgorithmExact} {
		settled := func(g *graph.Graph) (int64, string) {
			oracle := apsp.NewLazyOracle(g)
			res, err := NewSearcher(g, oracle, nil).Run(context.Background(), algo, q, opts)
			open, settled := oracle.FrontierStats()
			if open != 0 {
				t.Fatalf("%s: %d frontiers left open", algo, open)
			}
			return settled, renderSweepOutcome(res, err)
		}
		got, gotOut := settled(withRare)
		want, wantOut := settled(without)
		if gotOut != wantOut {
			t.Fatalf("%s: the far keyword node changed the answer: %s, without it %s", algo, gotOut, wantOut)
		}
		if got != want || got >= int64(g.NumNodes()) {
			t.Fatalf("%s: frontiers settled %d nodes with the far keyword node, %d without it (of %d): τ was read where σ rules a node out",
				algo, got, want, g.NumNodes())
		}
	}
}
