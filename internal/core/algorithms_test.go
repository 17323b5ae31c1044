package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kor/internal/graph"
)

// randomKeywordGraph builds a strongly-connected random graph whose nodes
// carry keywords from a small vocabulary, without parallel edges.
func randomKeywordGraph(rng *rand.Rand, n, vocab int) *graph.Graph {
	b := graph.NewBuilder()
	words := make([]string, vocab)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	for i := 0; i < n; i++ {
		var kws []string
		for k := rng.Intn(3); k > 0; k-- {
			kws = append(kws, words[rng.Intn(vocab)])
		}
		b.AddNode(kws...)
	}
	seen := make(map[[2]graph.NodeID]bool)
	add := func(from, to graph.NodeID) {
		if from == to || seen[[2]graph.NodeID{from, to}] {
			return
		}
		seen[[2]graph.NodeID{from, to}] = true
		_ = b.AddEdge(from, to, 0.1+rng.Float64(), 0.1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		add(graph.NodeID(i), graph.NodeID((i+1)%n)) // cycle: strong connectivity
	}
	for k := 0; k < 3*n; k++ {
		add(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

func randomQuery(rng *rand.Rand, g *graph.Graph, m int) Query {
	n := g.NumNodes()
	var kws []graph.Term
	seen := make(map[graph.Term]bool)
	for len(kws) < m {
		t := graph.Term(rng.Intn(g.Vocab().Len()))
		if !seen[t] {
			seen[t] = true
			kws = append(kws, t)
		}
	}
	return Query{
		Source:   graph.NodeID(rng.Intn(n)),
		Target:   graph.NodeID(rng.Intn(n)),
		Keywords: kws,
		Budget:   1 + rng.Float64()*float64(n)/3,
	}
}

// verifyRoute checks the structural invariants of a returned route against
// its query: endpoints, edge existence, score sums, coverage and budget.
func verifyRoute(t *testing.T, g *graph.Graph, q Query, r Route, ctx string) {
	t.Helper()
	if len(r.Nodes) == 0 {
		t.Fatalf("%s: empty route", ctx)
	}
	if r.Nodes[0] != q.Source || r.Nodes[len(r.Nodes)-1] != q.Target {
		t.Fatalf("%s: endpoints %v, want %d→%d", ctx, r.Nodes, q.Source, q.Target)
	}
	var os, bs float64
	for i := 1; i < len(r.Nodes); i++ {
		found := false
		for _, e := range g.Out(r.Nodes[i-1]) {
			if e.To == r.Nodes[i] {
				os += e.Objective
				bs += e.Budget
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: hop %d→%d is not an edge", ctx, r.Nodes[i-1], r.Nodes[i])
		}
	}
	if math.Abs(os-r.Objective) > 1e-6*(1+os) {
		t.Fatalf("%s: reported OS %v, recomputed %v", ctx, r.Objective, os)
	}
	if math.Abs(bs-r.Budget) > 1e-6*(1+bs) {
		t.Fatalf("%s: reported BS %v, recomputed %v", ctx, r.Budget, bs)
	}
	if r.Feasible {
		if bs > q.Budget+1e-9 {
			t.Fatalf("%s: feasible route busts budget: %v > %v", ctx, bs, q.Budget)
		}
		covered := make(map[graph.Term]bool)
		for _, v := range r.Nodes {
			for _, term := range g.Terms(v) {
				covered[term] = true
			}
		}
		for _, term := range q.Keywords {
			if !covered[term] {
				t.Fatalf("%s: feasible route misses keyword %v", ctx, term)
			}
		}
	}
}

// TestApproximationBounds is the central property test: across random
// graphs and queries, OSScaling stays within 1/(1−ε) of the exact optimum
// (Theorem 2) and BucketBound within β/(1−ε) (Theorem 3); every returned
// route is genuinely feasible; and the three algorithms agree on
// feasibility existence.
func TestApproximationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries, feasibleSeen := 0, 0
	for trial := 0; trial < 30; trial++ {
		g := randomKeywordGraph(rng, 10+rng.Intn(20), 6)
		s := searcherFor(t, g, trial%2 == 0)
		for qi := 0; qi < 6; qi++ {
			q := randomQuery(rng, g, 1+rng.Intn(3))
			opts := DefaultOptions()
			opts.Epsilon = [4]float64{0.1, 0.3, 0.5, 0.9}[rng.Intn(4)]
			opts.Beta = 1.1 + rng.Float64()
			queries++
			ctx := fmt.Sprintf("trial %d query %d (ε=%v β=%v Δ=%v m=%d)", trial, qi, opts.Epsilon, opts.Beta, q.Budget, len(q.Keywords))

			exact, exactErr := s.Exact(q, DefaultOptions())
			oss, ossErr := s.OSScaling(q, opts)
			bb, bbErr := s.BucketBound(q, opts)

			if (exactErr == nil) != (ossErr == nil) || (exactErr == nil) != (bbErr == nil) {
				t.Fatalf("%s: feasibility disagreement exact=%v oss=%v bb=%v", ctx, exactErr, ossErr, bbErr)
			}
			if exactErr != nil {
				if !errors.Is(exactErr, ErrNoRoute) {
					t.Fatalf("%s: exact error %v", ctx, exactErr)
				}
				continue
			}
			feasibleSeen++
			opt := exact.Best()
			verifyRoute(t, g, q, opt, ctx+" exact")
			verifyRoute(t, g, q, oss.Best(), ctx+" osscaling")
			verifyRoute(t, g, q, bb.Best(), ctx+" bucketbound")
			if !oss.Best().Feasible || !bb.Best().Feasible {
				t.Fatalf("%s: approximation returned infeasible route", ctx)
			}

			if opt.Objective > oss.Best().Objective+1e-9 {
				t.Fatalf("%s: exact %v worse than OSScaling %v", ctx, opt.Objective, oss.Best().Objective)
			}
			bound := opt.Objective/(1-opts.Epsilon) + 1e-9
			if oss.Best().Objective > bound {
				t.Fatalf("%s: OSScaling %v breaks 1/(1-ε) bound %v (opt %v)",
					ctx, oss.Best().Objective, bound, opt.Objective)
			}
			bbBound := opts.Beta*opt.Objective/(1-opts.Epsilon) + 1e-9
			if bb.Best().Objective > bbBound {
				t.Fatalf("%s: BucketBound %v breaks β/(1-ε) bound %v (opt %v)",
					ctx, bb.Best().Objective, bbBound, opt.Objective)
			}
			// Lemma 5's practical consequence: BucketBound lands in the same
			// bucket as the OSScaling answer, so the ratio between them is
			// below β.
			if bb.Best().Objective > opts.Beta*oss.Best().Objective+1e-9 {
				t.Fatalf("%s: BucketBound %v vs OSScaling %v exceeds β=%v",
					ctx, bb.Best().Objective, oss.Best().Objective, opts.Beta)
			}
		}
	}
	if feasibleSeen < queries/4 {
		t.Fatalf("only %d/%d queries feasible; workload generator too hostile for meaningful coverage", feasibleSeen, queries)
	}
}

// TestStrategiesPreserveBounds re-runs bound checks with optimization
// strategy 2 toggled, and confirms it only changes how fast the answer is
// found, never its feasibility or bound.
func TestStrategiesPreserveBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 10; trial++ {
		g := randomKeywordGraph(rng, 15+rng.Intn(15), 5)
		s := searcherFor(t, g, false)
		q := randomQuery(rng, g, 2)
		exact, exactErr := s.Exact(q, DefaultOptions())

		for variant := 0; variant < 2; variant++ {
			opts := DefaultOptions()
			opts.DisableStrategy2 = variant == 1
			res, err := s.OSScaling(q, opts)
			if (err == nil) != (exactErr == nil) {
				t.Fatalf("trial %d variant %d: feasibility flip: %v vs %v", trial, variant, err, exactErr)
			}
			if err != nil {
				continue
			}
			bound := exact.Best().Objective/(1-opts.Epsilon) + 1e-9
			if res.Best().Objective > bound {
				t.Fatalf("trial %d variant %d: %v breaks bound %v", trial, variant, res.Best().Objective, bound)
			}
			verifyRoute(t, g, q, res.Best(), fmt.Sprintf("trial %d variant %d", trial, variant))
		}
	}
}

// TestEpsilonAccuracyMonotonicity mirrors Figure 7: on average, smaller ε
// must not produce worse routes than much larger ε.
func TestEpsilonAccuracyMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var small, large float64
	count := 0
	for trial := 0; trial < 20; trial++ {
		g := randomKeywordGraph(rng, 20, 5)
		s := searcherFor(t, g, false)
		q := randomQuery(rng, g, 2)
		optsSmall := DefaultOptions()
		optsSmall.Epsilon = 0.1
		optsLarge := DefaultOptions()
		optsLarge.Epsilon = 0.9
		a, errA := s.OSScaling(q, optsSmall)
		bRes, errB := s.OSScaling(q, optsLarge)
		if errA != nil || errB != nil {
			continue
		}
		small += a.Best().Objective
		large += bRes.Best().Objective
		count++
	}
	if count == 0 {
		t.Skip("no feasible random queries")
	}
	if small > large*1.0001 {
		t.Errorf("ε=0.1 average objective %v worse than ε=0.9 average %v", small/float64(count), large/float64(count))
	}
}

// TestBruteForceMatchesExact validates the two exact baselines against each
// other on graphs small enough for full enumeration.
func TestBruteForceMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := randomKeywordGraph(rng, 8, 4)
		s := searcherFor(t, g, false)
		q := randomQuery(rng, g, 2)
		q.Budget = 1 + rng.Float64()*2 // keep the walk space enumerable
		exact, exactErr := s.Exact(q, DefaultOptions())
		brute, bruteErr := s.BruteForce(q, 3_000_000)
		if errors.Is(bruteErr, ErrSearchLimit) {
			continue
		}
		if (exactErr == nil) != (bruteErr == nil) {
			t.Fatalf("trial %d: exact=%v brute=%v", trial, exactErr, bruteErr)
		}
		if exactErr != nil {
			continue
		}
		if math.Abs(exact.Best().Objective-brute.Best().Objective) > 1e-9 {
			t.Fatalf("trial %d: exact OS %v, brute OS %v", trial,
				exact.Best().Objective, brute.Best().Objective)
		}
	}
}

// TestMetricsAccounting sanity-checks the work counters.
func TestMetricsAccounting(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	res, err := s.OSScaling(Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: 10}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.LabelsCreated <= 0 || m.LabelsDequeued <= 0 {
		t.Errorf("suspicious metrics: %+v", m)
	}
	if m.LabelsEnqueued > m.LabelsCreated+1 { // +1 for the start label
		t.Errorf("enqueued %d exceeds created %d", m.LabelsEnqueued, m.LabelsCreated)
	}
	if m.Feasible == 0 {
		t.Error("no feasible candidates counted despite a found route")
	}
	var agg Metrics
	agg.Add(m)
	agg.Add(m)
	if agg.LabelsCreated != 2*m.LabelsCreated {
		t.Error("Metrics.Add does not accumulate")
	}
}
