package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"kor/internal/apsp"
	"kor/internal/bitset"
	"kor/internal/gen"
	"kor/internal/graph"
)

// Tests for Greedy's lazy arm, which scans keyword nodes off plan-private
// frontiers and stops where Equation 1 can no longer change the pick.

// greedyEdge is one directed edge of a hand-built fixture.
type greedyEdge struct {
	from, to graph.NodeID
	os, bs   float64
}

// greedyFixture builds a graph whose node i carries keywords[i].
func greedyFixture(t *testing.T, keywords [][]string, edges []greedyEdge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, kws := range keywords {
		b.AddNode(kws...)
	}
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.os, e.bs); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// greedyEverywhere runs Greedy on a fresh lazy oracle and checks it against
// the full-sweep reference (bit for bit) and the dense tables (up to
// association), and that it left no frontier open. It returns the lazy
// oracle's answer.
func greedyEverywhere(t *testing.T, g *graph.Graph, q Query, opts Options) (Result, error) {
	t.Helper()
	oracle := apsp.NewLazyOracle(g)
	got, gotErr := NewSearcher(g, oracle, nil).Greedy(q, opts)
	ref := newFullSweepOracle(g, q.Target, true)
	want, wantErr := NewSearcher(g, ref, nil).Greedy(q, opts)
	if g, w := renderSweepOutcome(got, gotErr), renderSweepOutcome(want, wantErr); g != w {
		t.Fatalf("frontiers diverged from full sweeps:\n got %s\nwant %s", g, w)
	}
	dense, denseErr := NewSearcher(g, apsp.NewMatrixOracle(g), nil).Greedy(q, opts)
	if msg := sameOutcome(got, gotErr, dense, denseErr); msg != "" {
		t.Fatalf("lazy and matrix oracle disagree: %s", msg)
	}
	if open, _ := oracle.FrontierStats(); open != 0 {
		t.Fatalf("%d frontiers left open", open)
	}
	return got, gotErr
}

// TestGreedyFrontierCases pins the corners of the frontier scan on small
// fixtures, each against the full-sweep reference and the dense tables.
func TestGreedyFrontierCases(t *testing.T) {
	t.Run("target carries an uncovered keyword", func(t *testing.T) {
		// 0 → 1 → 2, the target carries k; so does 3, a detour off 1.
		g := greedyFixture(t, [][]string{{}, {}, {"k"}, {"k"}}, []greedyEdge{
			{0, 1, 1, 1}, {1, 2, 1, 1}, {1, 3, 2, 2}, {3, 2, 2, 2},
		})
		q := Query{Source: 0, Target: 2, Keywords: terms(t, g, "k"), Budget: 10}
		res, err := greedyEverywhere(t, g, q, DefaultOptions())
		if err != nil || !slices.Equal(res.Best().Nodes, []graph.NodeID{0, 1, 2}) {
			t.Fatalf("got %v, %v; want the direct route with the target as the waypoint", res.Routes, err)
		}
	})
	t.Run("source covers every keyword", func(t *testing.T) {
		g := greedyFixture(t, [][]string{{"k", "j"}, {"k"}, {}}, []greedyEdge{
			{0, 1, 1, 1}, {1, 2, 1, 1}, {0, 2, 3, 1},
		})
		q := Query{Source: 0, Target: 2, Keywords: terms(t, g, "k", "j"), Budget: 10}
		res, err := greedyEverywhere(t, g, q, DefaultOptions())
		if err != nil || !slices.Equal(res.Best().Nodes, []graph.NodeID{0, 1, 2}) || res.Metrics.PlanSweeps != 1 {
			t.Fatalf("got %v, %v, %d frontiers; want τ(s,t) off the target frontier alone", res.Routes, err, res.Metrics.PlanSweeps)
		}
	})
	t.Run("keyword node that never reaches the target", func(t *testing.T) {
		// 1 is the cheapest k from the source but a dead end; 2 is dearer
		// and leads on to the target 3.
		g := greedyFixture(t, [][]string{{}, {"k"}, {"k"}, {}}, []greedyEdge{
			{0, 1, 0.5, 0.5}, {0, 2, 2, 2}, {2, 3, 1, 1}, {0, 3, 1, 1},
		})
		q := Query{Source: 0, Target: 3, Keywords: terms(t, g, "k"), Budget: 10}
		for _, width := range []int{1, 2} {
			opts := DefaultOptions()
			opts.Width = width
			res, err := greedyEverywhere(t, g, q, opts)
			if err != nil || !slices.Equal(res.Best().Nodes, []graph.NodeID{0, 2, 3}) {
				t.Fatalf("width %d: got %v, %v; want the route through 2", width, res.Routes, err)
			}
		}
	})
	t.Run("width past the candidate count", func(t *testing.T) {
		g := greedyFixture(t, [][]string{{}, {"k"}, {"j"}, {}}, []greedyEdge{
			{0, 1, 1, 1}, {1, 2, 1, 1}, {2, 3, 1, 1}, {0, 2, 1, 3}, {2, 1, 1, 1}, {1, 3, 4, 1},
		})
		q := Query{Source: 0, Target: 3, Keywords: terms(t, g, "k", "j"), Budget: 10}
		for _, width := range []int{2, MaxWidth} {
			opts := DefaultOptions()
			opts.Width = width
			if _, err := greedyEverywhere(t, g, q, opts); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
		}
	})
}

// TestGreedyFrontiersClosed: whichever way Greedy returns — an answer, no
// route, a route over budget, or a cancelled context mid-scan — every
// frontier it opened has given its scratch back; so has the candidate
// prune's frontier whichever way OSScaling, BucketBound or Exact returns.
func TestGreedyFrontiersClosed(t *testing.T) {
	g := ctxTestGraph(t)
	q := ctxTestQuery(t, g)
	for _, c := range []struct {
		name string
		ctx  context.Context
		q    func(Query) Query
		want error
	}{
		{"answer", context.Background(), func(q Query) Query { return q }, nil},
		{"over budget", context.Background(), func(q Query) Query { q.Budget = 1; return q }, ErrBudgetExceeded},
		{"cancelled", &countdownCtx{Context: context.Background(), remaining: 2}, func(q Query) Query { return q }, context.Canceled},
	} {
		oracle := apsp.NewLazyOracle(g)
		opts := ctxTestOptions()
		opts.Width = 2
		_, err := NewSearcher(g, oracle, nil).GreedyCtx(c.ctx, c.q(q), opts)
		if (c.want == nil) != (err == nil) || (c.want != nil && !errors.Is(err, c.want)) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		open, settled := oracle.FrontierStats()
		if open != 0 {
			t.Fatalf("%s: %d frontiers still hold their scratch", c.name, open)
		}
		if settled == 0 {
			t.Fatalf("%s: no frontier was opened; the case no longer exercises them", c.name)
		}
	}

	// No route: the keyword sits behind a dead end.
	dead := greedyFixture(t, [][]string{{}, {"k"}, {}}, []greedyEdge{{0, 2, 1, 1}, {0, 1, 1, 1}})
	oracle := apsp.NewLazyOracle(dead)
	_, err := NewSearcher(dead, oracle, nil).Greedy(Query{Source: 0, Target: 2, Keywords: terms(t, dead, "k"), Budget: 10}, DefaultOptions())
	if open, settled := oracle.FrontierStats(); !errors.Is(err, ErrNoRoute) || open != 0 || settled == 0 {
		t.Fatalf("dead end: err = %v, %d open, %d settled; want ErrNoRoute with every frontier closed", err, open, settled)
	}

	// The label algorithms open one frontier, the candidate prune's, while
	// building the plan. Whichever way the search then ends, it is closed.
	// No route: the keyword node 1 reaches the target within Δ but lies
	// outside the source's budget ellipse.
	far := greedyFixture(t, [][]string{{}, {"k"}, {}}, []greedyEdge{{0, 2, 1, 1}, {1, 2, 1, 1}, {0, 1, 5, 5}})
	farQuery := Query{Source: 0, Target: 2, Keywords: terms(t, far, "k"), Budget: 3}
	labelOpts := ctxTestOptions()
	labelOpts.DisableStrategy2 = false
	for _, algo := range []Algorithm{AlgorithmOSScaling, AlgorithmBucketBound, AlgorithmExact} {
		for _, c := range []struct {
			name          string
			ctx           context.Context
			g             *graph.Graph
			q             Query
			maxExpansions int
			want          error
		}{
			{"answer", context.Background(), g, q, 0, nil},
			{"no route", context.Background(), far, farQuery, 0, ErrNoRoute},
			{"search limit", context.Background(), g, q, 50, ErrSearchLimit},
			{"cancelled", &countdownCtx{Context: context.Background(), remaining: 2}, g, q, 0, context.Canceled},
		} {
			oracle := apsp.NewLazyOracle(c.g)
			opts := labelOpts
			if c.maxExpansions > 0 {
				opts.MaxExpansions = c.maxExpansions
			}
			_, err := NewSearcher(c.g, oracle, nil).Run(c.ctx, algo, c.q, opts)
			if (c.want == nil) != (err == nil) || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("%s %s: err = %v, want %v", algo, c.name, err, c.want)
			}
			open, settled := oracle.FrontierStats()
			if open != 0 {
				t.Fatalf("%s %s: %d frontiers still hold their scratch", algo, c.name, open)
			}
			if settled == 0 {
				t.Fatalf("%s %s: no frontier was opened; the case no longer exercises the prune", algo, c.name)
			}
		}
	}
}

// TestFrontierCandidatesMatchFullScan: for random beam states — waypoint,
// keywords still uncovered, scores so far — on graphs where exact ties are
// everywhere, the frontier scan's width best candidates are, field for field
// and in order, those of a scan of every keyword node over full sweeps. The
// states revisit waypoints, so resumed frontiers are scanned too.
func TestFrontierCandidatesMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2704))
	picked := 0
	for gi, g := range []*graph.Graph{tiedGraph(rng, 50, 6), disconnectedGraph(rng, 25, 6), randomKeywordGraph(rng, 50, 6)} {
		n := g.NumNodes()
		for trial := 0; trial < 30; trial++ {
			q := randomQuery(rng, g, 1+rng.Intn(4))
			opts := DefaultOptions()
			opts.Alpha = []float64{0, 0.3, 0.5, 1}[rng.Intn(4)]
			opts.Width = 1 + rng.Intn(3)
			opts.BudgetPriority = rng.Intn(2) == 0
			opts.DisableStrategy2 = true
			ref := newFullSweepOracle(g, q.Target, true)
			pf, err := NewSearcher(g, apsp.NewLazyOracle(g), nil).newPlan(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := NewSearcher(g, ref, nil).newPlan(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !pf.openTargetFrontier() {
				t.Fatal("no target frontier on a lazy oracle")
			}
			nodeSet := mergePostings(pr.postings)
			waypoints := []graph.NodeID{q.Source, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			for step := 0; step < 12; step++ {
				st := greedyOutcome{
					covered: bitset.Mask(rng.Uint64()) & pf.qMask,
					os:      float64(rng.Intn(4)),
					bs:      float64(rng.Intn(4)),
				}
				if st.covered == pf.qMask {
					st.covered = 0
				}
				cur := waypoints[rng.Intn(len(waypoints))]
				uncovered := pf.qMask.Diff(st.covered)
				got, err := pf.frontierCandidates(st, cur, pf.outFrontier(cur), uncovered)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := pr.nodeSetCandidates(st, cur, apsp.OutOf(ref, cur, apsp.ByObjective), uncovered, nodeSet)
				got, want = bestCandidates(got, opts.Width), bestCandidates(want, opts.Width)
				if !slices.Equal(got, want) {
					t.Fatalf("graph %d trial %d step %d (%+v, waypoint %d, state %+v): frontier picks %v, full scan %v",
						gi, trial, step, opts, cur, st, got, want)
				}
				picked += len(want)
			}
			pf.close()
			pr.close()
		}
	}
	if picked < 500 {
		t.Fatalf("%d candidates picked in all: the states no longer exercise the scan", picked)
	}
}

// BenchmarkGreedyLazy is Greedy-1 on one lazy oracle over the bench road
// network (8,000 nodes), 256 seeded queries at Δ = 9 with four keywords
// each. settled/op, the nodes the query's frontiers settled, is the
// deterministic work counter (over whole passes of the 256 queries).
func BenchmarkGreedyLazy(b *testing.B) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 8000})
	rng := rand.New(rand.NewSource(1))
	queries := make([]Query, 256)
	for i := range queries {
		queries[i] = roadQuery(rng, g, 4, 9)
	}
	oracle := apsp.NewLazyOracle(g)
	s := NewSearcher(g, oracle, nil)
	opts := DefaultOptions()
	_, before := oracle.FrontierStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Greedy(queries[i%len(queries)], opts)
	}
	b.StopTimer()
	_, after := oracle.FrontierStats()
	b.ReportMetric(float64(after-before)/float64(b.N), "settled/op")
}
