package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kor/internal/apsp"
	"kor/internal/graph"
)

// Tests for cross-query sweep sharing: plans fetch their bounded candidate
// sweeps from the lazy oracle's memo (apsp/memo.go), so concurrent and
// consecutive queries reuse each other's Dijkstra work. The headline property
// is bit-identical answers: one Searcher hammered concurrently — so sweeps
// really are reused across plans, at mixed bounds — must return exactly what
// each query returns alone on a fresh oracle, where every sweep is its own.
// Run with -race.

// renderSweepOutcome flattens a search outcome to full precision: every
// route's node sequence, objective and budget, plus the error. Two outcomes
// render equal iff they are bit-identical answers.
func renderSweepOutcome(res Result, err error) string {
	out := ""
	if err != nil {
		out = "error: " + err.Error() + " "
	}
	for _, r := range res.Routes {
		out += fmt.Sprintf("[%s %x %x] ", routeSignature(r), r.Objective, r.Budget)
	}
	return out
}

// sweepShareQueries builds queries engineered to overlap: all of them drawn
// from two endpoint pairs with per-pair budgets, random keyword sets. This is
// the duplicate-heavy shape sweep sharing exists for — the σ sweeps into the
// shared targets and candidates are reusable across the mix.
func sweepShareQueries(rng *rand.Rand, g *graph.Graph, n int) []Query {
	base := []Query{randomQuery(rng, g, 1), randomQuery(rng, g, 1)}
	queries := make([]Query, n)
	for i := range queries {
		q := randomQuery(rng, g, 1+rng.Intn(2))
		b := base[i%len(base)]
		q.Source, q.Target, q.Budget = b.Source, b.Target, b.Budget
		queries[i] = q
	}
	return queries
}

func TestSweepShareEquivalence(t *testing.T) {
	type runner struct {
		name string
		run  func(*Searcher, Query) (Result, error)
	}
	topkOpts := DefaultOptions()
	topkOpts.K = 3
	looseOpts := DefaultOptions()
	looseOpts.Epsilon = 0.5
	runners := []runner{
		{"bucketbound", func(s *Searcher, q Query) (Result, error) { return s.BucketBound(q, DefaultOptions()) }},
		{"osscaling", func(s *Searcher, q Query) (Result, error) { return s.OSScaling(q, DefaultOptions()) }},
		{"osscaling-loose", func(s *Searcher, q Query) (Result, error) { return s.OSScaling(q, looseOpts) }},
		{"topk", func(s *Searcher, q Query) (Result, error) { return s.OSScaling(q, topkOpts) }},
		{"exact", func(s *Searcher, q Query) (Result, error) { return s.Exact(q, DefaultOptions()) }},
		{"greedy", func(s *Searcher, q Query) (Result, error) { return s.Greedy(q, DefaultOptions()) }},
	}

	for _, dense := range []bool{false, true} {
		name := "lazy"
		if dense {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8812))
			totalShared := 0
			for trial := 0; trial < 5; trial++ {
				g := randomKeywordGraph(rng, 10+rng.Intn(5), 4)
				queries := sweepShareQueries(rng, g, 8)

				// Reference answers: strictly sequential, a fresh oracle per
				// search, so nothing one search computed can serve another.
				want := make([][]string, len(queries))
				for qi, q := range queries {
					want[qi] = make([]string, len(runners))
					for ri, r := range runners {
						res, err := r.run(searcherFor(t, g, dense), q)
						want[qi][ri] = renderSweepOutcome(res, err)
					}
				}

				// One Searcher, every (query, algorithm) pair concurrent: plans
				// contend on the one oracle memo and must still answer
				// bit-identically.
				shared := searcherFor(t, g, dense)
				var wg sync.WaitGroup
				var mu sync.Mutex
				for qi, q := range queries {
					for ri, r := range runners {
						wg.Add(1)
						go func(qi, ri int, q Query, r runner) {
							defer wg.Done()
							res, err := r.run(shared, q)
							got := renderSweepOutcome(res, err)
							mu.Lock()
							totalShared += res.Metrics.SharedSweeps
							if got != want[qi][ri] {
								t.Errorf("trial %d %s query %d diverged under sweep sharing:\n got %s\nwant %s",
									trial, r.name, qi, got, want[qi][ri])
							}
							mu.Unlock()
						}(qi, ri, q, r)
					}
				}
				wg.Wait()
			}
			// A table-backed oracle never sweeps at the plan layer, so only
			// the lazy flavour can prove sharing engaged.
			if !dense && totalShared == 0 {
				t.Fatal("no sweep was ever shared — the memo never engaged on a duplicate-heavy mix")
			}
		})
	}
}

// TestSweepShareBoundUpgrade pins, through the interface the plan consumes,
// the contract its PlanSweeps/SharedSweeps attribution rests on: a resident
// sweep serves the same root and metric at its bound or narrower
// (shared=true, nothing computed); a wider request computes (shared=false)
// and its sweep, resident from then on, serves both.
func TestSweepShareBoundUpgrade(t *testing.T) {
	g := randomKeywordGraph(rand.New(rand.NewSource(99)), 12, 4)
	oracle := apsp.NewLazyOracle(g)
	var od apsp.OnDemand = oracle

	sw1, shared := od.ReverseSweep(0, apsp.ByBudget, 5)
	if shared {
		t.Fatal("cold request claimed to share")
	}
	if sw2, shared := od.ReverseSweep(0, apsp.ByBudget, 3); !shared || sw2 != sw1 {
		t.Fatal("narrower request did not reuse the wider resident sweep")
	}
	sw3, shared := od.ReverseSweep(0, apsp.ByBudget, 9)
	if shared || sw3 == sw1 {
		t.Fatal("request wider than the resident bound must recompute")
	}
	if sw4, shared := od.ReverseSweep(0, apsp.ByBudget, 5); !shared || sw4 != sw3 {
		t.Fatal("replacement sweep not served to the narrower bound")
	}
	if sw5, shared := od.ReverseSweep(0, apsp.ByBudget, 9); !shared || sw5 != sw3 {
		t.Fatal("the wider sweep is not the resident one after the upgrade")
	}
	if _, shared := od.ReverseSweep(0, apsp.ByObjective, 1); shared {
		t.Fatal("metrics must not share sweeps")
	}
	if _, shared := od.ReverseSweep(1, apsp.ByBudget, 1); shared {
		t.Fatal("roots must not share sweeps")
	}
	if got := oracle.SweepCount(); got != 4 {
		t.Fatalf("oracle ran %d sweeps, want 4 (one per shared=false)", got)
	}
}
