package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kor/internal/graph"
)

// Tests for concurrent plans on one oracle: on the lazy oracle every plan
// runs its own sweeps and frontiers and they share only the pooled scratch;
// on the partitioned oracle they share the slice memo. The headline property
// is bit-identical answers: one Searcher hammered concurrently must return
// exactly what each query returns alone on a fresh oracle. Run with -race.

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
// from two endpoint pairs with per-pair budgets, random keyword sets — the
// duplicate-heavy shape under which concurrent plans contend on the same
// roots.
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
				// contend on the one oracle and must still answer
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
							if res.Metrics.SharedSweeps != 0 {
								t.Errorf("trial %d %s query %d: %d shared sweeps; plans share none", trial, r.name, qi, res.Metrics.SharedSweeps)
							}
							if got != want[qi][ri] {
								t.Errorf("trial %d %s query %d diverged under concurrency:\n got %s\nwant %s",
									trial, r.name, qi, got, want[qi][ri])
							}
							mu.Unlock()
						}(qi, ri, q, r)
					}
				}
				wg.Wait()
			}
		})
	}
}
