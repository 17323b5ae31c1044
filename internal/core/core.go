// Package core implements the paper's route-search algorithms over the
// keyword-aware optimal route (KOR) query:
//
//	OSScaling    (§3.2) — label search on a scaled graph; approximation
//	             bound 1/(1−ε) on the objective score.
//	BucketBound  (§3.3) — label search over objective-score buckets;
//	             approximation bound β/(1−ε), faster in practice.
//	Greedy       (§3.4) — beam-greedy waypoint selection (Greedy-1/Greedy-2);
//	             no guarantee, may miss feasibility.
//	TopK         (§3.5) — the KkR extension of both label algorithms using
//	             k-domination.
//	Exact        — branch-and-bound without scaling; exponential but exact,
//	             used to validate the approximation bounds.
//	BruteForce   — the §3.2 exhaustive baseline with only budget pruning.
//
// A Searcher bundles the three substrates every algorithm needs: the graph,
// a τ/σ score oracle (package apsp) and a keyword posting source (the
// inverted file). All algorithms are deterministic: ties in label order are
// broken by node ID and creation sequence.
//
// # Concurrency model
//
// The package splits state into two tiers. The Searcher's substrates —
// graph, oracle, posting source — are shared and must be safe for
// concurrent readers (all package apsp oracles and both index
// implementations are). Everything a query mutates — label stores, queues,
// candidate sets, metrics, the scaling plan — lives in a per-query plan
// allocated at search start and never escapes it. One Searcher therefore
// serves any number of concurrent searches. Each search method also has a
// Ctx variant that polls a context in its main loop and returns the
// context's error, wrapped, when it fires.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"kor/internal/apsp"
	"kor/internal/graph"
)

// Sentinel errors returned by the search algorithms.
var (
	// ErrNoRoute reports that no feasible route exists (or, for the greedy
	// heuristic, that none was found): the hard constraints of Definition 4
	// cannot be met.
	ErrNoRoute = errors.New("kor: no feasible route exists")
	// ErrBadQuery reports a malformed query.
	ErrBadQuery = errors.New("kor: bad query")
	// ErrUnknownAlgorithm reports an algorithm name missing from the
	// registry. Errors carrying it also match ErrBadQuery.
	ErrUnknownAlgorithm = errors.New("unknown algorithm")
	// ErrBudgetExceeded is returned by Greedy in keyword-priority mode when
	// the route it constructed covers the keywords but violates the budget.
	// The violating route is still returned for inspection.
	ErrBudgetExceeded = errors.New("kor: greedy route exceeds the budget limit")
	// ErrSearchLimit reports that the expansion cap was hit before the
	// search concluded (only the brute-force baseline and capped searches).
	ErrSearchLimit = errors.New("kor: search limit exceeded")
)

// RouteOracle is the oracle capability set the algorithms need: pair scores
// for pruning plus path materialization for presenting final routes. All
// apsp oracles implement it.
type RouteOracle interface {
	apsp.Oracle
	apsp.PathMaterializer
}

// Query is the KOR query of Definition 4: find the route from Source to
// Target covering all Keywords with budget score at most Budget that
// minimizes the objective score.
type Query struct {
	Source   graph.NodeID
	Target   graph.NodeID
	Keywords []graph.Term
	Budget   float64 // Δ
}

// Searcher bundles a graph with the substrates the algorithms consult.
// Create one with NewSearcher and reuse it across queries. A Searcher is
// safe for concurrent use: its substrates are immutable or internally
// synchronized, and all per-query scratch state lives in the plan.
type Searcher struct {
	g      *graph.Graph
	oracle RouteOracle
	index  graph.PostingSource

	// scratch pools per-query planScratch values (label arenas and O(|V|)
	// tables) across searches; see arena.go. sync.Pool is safe for the
	// Searcher's concurrent queries.
	scratch sync.Pool
}

// NewSearcher returns a Searcher over g. A nil oracle defaults to a lazy
// memoized-Dijkstra oracle; a nil index defaults to an in-memory inverted
// index.
func NewSearcher(g *graph.Graph, oracle RouteOracle, index graph.PostingSource) *Searcher {
	if oracle == nil {
		oracle = apsp.NewLazyOracle(g)
	}
	if index == nil {
		index = graph.NewMemIndex(g)
	}
	return &Searcher{g: g, oracle: oracle, index: index}
}

// Graph returns the underlying graph.
func (s *Searcher) Graph() *graph.Graph { return s.g }

// Oracle returns the τ/σ oracle in use.
func (s *Searcher) Oracle() RouteOracle { return s.oracle }

// Index returns the posting source in use.
func (s *Searcher) Index() graph.PostingSource { return s.index }

// validate rejects structurally bad queries.
func (s *Searcher) validate(q Query) error {
	if !s.g.Valid(q.Source) {
		return fmt.Errorf("%w: source node %d not in graph", ErrBadQuery, q.Source)
	}
	if !s.g.Valid(q.Target) {
		return fmt.Errorf("%w: target node %d not in graph", ErrBadQuery, q.Target)
	}
	if !(q.Budget > 0) || math.IsInf(q.Budget, 1) {
		return fmt.Errorf("%w: budget limit %v must be finite and positive", ErrBadQuery, q.Budget)
	}
	if len(q.Keywords) == 0 {
		return fmt.Errorf("%w: at least one query keyword is required", ErrBadQuery)
	}
	if len(q.Keywords) > 64 {
		return fmt.Errorf("%w: %d keywords exceed the 64-keyword limit", ErrBadQuery, len(q.Keywords))
	}
	for _, t := range q.Keywords {
		if t < 0 || int(t) >= s.g.Vocab().Len() {
			return fmt.Errorf("%w: keyword term %d not in vocabulary", ErrBadQuery, t)
		}
	}
	return nil
}
