package kor

import (
	"context"
	"fmt"
	"time"

	"kor/internal/core"
)

// Algorithm names one of the engine's search algorithms. The zero value
// selects the default, BucketBound. Algorithm values are also the wire
// spellings korserve and korapi accept.
type Algorithm = core.Algorithm

// The registered algorithms, re-exported from the core registry.
const (
	// AlgorithmDefault resolves to AlgorithmBucketBound.
	AlgorithmDefault = core.AlgorithmDefault
	// AlgorithmBucketBound is the §3.3 bucket label search, bound β/(1−ε).
	AlgorithmBucketBound = core.AlgorithmBucketBound
	// AlgorithmOSScaling is the §3.2 scaled label search, bound 1/(1−ε).
	AlgorithmOSScaling = core.AlgorithmOSScaling
	// AlgorithmGreedy is the §3.4 beam-greedy heuristic, no guarantee.
	AlgorithmGreedy = core.AlgorithmGreedy
	// AlgorithmTopK is the §3.5 KkR extension returning the K best routes.
	AlgorithmTopK = core.AlgorithmTopK
	// AlgorithmExact is the exact branch-and-bound.
	AlgorithmExact = core.AlgorithmExact
	// AlgorithmBruteForce is the exhaustive baseline for validation.
	AlgorithmBruteForce = core.AlgorithmBruteForce
)

// ParseAlgorithm resolves a wire spelling to its Algorithm, or an
// ErrBadQuery-wrapped error naming the valid choices.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Algorithms lists the registered algorithms in a stable order.
func Algorithms() []Algorithm { return core.Algorithms() }

// Request is a self-describing KOR query: the endpoints, keywords and budget
// of Definition 4, plus which algorithm to run and how to tune it. It is the
// input to Engine.Run, the engine's single entry point, and the in-process
// twin of the korapi wire request.
type Request struct {
	// From and To are the route endpoints; equal for a round trip.
	From NodeID
	To   NodeID
	// Keywords are the keyword strings the route must cover.
	Keywords []string
	// Budget is the budget limit Δ.
	Budget float64
	// Algorithm selects the search algorithm; the zero value means
	// BucketBound, the paper's recommended speed/quality trade-off.
	Algorithm Algorithm
	// K, when non-zero, overrides Options.K: ask for the K best distinct
	// routes (the KkR query) instead of just the best one. Negative values
	// are rejected by Options.Validate.
	K int
	// Options overrides the tuning parameters; nil means DefaultOptions.
	// The options are validated (Options.Validate) before any search work.
	Options *Options
}

// Response is what Engine.Run returns: the routes found plus enough
// metadata to interpret them — which algorithm actually ran, what
// approximation guarantee it carried, and what the search cost.
type Response struct {
	// Routes holds the routes found, best objective first. Plain queries
	// yield one; top-k queries yield up to K.
	Routes []Route
	// Algorithm is the canonical algorithm that ran (never empty: the
	// default is resolved before dispatch).
	Algorithm Algorithm
	// Bound is the approximation factor the algorithm guarantees on the
	// objective score under the request's options: 1 for the exact
	// algorithms, 1/(1−ε) or β/(1−ε) for the label algorithms, 0 for the
	// greedy heuristic (no guarantee).
	Bound float64
	// Metrics counts the work the search performed. For a cached response
	// they are the counters of the search that originally produced it.
	Metrics Metrics
	// Elapsed is the search wall time, measured inside Run. For a cached
	// response it is the (tiny) lookup time, not the original search time.
	Elapsed time.Duration
	// Cached reports that the response was served from the engine's result
	// cache (EngineConfig.CacheSize) without running a search.
	Cached bool
	// Coalesced reports that the response was shared from a search another
	// request performed — this request joined an identical in-flight Run as a
	// single-flight follower, or was a duplicate inside a SearchBatch — so no
	// search ran for it. Metrics are the counters of the search that produced
	// the shared answer.
	Coalesced bool
	// Snapshot identifies the graph snapshot the response was computed
	// against. Under live updates (Engine.Swap, Engine.Patch) this is how a
	// caller — or a test — ties an answer to the exact graph version that
	// produced it.
	Snapshot SnapshotInfo

	// graph pins the snapshot's graph so Graph() can resolve the route's
	// node IDs even after the engine swapped to a different (possibly
	// smaller) graph.
	graph *Graph
}

// Graph returns the graph the response was computed against — the right
// graph for resolving the routes' node IDs, names and positions. Under live
// updates Engine.Graph() may already point at a different (even smaller)
// graph than the one that produced an in-flight response; rendering with
// that one would mislabel or out-of-range the route nodes. Nil on a zero
// Response.
func (r Response) Graph() *Graph { return r.graph }

// Best returns the first (best) route. It panics if the response is empty;
// call only after a nil-error Run.
func (r Response) Best() Route { return r.Routes[0] }

// Run answers the request: it validates the options, resolves the keywords
// against the graph's vocabulary, dispatches to the requested algorithm
// through the core registry, and annotates the result with the algorithm's
// approximation bound and the wall time.
//
// Errors follow the package's sentinel scheme: ErrBadQuery wraps for an
// unknown algorithm or out-of-domain options, ErrUnknownKeyword for a
// keyword absent from the vocabulary, ErrNoRoute when no feasible route
// exists, and a wrapped context error when ctx fires mid-search. A Greedy
// run that covers the keywords but overshoots Δ returns both the routes and
// ErrBudgetExceeded.
func (e *Engine) Run(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	resp, err := e.run(ctx, req)
	if e.met != nil {
		e.met.observe(resp, err, time.Since(start))
	}
	return resp, err
}

// run is Run without the instrumentation wrapper. Early-error returns carry
// the resolved Algorithm whenever one was resolved, so the metrics wrapper
// can attribute the failure.
func (e *Engine) run(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One snapshot load up front: the whole request — vocabulary lookups,
	// key, search, response annotation — runs against this snapshot, so a
	// concurrent Swap or Patch never mixes two graph versions inside one
	// query.
	sn := e.snap.Load()
	p, err := sn.prepare(req)
	if err != nil {
		return Response{Algorithm: p.algo}, err
	}
	start := time.Now()
	search := func() (Response, error) {
		res, err := sn.searcher.Run(ctx, p.algo, p.q, p.opts)
		return Response{
			Routes:    res.Routes,
			Algorithm: p.algo,
			Bound:     core.BoundFor(p.algo, p.opts),
			Metrics:   res.Metrics,
			Elapsed:   time.Since(start),
			Snapshot:  sn.info,
			graph:     sn.g,
		}, err
	}
	key, ok := p.key(sn.info.Generation)
	if !ok {
		// A tracer observes side effects; the request can be neither cached
		// nor shared with others, so it searches privately.
		return search()
	}
	resp, err := e.results.answer(ctx, key, start, search)
	// Every answer under key ran p.algo: the key encodes it.
	resp.Algorithm = p.algo
	return resp, err
}

// prepared is a Request resolved against one snapshot: the canonical
// algorithm, the effective options and the core query.
type prepared struct {
	algo Algorithm
	opts Options
	q    core.Query
}

// prepare resolves req against the snapshot: it parses the algorithm,
// applies and validates the options, and looks the keywords up in the
// snapshot's vocabulary. p.algo is set whenever the algorithm parsed, even
// when a later step fails.
func (sn *snapshot) prepare(req Request) (p prepared, err error) {
	if p.algo, err = core.ParseAlgorithm(string(req.Algorithm)); err != nil {
		return p, err
	}
	p.opts = DefaultOptions()
	if req.Options != nil {
		p.opts = *req.Options
	}
	if req.K != 0 {
		p.opts.K = req.K
	}
	if err := p.opts.Validate(); err != nil {
		return p, err
	}
	p.q = core.Query{Source: req.From, Target: req.To, Keywords: make([]Term, 0, len(req.Keywords)), Budget: req.Budget}
	for _, kw := range req.Keywords {
		t, ok := sn.g.Vocab().Lookup(kw)
		if !ok {
			return p, fmt.Errorf("%w: %q", ErrUnknownKeyword, kw)
		}
		p.q.Keywords = append(p.q.Keywords, t)
	}
	return p, nil
}
