package core

import (
	"context"
	"math"

	"kor/internal/bitset"
	"kor/internal/graph"
)

// Exact answers the KOR query exactly by running the Algorithm 1 machinery
// without objective scaling: labels carry the raw objective score (encoded
// order-preservingly into the scaled slot), so domination never merges
// routes the way ε-scaling does and the returned route is optimal. The
// search remains exponential in the worst case — it exists to validate the
// approximation bounds of the fast algorithms, matching the role of the
// paper's brute-force comparison in §4.2.2.
func (s *Searcher) Exact(q Query, opts Options) (Result, error) {
	return s.ExactCtx(context.Background(), q, opts)
}

// ExactCtx is Exact with cancellation — essential here, since the exact
// search is the one most likely to need a deadline on adversarial inputs.
func (s *Searcher) ExactCtx(ctx context.Context, q Query, opts Options) (Result, error) {
	p, err := s.newPlan(ctx, q, opts)
	if err != nil {
		return Result{}, err
	}
	p.exact = true
	return p.runOSScaling()
}

// exactScaled encodes a positive float objective into an int64 whose
// ordering matches the float ordering, letting the exact search reuse the
// scaled-score label machinery without loss.
func exactScaled(os float64) int64 {
	return int64(math.Float64bits(os))
}

// BruteForce is the §3.2 exhaustive baseline: enumerate every candidate
// path from the source with only the budget limit for pruning, checking
// coverage when the target is reached. Complexity O(d^⌊Δ/b_min⌋); the cap
// bounds the damage, returning ErrSearchLimit when exceeded — the analogue
// of the paper's runs that "cannot finish after 1 day".
func (s *Searcher) BruteForce(q Query, maxExpansions int) (Result, error) {
	return s.BruteForceCtx(context.Background(), q, maxExpansions)
}

// BruteForceCtx is BruteForce with cancellation, polled once per dequeued
// partial path.
func (s *Searcher) BruteForceCtx(ctx context.Context, q Query, maxExpansions int) (Result, error) {
	// The enumeration does not read strategy 2: disabling it skips its
	// oracle prefetching.
	opts := DefaultOptions()
	opts.DisableStrategy2 = true
	p, err := s.newPlan(ctx, q, opts)
	if err != nil {
		return Result{}, err
	}
	defer p.close()
	if maxExpansions <= 0 {
		maxExpansions = 1_000_000
	}

	best := Route{Objective: math.Inf(1)}
	found := false

	// Plain FIFO over partial paths, parent-linked for reconstruction.
	type pathNode struct {
		node   graph.NodeID
		os, bs float64
		mask   bitset.Mask
		parent *pathNode
	}
	start := &pathNode{node: q.Source, mask: p.nodeMask[q.Source]}
	queue := []*pathNode{start}
	expansions := 0

	for len(queue) > 0 {
		if err := p.checkCtx(); err != nil {
			return Result{Metrics: p.metrics}, err
		}
		cur := queue[0]
		queue = queue[1:]

		if cur.node == q.Target && cur.mask.Covers(p.qMask) && cur.bs <= q.Budget {
			if cur.os < best.Objective {
				var nodes []graph.NodeID
				for x := cur; x != nil; x = x.parent {
					nodes = append(nodes, x.node)
				}
				for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
					nodes[i], nodes[j] = nodes[j], nodes[i]
				}
				best = Route{
					Nodes:     nodes,
					Objective: cur.os,
					Budget:    cur.bs,
					CoversAll: true,
					Feasible:  true,
				}
				found = true
			}
		}

		for _, e := range s.g.Out(cur.node) {
			bs := cur.bs + e.Budget
			if bs > q.Budget {
				continue
			}
			expansions++
			if expansions > maxExpansions {
				if found {
					return Result{Routes: []Route{best}, Metrics: p.metrics}, ErrSearchLimit
				}
				return Result{Metrics: p.metrics}, ErrSearchLimit
			}
			queue = append(queue, &pathNode{
				node:   e.To,
				os:     cur.os + e.Objective,
				bs:     bs,
				mask:   cur.mask.Union(p.nodeMask[e.To]),
				parent: cur,
			})
		}
	}
	p.metrics.LabelsCreated = expansions
	if !found {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}
	return Result{Routes: []Route{best}, Metrics: p.metrics}, nil
}
