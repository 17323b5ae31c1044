package core

import (
	"context"

	"kor/internal/pqueue"
)

// OSScaling answers the KOR query with Algorithm 1 of the paper: a label
// search over the scaled graph G_S. The returned route's objective score is
// at most 1/(1−ε) times the optimum (Theorem 2). With opts.K > 1 it answers
// the KkR query, returning up to k routes under k-domination.
//
// Two deliberate deviations from the pseudocode, both noted in DESIGN.md:
// the budget comparisons use ≤ Δ (Definition 4 and Example 2 use ≤ where
// the pseudocode writes <), and the source label is itself checked for full
// coverage (the pseudocode only checks newly created labels, silently
// missing queries whose source already covers every keyword).
func (s *Searcher) OSScaling(q Query, opts Options) (Result, error) {
	return s.OSScalingCtx(context.Background(), q, opts)
}

// OSScalingCtx is OSScaling with cancellation: the label loop polls ctx and
// returns a wrapped ctx error (errors.Is-compatible with context.Canceled /
// context.DeadlineExceeded) once it fires.
func (s *Searcher) OSScalingCtx(ctx context.Context, q Query, opts Options) (Result, error) {
	p, err := s.newPlan(ctx, q, opts)
	if err != nil {
		return Result{}, err
	}
	return p.runOSScaling()
}

func (p *plan) runOSScaling() (Result, error) {
	defer p.close()

	// A feasible route needs the target reachable within Δ at all.
	if sbs, ok := p.sigBudgetTo(p.q.Source); !ok || sbs > p.q.Budget {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}

	cands := newCandidateSet(p.opts.K)
	store := newLabelStore(p.sc, p.opts.K, &p.metrics, p.opts.Tracer)
	queue := pqueue.New(func(a, b *label) bool { return a.less(b) })

	start := p.startLabel()
	store.tryInsert(start)
	if start.covered.Covers(p.qMask) {
		tos, tbs, ok := p.tauTo(p.q.Source)
		if ok && start.bs+tbs <= p.q.Budget {
			if _, err := cands.offer(p, start, tos, tbs); err != nil {
				return Result{Metrics: p.metrics}, err
			}
			p.metrics.Feasible++
			p.trace(TraceUpperBound, start, cands.bound())
		}
	}
	queue.Push(start)
	p.metrics.LabelsEnqueued++

	for !queue.Empty() {
		if err := p.checkCtx(); err != nil {
			return Result{Metrics: p.metrics}, err
		}
		l := queue.Pop()
		if l.deleted {
			continue
		}
		p.metrics.LabelsDequeued++
		p.trace(TraceDequeued, l, cands.bound())

		// Line 7: the label cannot contribute when even its best completion
		// exceeds the upper bound.
		tos, _, ok := p.tauTo(l.node)
		if !ok {
			continue
		}
		if l.os+tos > cands.bound() {
			p.metrics.PrunedBound++
			p.trace(TracePrunedBound, l, cands.bound())
			continue
		}

		// Label treatment over every outgoing edge, each child through
		// Algorithm 1's creation-time checks.
		for _, e := range p.s.g.Out(l.node) {
			if err := p.admitOSS(p.newLabel(l, e), store, queue, cands); err != nil {
				return Result{Metrics: p.metrics}, err
			}
		}
		if p.metrics.LabelsCreated > p.opts.MaxExpansions {
			return Result{Metrics: p.metrics}, ErrSearchLimit
		}
	}

	routes := cands.take()
	if len(routes) == 0 {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}
	return Result{Routes: routes, Metrics: p.metrics}, nil
}

// admitOSS applies the creation-time checks of Algorithm 1 (line 10 and
// lines 16–20) to a child label.
func (p *plan) admitOSS(child *label, store *labelStore, queue *pqueue.Heap[*label], cands *candidateSet) error {
	p.trace(TraceCreated, child, cands.bound())

	// Budget feasibility through the best σ tail.
	sbs, ok := p.sigBudgetTo(child.node)
	if !ok || child.bs+sbs > p.q.Budget {
		p.metrics.PrunedBudget++
		p.trace(TracePrunedBudget, child, cands.bound())
		return nil
	}
	// τ exists whenever σ does: both witness reachability.
	tos, tbs, _ := p.tauTo(child.node)

	u := cands.bound()
	if child.os+tos >= u { // never fires while u is +Inf
		p.metrics.PrunedBound++
		p.trace(TracePrunedBound, child, u)
		return nil
	}
	if p.strategy2Prune(child, u) {
		return nil
	}

	if !store.tryInsert(child) {
		return nil
	}

	coversAll := child.covered.Covers(p.qMask)
	if coversAll && child.bs+tbs <= p.q.Budget {
		// Lines 17–19: a feasible route exists; update U and remember it.
		changed, err := cands.offer(p, child, tos, tbs)
		if err != nil {
			return err
		}
		p.metrics.Feasible++
		p.trace(TraceFeasible, child, cands.bound())
		if changed {
			p.trace(TraceUpperBound, child, cands.bound())
		}
		// The plain query stops extending here (the best completion of this
		// label is exactly the candidate just recorded); KkR keeps the label
		// alive because suboptimal completions may still rank in the top k.
		if p.opts.K == 1 {
			return nil
		}
	}
	queue.Push(child)
	p.metrics.LabelsEnqueued++
	if n := queue.Len(); n > p.metrics.PeakQueue {
		p.metrics.PeakQueue = n
	}
	p.trace(TraceEnqueued, child, cands.bound())
	return nil
}
