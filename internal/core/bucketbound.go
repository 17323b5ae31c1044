package core

import (
	"context"
	"math"

	"kor/internal/pqueue"
)

// BucketBound answers the KOR query with Algorithm 2 of the paper. Labels
// are organized into buckets by their best possible objective score
// LOW(L) = L.OS + OS(τ_{L.node, t}) (Lemma 3): bucket r spans
// [βʳ·OS(τ_{s,t}), βʳ⁺¹·OS(τ_{s,t})). Labels are drawn from the first
// non-empty bucket; the first feasible route discovered in that bucket is,
// by Lemma 5, in the same bucket as the OSScaling answer, giving the
// approximation bound β/(1−ε) (Theorem 3) while stopping far earlier.
// With opts.K > 1 it answers the KkR query: the search ends once k distinct
// feasible routes have surfaced from the front bucket.
func (s *Searcher) BucketBound(q Query, opts Options) (Result, error) {
	return s.BucketBoundCtx(context.Background(), q, opts)
}

// BucketBoundCtx is BucketBound with cancellation: the bucket loop polls ctx
// and returns a wrapped ctx error once it fires.
func (s *Searcher) BucketBoundCtx(ctx context.Context, q Query, opts Options) (Result, error) {
	p, err := s.newPlan(ctx, q, opts)
	if err != nil {
		return Result{}, err
	}
	return p.runBucketBound()
}

// bucketRing is the bucket array of Algorithm 2. The front index only moves
// forward: LOW is non-decreasing along any label chain (Lemma 3's bound
// only tightens), so children always land at or after the bucket their
// parent was drawn from.
type bucketRing struct {
	base    float64 // OS(τ_{s,t})
	logBeta float64
	buckets []*pqueue.Heap[*label]
	front   int
	live    int // non-deleted labels across all buckets
}

func newBucketRing(base, beta float64) *bucketRing {
	return &bucketRing{base: base, logBeta: math.Log(beta)}
}

// index maps a LOW score to its bucket number (Definition 9).
func (br *bucketRing) index(low float64) int {
	if low <= br.base {
		return 0 // guards float jitter at the bucket-0 boundary
	}
	r := int(math.Log(low/br.base) / br.logBeta)
	if r < 0 {
		return 0
	}
	return r
}

func (br *bucketRing) push(l *label, low float64) int {
	r := br.index(low)
	if r < br.front {
		r = br.front // float safety; analytically r ≥ front
	}
	for r >= len(br.buckets) {
		br.buckets = append(br.buckets, nil)
	}
	if br.buckets[r] == nil {
		br.buckets[r] = pqueue.New(func(a, b *label) bool { return a.less(b) })
	}
	br.buckets[r].Push(l)
	br.live++
	return r
}

// pop removes the lowest-order label from the first non-empty bucket,
// returning the label and its bucket index, or nil when the ring is empty.
func (br *bucketRing) pop() (*label, int) {
	for br.front < len(br.buckets) {
		b := br.buckets[br.front]
		if b == nil || b.Empty() {
			br.front++
			continue
		}
		l := b.Pop()
		br.live--
		if l.deleted {
			continue
		}
		return l, br.front
	}
	return nil, -1
}

func (p *plan) runBucketBound() (Result, error) {
	defer p.close()

	if sbs, ok := p.sigBudgetTo(p.q.Source); !ok || sbs > p.q.Budget {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}
	base, _, ok := p.tauTo(p.q.Source)
	if !ok {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}
	if base <= 0 {
		// Only possible for source == target (zero-length τ). Definition 9's
		// intervals degenerate; fall back to the smallest edge objective so
		// bucket boundaries stay positive. Documented in DESIGN.md.
		base = p.s.g.MinObjective()
	}

	cands := newCandidateSet(p.opts.K)
	store := newLabelStore(p.sc, p.opts.K, &p.metrics, p.opts.Tracer)
	ring := newBucketRing(base, p.opts.Beta)

	start := p.startLabel()
	store.tryInsert(start)
	startTailOS, startTailBS, startOK := p.tauTo(p.q.Source)
	if start.covered.Covers(p.qMask) && startOK && start.bs+startTailBS <= p.q.Budget {
		// The τ(s,t) completion of the empty route is feasible and its LOW
		// lies in bucket 0 — the front bucket — so Lemma 5 applies at once.
		if _, err := cands.offer(p, start, startTailOS, startTailBS); err != nil {
			return Result{Metrics: p.metrics}, err
		}
		p.metrics.Feasible++
		if cands.full() {
			return Result{Routes: cands.take(), Metrics: p.metrics}, nil
		}
	}
	ring.push(start, start.os+startTailOS)
	p.metrics.LabelsEnqueued++

	for {
		if err := p.checkCtx(); err != nil {
			return Result{Metrics: p.metrics}, err
		}
		l, front := ring.pop()
		if l == nil {
			break
		}
		p.metrics.LabelsDequeued++
		p.trace(TraceDequeued, l, cands.bound())

		// A full-coverage label drawn from the front bucket certifies a
		// feasible route exactly as Lemma 5 does for newly created labels:
		// every earlier bucket is empty and LOW(l) lies in this bucket. The
		// pseudocode only tests at creation (lines 19–23), which strands
		// labels whose bucket was ahead of the front when they were made —
		// e.g. a label already sitting on the target.
		if l.covered.Covers(p.qMask) {
			tos, tbs, ok := p.tauTo(l.node)
			if ok && l.bs+tbs <= p.q.Budget {
				if _, err := cands.offer(p, l, tos, tbs); err != nil {
					return Result{Metrics: p.metrics}, err
				}
				p.metrics.Feasible++
				p.trace(TraceFeasible, l, cands.bound())
				if cands.full() {
					return Result{Routes: cands.take(), Metrics: p.metrics}, nil
				}
			}
		}

		// Label treatment over every outgoing edge, each child through
		// Algorithm 2's creation checks (line 11) and termination test
		// (lines 19–23).
		for _, e := range p.s.g.Out(l.node) {
			done, err := p.admitBB(p.newLabel(l, e), front, store, ring, cands)
			if err != nil {
				return Result{Metrics: p.metrics}, err
			}
			if done {
				return Result{Routes: cands.take(), Metrics: p.metrics}, nil
			}
		}
		if p.metrics.LabelsCreated > p.opts.MaxExpansions {
			return Result{Metrics: p.metrics}, ErrSearchLimit
		}
	}

	// Ring drained before k feasible routes surfaced in a front bucket.
	// Whatever was collected is still correct output for KkR; none at all
	// means no feasible route exists (all partial routes exceeded Δ).
	routes := cands.take()
	if len(routes) == 0 {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}
	return Result{Routes: routes, Metrics: p.metrics}, nil
}

// admitBB applies Algorithm 2's creation checks (line 11) and termination
// test (lines 19–23) to a child label. It reports search completion.
func (p *plan) admitBB(child *label, front int, store *labelStore, ring *bucketRing, cands *candidateSet) (bool, error) {
	p.trace(TraceCreated, child, cands.bound())

	sbs, ok := p.sigBudgetTo(child.node)
	if !ok || child.bs+sbs > p.q.Budget {
		p.metrics.PrunedBudget++
		p.trace(TracePrunedBudget, child, cands.bound())
		return false, nil
	}
	tos, tbs, _ := p.tauTo(child.node)

	if p.strategy2Prune(child, math.Inf(1)) {
		return false, nil
	}
	if !store.tryInsert(child) {
		return false, nil
	}

	bucket := ring.push(child, child.os+tos)
	p.metrics.LabelsEnqueued++
	if ring.live > p.metrics.PeakQueue {
		p.metrics.PeakQueue = ring.live
	}
	p.trace(TraceEnqueued, child, cands.bound())

	// Lines 19–23: a full-coverage label landing in the front bucket whose
	// τ tail fits the budget certifies, via Lemma 5, that the OSScaling
	// answer shares this bucket; the route is good enough to return.
	if child.covered.Covers(p.qMask) && bucket == front && child.bs+tbs <= p.q.Budget {
		if _, err := cands.offer(p, child, tos, tbs); err != nil {
			return false, err
		}
		p.metrics.Feasible++
		p.trace(TraceFeasible, child, cands.bound())
		if cands.full() {
			return true, nil
		}
	}
	return false, nil
}
