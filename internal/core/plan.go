package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"kor/internal/apsp"
	"kor/internal/bitset"
	"kor/internal/graph"
)

// plan is the per-query pre-computation shared by the label algorithms:
// keyword bit assignment, per-node coverage masks, the scaling factor θ and
// strategy-2 infrequent-keyword nodes, plus oracle access tuned to the
// query. Its scratch tables and label arena are pooled; every search entry
// point must close the plan when it returns.
type plan struct {
	s    *Searcher
	q    Query
	opts Options

	// ctx carries the query's cancellation/deadline; the label loops poll it
	// through checkCtx. Never nil (newPlan substitutes context.Background).
	ctx     context.Context
	ctxTick uint

	// sc is the pooled per-query scratch; nil once the plan is closed.
	sc *planScratch
	// postings holds each term's posting list, parallel to terms. Fetched
	// once: plan setup, the strategy-2 candidates and scratch reset all walk
	// them, and graph.MemIndex decodes a list on every Postings call.
	postings [][]graph.NodeID

	terms    []graph.Term // deduplicated query keywords, bit i ↔ terms[i]
	qMask    bitset.Mask
	nodeMask []bitset.Mask // query-keyword coverage per node (aliases sc.nodeMask)

	theta float64 // θ = ε·o_min·b_min/Δ (Definition in §3.2)

	// Strategy 2: the nodes carrying the least frequent query keyword (with
	// their precomputed completions into the target) and that keyword's bit,
	// when its document frequency is under threshold. Nodes that cannot reach
	// the target within Δ are dropped at plan time, and on an oracle that
	// runs sweeps so are those no route from the source can pass within Δ
	// (pruneCandidates).
	infreqBit int
	infreq    []viaNode

	// tailSig and tailTau are the σ and τ vectors into the target, resolved
	// on first use (apsp.Vector): every admission check reads them. On an
	// oracle that runs sweeps every vector is the plan's own. σ is a sweep
	// truncated at Δ, and the strategy-2 vectors on viaNode are truncated
	// likewise (σ at Δ−BS(σ(c,t)) and to the source frontier's ellipse, τ at
	// the upper bound U); the truncations only drop nodes whose answers could
	// never matter to this query. τ is the frontier tgt, grown only as far as
	// it is read: the label algorithms read τ(v, target) only at nodes whose
	// σ(v, target) already fits Δ (newPlan's strategy-2 loop keeps that order
	// too), so it settles no further than the τ distance of the farthest node
	// σ admits. The plan holds each vector for its life, so scores and
	// reconstructed paths come off the same one.
	tailSig, tailTau apsp.Vector
	// Greedy scores keyword nodes against its current waypoint and against
	// the target with no σ filter in front, so on an oracle that runs sweeps
	// it reads the τ tail tgt and frontiers out of each waypoint (out; a
	// later beam branch at the same waypoint resumes it), each grown only as
	// far as Equation 1 can still change a pick (greedy.go). Every frontier
	// closes with the plan.
	tgt *apsp.Frontier
	out map[graph.NodeID]*apsp.Frontier
	// src is the σ frontier out of the source that pruneCandidates opens on
	// an oracle that runs sweeps. It stays open for the plan's life: every
	// σ candidate sweep is restricted to it (sigInto), which advances it on
	// demand.
	src *apsp.Frontier

	// exact switches the label machinery to exact mode: the "scaled" slot
	// carries an order-preserving encoding of the raw objective instead of
	// ⌊OS/θ⌋, turning OSScaling into the exact branch-and-bound of Exact.
	exact bool

	metrics Metrics
	seq     uint64
}

// viaNode is one strategy-2 keyword node with its completions into the
// target: OS(τ(node, target)) and BS(σ(node, target)).
type viaNode struct {
	node graph.NodeID
	osLT float64
	bsLT float64

	sig, tau apsp.Vector // σ(·, node) and τ(·, node), resolved on first touch
}

// newPlan validates the query and assembles the plan. A nil ctx means no
// cancellation; an already-cancelled ctx fails here, before any search work.
// The returned plan holds pooled scratch: callers must arrange for close to
// run when the search finishes.
func (s *Searcher) newPlan(ctx context.Context, q Query, opts Options) (*plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("kor: search aborted: %w", err)
	}
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if err := s.validate(q); err != nil {
		return nil, err
	}
	if s.g.NumEdges() == 0 {
		return nil, fmt.Errorf("%w: graph has no edges", ErrBadQuery)
	}

	p := &plan{s: s, q: q, opts: opts, ctx: ctx, infreqBit: -1}

	// Deduplicate keywords, keeping first-seen order for bit stability.
	seen := make(map[graph.Term]bool, len(q.Keywords))
	for _, t := range q.Keywords {
		if !seen[t] {
			seen[t] = true
			p.terms = append(p.terms, t)
		}
	}
	if len(p.terms) > bitset.MaxWidth {
		return nil, fmt.Errorf("%w: %d distinct keywords exceed %d", ErrBadQuery, len(p.terms), bitset.MaxWidth)
	}
	p.qMask = bitset.Full(len(p.terms))

	// All validation is done: check out pooled scratch. Everything past this
	// point must keep the plan closeable.
	p.sc = s.getScratch()
	p.nodeMask = p.sc.nodeMask

	// Coverage masks via the inverted file, and the rarest keyword: the
	// first of least document frequency.
	p.postings = make([][]graph.NodeID, len(p.terms))
	rarest := 0
	for bit, t := range p.terms {
		post := s.index.Postings(t)
		p.postings[bit] = post
		if len(post) < len(p.postings[rarest]) {
			rarest = bit
		}
		for _, v := range post {
			p.nodeMask[v] = p.nodeMask[v].With(bit)
		}
	}

	// θ: scale objective values to integers (§3.2). Edge attributes are
	// validated positive, so θ > 0 whenever the graph has edges.
	p.theta = opts.Epsilon * s.g.MinObjective() * s.g.MinBudget() / q.Budget

	// Strategy 2: pick the least frequent keyword if it is rare enough, and
	// precompute each of its nodes' completions into the target. Nodes that
	// cannot reach the target, or only past Δ, can never keep a label alive
	// and are dropped here.
	if !opts.DisableStrategy2 && len(p.terms) > 0 {
		df := len(p.postings[rarest])
		threshold := int(opts.InfrequentFraction * float64(s.g.NumNodes()))
		if threshold < 1 {
			threshold = 1
		}
		if df > 0 && df <= threshold {
			p.infreqBit = rarest
			for _, v := range p.postings[rarest] {
				// σ first: τ is read only where σ fits Δ (see tailTau).
				bsLT, okS := p.sigBudgetTo(v)
				if !okS || bsLT > q.Budget {
					continue
				}
				osLT, _, okT := p.tauTo(v)
				if !okT {
					continue
				}
				p.infreq = append(p.infreq, viaNode{node: v, osLT: osLT, bsLT: bsLT})
			}
			if len(p.infreq) == 0 {
				p.infreqBit = -1 // every keyword node is unreachable within Δ
			}
		}
	}
	p.pruneCandidates()
	return p, nil
}

// pruneCandidates drops, on an oracle that runs sweeps, the strategy-2
// candidates no label of this query can use: those outside the ellipse
// BS(σ(s,c)) + BS(σ(c,t)) ≤ Δ. The selection above keeps the Δ-disc around
// the target, and on such an oracle each kept candidate costs a sweep the
// first time a label reads it. One plan-private forward σ frontier out of
// the source, p.src, settles the candidates in budget order and stops, per
// candidate, where the ellipse ends. The frontier stays open: the candidate
// sweeps read it too (sigInto).
//
// The answers cannot change. Their reader, strategy2Prune, rejects a label
// at v with l.bs + BS(σ(v,c)) + BS(σ(c,t)) > Δ. l.bs is the budget of a real
// walk s→v, so l.bs + BS(σ(v,c)) ≥ BS(σ(s,c)): a candidate outside the
// ellipse fails that check for every label. The frontier's scores are bit
// for bit those of a forward sweep, and sweepSlack covers the association
// of the reader's reverse sums, as it does for the candidate sweeps
// themselves. An emptied list keeps infreqBit: a label lacking the rare
// keyword is then pruned, as it would be by a list whose nodes all fail the
// budget check.
//
// Table-backed oracles open no frontier and keep every candidate: a lookup
// there costs no sweep.
func (p *plan) pruneCandidates() {
	if len(p.infreq) == 0 {
		return
	}
	p.src = p.openFrontier(p.q.Source, apsp.ByBudget, true)
	if p.src == nil {
		return
	}
	limit := p.q.Budget + sweepSlack*p.q.Budget
	p.infreq = slices.DeleteFunc(p.infreq, func(via viaNode) bool { return !p.src.Within(via.node, limit-via.bsLT) })
}

// close returns the plan's pooled scratch. Idempotent; the plan is unusable
// afterwards. Every search entry point defers it.
func (p *plan) close() {
	if p.sc == nil {
		return
	}
	sc := p.sc
	p.sc = nil
	p.nodeMask = nil
	p.s.putScratch(sc, p.postings)
	if p.tgt != nil {
		p.tgt.Close()
	}
	if p.src != nil {
		p.src.Close()
	}
	for _, f := range p.out {
		f.Close()
	}
}

// sweepSlack widens the candidate bound Δ − BS(σ(c,t)), relative to Δ: the
// comparisons that re-check each read add the same terms in another order,
// and their rounding (a few ulps of Δ) must never accept a node the sweep
// left out. A wider sweep is always safe.
const sweepSlack = 1e-9

// sigTail returns the σ vector into the target, truncated at Δ on an oracle
// that runs sweeps: every reader compares what it finds with Δ and treats a
// node the sweep left out like one past the budget.
func (p *plan) sigTail() apsp.Vector {
	if p.tailSig == nil {
		p.tailSig, _ = apsp.Into(p.s.oracle, p.q.Target, apsp.ByBudget, p.q.Budget, nil)
	}
	return p.tailSig
}

// tauTail returns the τ vector into the target: the target frontier on an
// oracle that runs sweeps (openTargetFrontier), the full vector on any other.
func (p *plan) tauTail() apsp.Vector {
	if p.tailTau == nil && !p.openTargetFrontier() {
		p.tailTau, _ = apsp.Into(p.s.oracle, p.q.Target, apsp.ByObjective, math.Inf(1), nil)
	}
	return p.tailTau
}

// sigBudgetTo returns the budget score of σ(v, target).
func (p *plan) sigBudgetTo(v graph.NodeID) (float64, bool) {
	_, bs, ok := p.sigTail().Scores(v)
	return bs, ok
}

// tauTo returns the scores of τ(v, target).
func (p *plan) tauTo(v graph.NodeID) (float64, float64, bool) {
	return p.tauTail().Scores(v)
}

// candidate returns the vector in *slot, resolving on first use the one into
// root under m, truncated at bound — and restricted to src when it is not
// nil — on an oracle that runs sweeps; a sweep counts in PlanSweeps.
func (p *plan) candidate(slot *apsp.Vector, root graph.NodeID, m apsp.Metric, bound float64, src *apsp.Frontier) apsp.Vector {
	if *slot == nil {
		v, ran := apsp.Into(p.s.oracle, root, m, bound, src)
		if ran {
			p.metrics.PlanSweeps++
		}
		*slot = v
	}
	return *slot
}

// sigInto returns the budget score of σ(from, via.node) for a strategy-2
// keyword node, off the candidate's σ vector. strategy2Prune rejects a
// σ(v, via) with l.bs + BS(σ(v,via)) + BS(σ(via,t)) > Δ for a label at v,
// whose l.bs ≥ BS(σ(s,v)), so nothing past Δ − BS(σ(via,t)) is ever
// accepted and a sweep stops there (plus sweepSlack). Nor is any node v with
// BS(σ(s,v)) + BS(σ(v,via)) past that bound, so the sweep is restricted to
// the ellipse the source frontier draws: every node on the optimal path
// v→via of a node inside it lies inside it too, so it holds v with the
// scores of the unrestricted sweep. ok=false means "no path that still
// leaves budget for the tail", which strategy2Prune treats identically to
// unreachable.
func (p *plan) sigInto(from graph.NodeID, via *viaNode) (float64, bool) {
	_, bs, ok := p.candidate(&via.sig, via.node, apsp.ByBudget, p.q.Budget-via.bsLT+sweepSlack*p.q.Budget, p.src).Scores(from)
	return bs, ok
}

// tauObjInto returns the objective score of τ(from, via.node) for a
// strategy-2 keyword node, off the candidate's τ vector. On an oracle that
// runs sweeps it is truncated at U−OS(τ(via,t)) as of its first use: U only
// shrinks, so a node past the truncation can never satisfy the objective
// condition later either. The bound is negative when the via node's tail
// alone exceeds U; the sweep then holds its root only.
func (p *plan) tauObjInto(from graph.NodeID, via *viaNode, u float64) (float64, bool) {
	os, _, ok := p.candidate(&via.tau, via.node, apsp.ByObjective, u-via.osLT, nil).Scores(from)
	return os, ok
}

// openTargetFrontier opens the τ frontier into the target, which then serves
// as the plan's τ tail. It reports false on an oracle that runs no sweeps.
func (p *plan) openTargetFrontier() bool {
	p.tgt = p.openFrontier(p.q.Target, apsp.ByObjective, false)
	if p.tgt == nil {
		return false
	}
	p.tailTau = p.tgt
	return true
}

// outFrontier returns (opening on first use) the τ frontier out of waypoint
// from.
func (p *plan) outFrontier(from graph.NodeID) *apsp.Frontier {
	f := p.out[from]
	if f == nil {
		f = p.openFrontier(from, apsp.ByObjective, true)
		if p.out == nil {
			p.out = make(map[graph.NodeID]*apsp.Frontier)
		}
		p.out[from] = f
	}
	return f
}

// openFrontier opens a plan-private frontier around root under m, nil on an
// oracle that runs no sweeps. It counts in PlanSweeps: the query pays for
// all of it.
func (p *plan) openFrontier(root graph.NodeID, m apsp.Metric, outbound bool) *apsp.Frontier {
	f := apsp.OpenFrontier(p.s.oracle, root, m, outbound)
	if f != nil {
		p.metrics.PlanSweeps++
	}
	return f
}

// ctxCheckEvery is how many checkCtx calls elapse between real ctx polls.
// Polling every iteration would put a synchronized Err() call in the hottest
// loop; every 64th keeps cancellation latency well under a millisecond on
// any realistic label rate.
const ctxCheckEvery = 64

// checkCtx polls the plan's context, returning its error (wrapped, so
// errors.Is(err, context.Canceled) holds) once the context is done. Call it
// from every search loop.
func (p *plan) checkCtx() error {
	p.ctxTick++
	if p.ctxTick%ctxCheckEvery != 0 {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("kor: search aborted: %w", err)
	}
	return nil
}

// scaledObjective is ô = ⌊o/θ⌋, saturating to keep int64 arithmetic safe
// when ε, o_min or b_min make θ extremely small.
func (p *plan) scaledObjective(o float64) int64 {
	r := o / p.theta
	if r >= math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	return int64(r)
}

// newLabel runs the label treatment step (Definition 7) along edge
// (cur.node → e.To).
func (p *plan) newLabel(cur *label, e graph.Edge) *label {
	p.seq++
	p.metrics.LabelsCreated++
	l := p.sc.arena.alloc()
	l.node = e.To
	l.covered = cur.covered.Union(p.nodeMask[e.To])
	l.os = cur.os + e.Objective
	l.bs = cur.bs + e.Budget
	l.parent = cur
	l.hash = extendRouteHash(cur.hash, e.To)
	l.seq = p.seq
	if p.exact {
		l.scaled = exactScaled(l.os)
	} else {
		l.scaled = cur.scaled + p.scaledObjective(e.Objective)
	}
	return l
}

// startLabel is the source label L0s = (vs.ψ, 0, 0, 0).
func (p *plan) startLabel() *label {
	p.seq++
	l := p.sc.arena.alloc()
	l.node = p.q.Source
	l.covered = p.nodeMask[p.q.Source]
	l.hash = extendRouteHash(routeHashSeed, p.q.Source)
	l.seq = p.seq
	return l
}

// trace emits a tracer event if a tracer is configured.
func (p *plan) trace(kind TraceKind, l *label, u float64) {
	if p.opts.Tracer == nil {
		return
	}
	p.opts.Tracer.Trace(TraceEvent{Kind: kind, Label: l.view(), U: u})
}

// strategy2Prune applies optimization strategy 2: a label not yet covering
// the infrequent keyword can be discarded when, through every node l that
// carries it, either the objective bound exceeds U or the budget bound
// exceeds Δ. The budget condition is checked first: it needs only the
// Δ-bounded σ sweeps, and while U is still +Inf the objective condition is
// vacuous, so no τ lookup happens at all before the first feasible route.
func (p *plan) strategy2Prune(l *label, u float64) bool {
	if p.infreqBit < 0 || l.covered.Has(p.infreqBit) {
		return false
	}
	uInf := math.IsInf(u, 1)
	for i := range p.infreq {
		via := &p.infreq[i]
		bsIL, ok := p.sigInto(l.node, via)
		if !ok || l.bs+bsIL+via.bsLT > p.q.Budget {
			continue // cannot route through this node within Δ
		}
		if uInf {
			return false // budget fits and the objective bound is vacuous
		}
		osIL, ok := p.tauObjInto(l.node, via, u)
		if !ok || l.os+osIL+via.osLT > u {
			continue
		}
		return false // this keyword node keeps the label alive
	}
	p.metrics.PrunedStrategy2++
	p.trace(TracePrunedStrategy2, l, u)
	return true
}
