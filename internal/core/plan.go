package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kor/internal/apsp"
	"kor/internal/bitset"
	"kor/internal/graph"
)

// plan is the per-query pre-computation shared by the label algorithms:
// keyword bit assignment, per-node coverage masks, the scaling factor θ,
// strategy-1 candidate nodes and strategy-2 infrequent-keyword nodes, plus
// oracle access tuned to the query. Its scratch tables and label arena are
// pooled; every search entry point must close the plan when it returns.
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
	// once: plan setup, the strategy candidates and scratch reset all walk
	// them, and a disk-backed index must not be re-read for each.
	postings [][]graph.NodeID

	terms    []graph.Term // deduplicated query keywords, bit i ↔ terms[i]
	qMask    bitset.Mask
	nodeMask []bitset.Mask // query-keyword coverage per node (aliases sc.nodeMask)

	theta float64 // θ = ε·o_min·b_min/Δ (Definition in §3.2)

	// Strategy 1: nodes carrying uncovered query keywords, each with the
	// mask of query keywords it carries and its σ-tail budget into the
	// target, ordered by rarest keyword first. Nodes that cannot reach the
	// target within Δ are dropped at plan time.
	jumpNodes []jumpNode

	// Strategy 2: the nodes carrying the least frequent query keyword (with
	// their precomputed completions into the target) and that keyword's bit,
	// when its document frequency is under threshold.
	infreqBit int
	infreq    []viaNode

	// Bounded sweeps: on a sweep-backed (lazy) oracle the plan asks it for
	// reverse sweeps truncated at what this query's budget can still reach,
	// instead of forcing full-graph sweeps — into the target (σ at Δ, τ as
	// far as that σ sweep reaches) and into its candidate nodes, the
	// strategy-1 jump nodes and strategy-2 keyword nodes (σ at Δ−BS(σ(c,t)),
	// strategy-2 τ at the upper bound U). The truncations only drop nodes
	// whose answers could never matter to this query. The oracle may serve a
	// wider sweep another query paid for, so every score read off one is
	// re-checked against this query's own Δ or U. sweeper is nil on
	// table-backed oracles; the fields and maps pin resolved sweeps for the
	// plan's life, so scores and reconstructed paths come off the same sweep
	// and an eviction mid-query cannot change the answer.
	sweeper    apsp.OnDemand
	targetSig  *apsp.Sweep // σ(·, target), resolved on first use
	targetTau  *apsp.Sweep // τ(·, target), resolved on first use
	boundedSig map[graph.NodeID]*apsp.Sweep
	tauVia     map[graph.NodeID]*apsp.Sweep
	// Greedy scores keyword nodes against its current waypoint and against
	// the target with no σ filter in front, so on a sweep-backed oracle it
	// reads plan-private frontiers instead of sweeps: tgt runs τ into the
	// target, out runs τ out of each waypoint (a later beam branch at the
	// same waypoint resumes it). Each is grown only as far as Equation 1 can
	// still change a pick (greedy.go) and closed with the plan.
	tgt *apsp.Frontier
	out map[graph.NodeID]*apsp.Frontier

	// sliced: the oracle serves per-target score views (apsp.SliceIndexed).
	// The plan resolves the two target slices eagerly — every admission check
	// reads them — and the per-candidate slices lazily on first touch, cached
	// on the candidate structs, so the hot lookups are array reads through
	// TargetSlice.Scores instead of border×border table assemblies.
	sliced      bool
	sliceOracle apsp.SliceIndexed
	tailTau     *apsp.TargetSlice // τ(·, target) scores
	tailSig     *apsp.TargetSlice // σ(·, target) scores

	// exact switches the label machinery to exact mode: the "scaled" slot
	// carries an order-preserving encoding of the raw objective instead of
	// ⌊OS/θ⌋, turning OSScaling into the exact branch-and-bound of Exact.
	exact bool

	metrics Metrics
	seq     uint64
}

type jumpNode struct {
	node   graph.NodeID
	mask   bitset.Mask
	tailBS float64 // BS(σ(node, target)), precomputed at plan time

	// sig caches the σ slice into this candidate on sliced oracles,
	// resolved on first touch by any label.
	sig *apsp.TargetSlice
}

// viaNode is one strategy-2 keyword node with its completions into the
// target: OS(τ(node, target)) and BS(σ(node, target)).
type viaNode struct {
	node graph.NodeID
	osLT float64
	bsLT float64

	// sig/tau cache the slices into this candidate on sliced oracles,
	// resolved on first touch by any label.
	sig *apsp.TargetSlice
	tau *apsp.TargetSlice
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

	// Coverage masks via the inverted file.
	p.postings = make([][]graph.NodeID, len(p.terms))
	type termFreq struct {
		bit int
		df  int
	}
	freqs := make([]termFreq, len(p.terms))
	for bit, t := range p.terms {
		post := s.index.Postings(t)
		p.postings[bit] = post
		freqs[bit] = termFreq{bit: bit, df: len(post)}
		for _, v := range post {
			p.nodeMask[v] = p.nodeMask[v].With(bit)
		}
	}
	sort.Slice(freqs, func(i, j int) bool {
		if freqs[i].df != freqs[j].df {
			return freqs[i].df < freqs[j].df
		}
		return freqs[i].bit < freqs[j].bit
	})

	// θ: scale objective values to integers (§3.2). Edge attributes are
	// validated positive, so θ > 0 whenever the graph has edges.
	p.theta = opts.Epsilon * s.g.MinObjective() * s.g.MinBudget() / q.Budget

	if od, ok := s.oracle.(apsp.OnDemand); ok {
		p.sweeper = od
		p.boundedSig = make(map[graph.NodeID]*apsp.Sweep)
		p.tauVia = make(map[graph.NodeID]*apsp.Sweep)
	}
	if so, ok := s.oracle.(apsp.SliceIndexed); ok {
		p.sliced = true
		p.sliceOracle = so
		p.tailTau = so.TargetSlice(q.Target, apsp.ByObjective)
		p.tailSig = so.TargetSlice(q.Target, apsp.ByBudget)
	}

	// The dominant lookups all point into the target. A sweep-backed oracle
	// answers them from the plan's own bounded target sweeps; any other gets
	// the hint.
	if p.sweeper == nil {
		apsp.PrefetchTarget(s.oracle, q.Target)
	}

	// Strategy 1 candidates: uncovered-keyword nodes, rarest keyword first,
	// capped. The σ tail into the target is resolved once per candidate here
	// — it used to be an oracle round-trip per candidate per label — and
	// candidates that cannot reach the target within Δ are dropped outright.
	if !opts.DisableStrategy1 {
		taken := make(map[graph.NodeID]bool)
		for _, tf := range freqs {
			for _, v := range p.postings[tf.bit] {
				if taken[v] || len(p.jumpNodes) >= opts.Strategy1Candidates {
					continue
				}
				taken[v] = true
				tailBS, ok := p.sigBudgetTo(v)
				if !ok || tailBS > q.Budget {
					continue
				}
				p.jumpNodes = append(p.jumpNodes, jumpNode{node: v, mask: p.nodeMask[v], tailBS: tailBS})
			}
			if len(p.jumpNodes) >= opts.Strategy1Candidates {
				break
			}
		}
	}

	// Strategy 2: pick the least frequent keyword if it is rare enough, and
	// precompute each of its nodes' completions into the target. Nodes that
	// cannot reach the target, or only past Δ, can never keep a label alive
	// and are dropped here.
	if !opts.DisableStrategy2 && len(freqs) > 0 {
		rarest := freqs[0]
		threshold := int(opts.InfrequentFraction * float64(s.g.NumNodes()))
		if threshold < 1 {
			threshold = 1
		}
		if rarest.df > 0 && rarest.df <= threshold {
			p.infreqBit = rarest.bit
			for _, v := range p.postings[rarest.bit] {
				osLT, _, okT := p.tauTo(v)
				bsLT, okS := p.sigBudgetTo(v)
				if !okT || !okS || bsLT > q.Budget {
					continue
				}
				p.infreq = append(p.infreq, viaNode{node: v, osLT: osLT, bsLT: bsLT})
			}
			if len(p.infreq) == 0 {
				p.infreqBit = -1 // every keyword node is unreachable within Δ
			}
		}
	}
	return p, nil
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
	for _, f := range p.out {
		f.Close()
	}
}

// tailEntryFor returns v's tail memo slot, resetting it lazily when it still
// carries another query's generation.
func (p *plan) tailEntryFor(v graph.NodeID) *tailEntry {
	sc := p.sc
	if sc.tailGen[v] != sc.gen {
		sc.tailGen[v] = sc.gen
		sc.tail[v] = tailEntry{}
	}
	return &sc.tail[v]
}

// sweepSlack widens the candidate bound Δ − BS(σ(c,t)), relative to Δ: the
// comparisons that re-check each read add the same terms in another order,
// and their rounding (a few ulps of Δ) must never accept a node the sweep
// left out. A wider sweep is always safe.
const sweepSlack = 1e-9

// sigSweep returns (resolving on first use) the plan's σ sweep into the
// target, truncated at Δ: every reader compares what it finds with Δ and
// treats a node the sweep left out like one past the budget.
func (p *plan) sigSweep() *apsp.Sweep {
	if p.targetSig == nil {
		p.targetSig, _ = p.sweeper.ReverseSweep(p.q.Target, apsp.ByBudget, p.q.Budget)
	}
	return p.targetSig
}

// tauSweep returns (resolving on first use) the plan's τ sweep into the
// target. The label algorithms read τ(v, target) only at nodes that passed
// the σ check, so it reaches as far as the σ sweep in hand does and no
// further.
func (p *plan) tauSweep() *apsp.Sweep {
	if p.targetTau == nil {
		p.targetTau, _ = p.sweeper.CoveringSweep(p.q.Target, apsp.ByObjective, p.sigSweep())
	}
	return p.targetTau
}

// openFrontier opens a plan-private τ frontier around root. It counts in
// PlanSweeps: the query pays for all of it.
func (p *plan) openFrontier(root graph.NodeID, outbound bool) *apsp.Frontier {
	p.metrics.PlanSweeps++
	return p.sweeper.Frontier(root, apsp.ByObjective, outbound)
}

// outFrontier returns (opening on first use) the τ frontier out of waypoint
// from.
func (p *plan) outFrontier(from graph.NodeID) *apsp.Frontier {
	f := p.out[from]
	if f == nil {
		f = p.openFrontier(from, true)
		if p.out == nil {
			p.out = make(map[graph.NodeID]*apsp.Frontier)
		}
		p.out[from] = f
	}
	return f
}

// sigToTarget returns the scores of σ(v, target), off the plan's target sweep
// or from the pair interface.
func (p *plan) sigToTarget(v graph.NodeID) (os, bs float64, ok bool) {
	if p.sweeper != nil {
		return p.sigSweep().Scores(v)
	}
	return p.s.oracle.MinBudget(v, p.q.Target)
}

// tauToTarget returns the scores of τ(v, target), off Greedy's target
// frontier (grown until v settles), the plan's target sweep or the pair
// interface.
func (p *plan) tauToTarget(v graph.NodeID) (os, bs float64, ok bool) {
	if p.tgt != nil {
		for !p.tgt.Settled(v) && p.tgt.Next() {
		}
		return p.tgt.Scores(v)
	}
	if p.sweeper != nil {
		return p.tauSweep().Scores(v)
	}
	return p.s.oracle.MinObjective(v, p.q.Target)
}

// pathToTarget materializes τ(from, target) or σ(from, target), walking the
// frontier or sweep that scored it on a sweep-backed oracle.
func (p *plan) pathToTarget(from graph.NodeID, m apsp.Metric) ([]graph.NodeID, bool) {
	switch {
	case p.tgt != nil && m == apsp.ByObjective:
		return p.tgt.WalkFrom(from)
	case p.sweeper != nil && m == apsp.ByObjective:
		return p.tauSweep().WalkFrom(from)
	case p.sweeper != nil:
		return p.sigSweep().WalkFrom(from)
	case m == apsp.ByObjective:
		return p.s.oracle.MinObjectivePath(from, p.q.Target)
	default:
		return p.s.oracle.MinBudgetPath(from, p.q.Target)
	}
}

// sigBudgetTo returns the budget score of σ(v, target), memoized per plan.
// On sliced oracles it is an array read off the plan's target slice.
func (p *plan) sigBudgetTo(v graph.NodeID) (float64, bool) {
	if p.sliced {
		bs, _ := p.tailSig.Scores(v)
		if math.IsInf(bs, 1) {
			return 0, false
		}
		return bs, true
	}
	e := p.tailEntryFor(v)
	if e.flags&tailSigmaDone == 0 {
		_, bs, ok := p.sigToTarget(v)
		e.flags |= tailSigmaDone
		if ok {
			e.flags |= tailSigmaOK
			e.sbs = bs
		}
	}
	if e.flags&tailSigmaOK == 0 {
		return 0, false
	}
	return e.sbs, true
}

// tauTo returns the scores of τ(v, target), memoized per plan. On sliced
// oracles it is one array read off the plan's target slice.
func (p *plan) tauTo(v graph.NodeID) (float64, float64, bool) {
	if p.sliced {
		os, bs := p.tailTau.Scores(v)
		if math.IsInf(os, 1) {
			return 0, 0, false
		}
		return os, bs, true
	}
	e := p.tailEntryFor(v)
	if e.flags&tailTauDone == 0 {
		tos, tbs, ok := p.tauToTarget(v)
		e.flags |= tailTauDone
		if ok {
			e.flags |= tailTauOK
			e.tos, e.tbs = tos, tbs
		}
	}
	if e.flags&tailTauOK == 0 {
		return 0, 0, false
	}
	return e.tos, e.tbs, true
}

// boundedSigSweep returns (resolving on first use) the plan's reverse σ sweep
// into candidate node to — the single source for both score lookups and path
// reconstruction, so the two can never disagree on bound or metric. tailBS is
// BS(σ(to, target)): every reader rejects a σ(v, to) with
// l.bs + BS(σ(v,to)) + tailBS > Δ for some l.bs ≥ 0, so nothing past
// Δ − tailBS is ever accepted and the sweep stops there (plus sweepSlack).
func (p *plan) boundedSigSweep(to graph.NodeID, tailBS float64) *apsp.Sweep {
	sw := p.boundedSig[to]
	if sw == nil {
		sw = p.sharedSweep(to, apsp.ByBudget, p.q.Budget-tailBS+sweepSlack*p.q.Budget)
		p.boundedSig[to] = sw
	}
	return sw
}

// sharedSweep resolves one reverse sweep through the oracle, attributing the
// work: a sweep this plan computed counts in PlanSweeps, one another query
// left resident (or is computing right now) counts in SharedSweeps.
func (p *plan) sharedSweep(root graph.NodeID, m apsp.Metric, bound float64) *apsp.Sweep {
	sw, shared := p.sweeper.ReverseSweep(root, m, bound)
	if shared {
		p.metrics.SharedSweeps++
	} else {
		p.metrics.PlanSweeps++
	}
	return sw
}

// sigInto returns the scores of σ(from, to) for a candidate node to whose σ
// tail into the target costs tailBS. On a sliced oracle the answer comes from
// the candidate's σ slice (resolved on first touch into *slot, so later
// labels pay one array read). On a sweep-backed oracle it is answered from a
// reverse sweep truncated at Δ − tailBS or wider: ok=false then means "no
// path that still leaves budget for the tail", which every caller treats
// identically to unreachable.
func (p *plan) sigInto(from, to graph.NodeID, tailBS float64, slot **apsp.TargetSlice) (os, bs float64, ok bool) {
	if p.sliced {
		ts := *slot
		if ts == nil {
			ts = p.sliceOracle.TargetSlice(to, apsp.ByBudget)
			*slot = ts
		}
		bs, os = ts.Scores(from)
		if math.IsInf(bs, 1) {
			return 0, 0, false
		}
		return os, bs, true
	}
	if p.sweeper == nil {
		return p.s.oracle.MinBudget(from, to)
	}
	return p.boundedSigSweep(to, tailBS).Scores(from)
}

// shortcutPath materializes σ(from, to) for a strategy-1 jump node to,
// walking the very sweep that scored the jump (sweep-backed) or the oracle's
// tables (indexed).
func (p *plan) shortcutPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	if p.sweeper == nil {
		return p.s.oracle.MinBudgetPath(from, to)
	}
	sw := p.boundedSig[to] // pinned when the jump was scored
	if sw == nil {
		return nil, false
	}
	return sw.WalkFrom(from)
}

// tauObjInto returns the objective score of τ(from, via.node) for a
// strategy-2 keyword node, from the candidate's τ slice on sliced oracles.
// On a sweep-backed oracle the sweep is truncated at U−OS(τ(via,t)) (or
// wider) as of its first use: U only shrinks, so a node past the
// truncation can never satisfy the objective condition later either. The
// bound is negative when the via node's tail alone exceeds U; the sweep then
// holds its root only.
func (p *plan) tauObjInto(from graph.NodeID, via *viaNode, u float64) (float64, bool) {
	if p.sliced {
		ts := via.tau
		if ts == nil {
			ts = p.sliceOracle.TargetSlice(via.node, apsp.ByObjective)
			via.tau = ts
		}
		os, _ := ts.Scores(from)
		if math.IsInf(os, 1) {
			return 0, false
		}
		return os, true
	}
	if p.sweeper == nil {
		os, _, ok := p.s.oracle.MinObjective(from, via.node)
		return os, ok
	}
	sw := p.tauVia[via.node]
	if sw == nil {
		sw = p.sharedSweep(via.node, apsp.ByObjective, u-via.osLT)
		p.tauVia[via.node] = sw
	}
	os, _, ok := sw.Scores(from)
	return os, ok
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
	l.approx = cur.approx
	l.seq = p.seq
	if p.exact {
		l.scaled = exactScaled(l.os)
	} else {
		l.scaled = cur.scaled + p.scaledObjective(e.Objective)
	}
	return l
}

// newShortcutLabel builds a strategy-1 jump label following σ(cur.node, to)
// with the given scores.
func (p *plan) newShortcutLabel(cur *label, to graph.NodeID, sigOS, sigBS float64) *label {
	p.seq++
	p.metrics.LabelsCreated++
	p.metrics.ShortcutLabels++
	l := p.sc.arena.alloc()
	l.node = to
	l.covered = cur.covered.Union(p.nodeMask[to])
	l.os = cur.os + sigOS
	l.bs = cur.bs + sigBS
	l.parent = cur
	l.shortcut = true
	// The chain's materialized nodes now include σ's interior; the route
	// signature is recomputed at reconstruction.
	l.approx = true
	l.seq = p.seq
	if p.exact {
		l.scaled = exactScaled(l.os)
	} else {
		// ⌊OS(σ)/θ⌋ under-approximates the hop-by-hop sum of floors; the
		// shortcut is a heuristic for finding a feasible route early and
		// all hard checks use the exact os/bs fields.
		l.scaled = cur.scaled + p.scaledObjective(sigOS)
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
	p.opts.Tracer.Trace(TraceEvent{Kind: kind, Label: l.view(), U: u, Shortcut: l.shortcut})
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
		_, bsIL, ok := p.sigInto(l.node, via.node, via.bsLT, &via.sig)
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
