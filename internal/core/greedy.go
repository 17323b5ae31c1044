package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"kor/internal/apsp"
	"kor/internal/bitset"
	"kor/internal/graph"
)

// Greedy answers the KOR query with Algorithm 3 of the paper: starting at
// the source, repeatedly pick the next keyword-bearing waypoint minimizing
// Equation 1,
//
//	score(vj, Ri) = α·(Ri.OS + OS(τ(i,j)) + OS(τ(j,t)))
//	              + (1−α)·(Ri.BS + BS(τ(i,j)) + BS(τ(j,t))),
//
// then connect consecutive waypoints with τ paths. opts.Width selects the
// beam: 1 is the paper's Greedy-1, 2 is Greedy-2 (the best two candidates
// branch at every step, worst case O(2^m·n)).
//
// The default keyword-priority mode always covers the query keywords but
// may overrun Δ; the route is then returned together with
// ErrBudgetExceeded so callers can count failures the way Figure 13 does.
// With opts.BudgetPriority the roles flip (§3.4's modification): the route
// respects Δ but may leave keywords uncovered, reported via the route's
// CoversAll flag.
func (s *Searcher) Greedy(q Query, opts Options) (Result, error) {
	return s.GreedyCtx(context.Background(), q, opts)
}

// GreedyCtx is Greedy with cancellation: every beam step polls ctx and
// returns a wrapped ctx error once it fires.
func (s *Searcher) GreedyCtx(ctx context.Context, q Query, opts Options) (Result, error) {
	// Strategy 2 belongs to the label algorithms; disabling it skips the
	// selection and the prune of its candidates.
	opts.DisableStrategy2 = true
	p, err := s.newPlan(ctx, q, opts)
	if err != nil {
		return Result{}, err
	}
	return p.runGreedy()
}

// greedyOutcome is one completed branch of the beam search.
type greedyOutcome struct {
	waypoints []graph.NodeID
	// legs[i] scored the leg from waypoints[i] to waypoints[i+1]: τ
	// everywhere except possibly a σ final leg in budget-priority mode.
	legs    []leg
	os, bs  float64
	covered bitset.Mask // query keywords on the waypoints
}

// leg is the vector that scored one leg and the node it was read at: the
// leg's end on a vector out of its start, its start on one into its end.
type leg struct {
	v  apsp.Vector
	at graph.NodeID
}

func (p *plan) runGreedy() (Result, error) {
	defer p.close()

	if p.opts.BudgetPriority {
		// This variant promises BS ≤ Δ; when even σ(s,t) busts Δ no route
		// can honour that promise.
		if sbs, ok := p.sigBudgetTo(p.q.Source); !ok || sbs > p.q.Budget {
			return Result{Metrics: p.metrics}, ErrNoRoute
		}
	}

	p.keywords.fill = p.keywordNodes
	var best greedyOutcome // no waypoints until a branch completes
	start := greedyOutcome{waypoints: []graph.NodeID{p.q.Source}, covered: p.nodeMask[p.q.Source]}
	if err := p.greedyStep(start, &best); err != nil {
		return Result{Metrics: p.metrics}, err
	}
	if best.waypoints == nil {
		return Result{Metrics: p.metrics}, ErrNoRoute
	}

	route, err := p.materializeGreedy(best)
	if err != nil {
		return Result{Metrics: p.metrics}, err
	}
	res := Result{Routes: []Route{route}, Metrics: p.metrics}
	if !p.opts.BudgetPriority && route.Budget > p.q.Budget {
		return res, ErrBudgetExceeded
	}
	// Budget-priority mode may meet Δ but not the keywords: the flags on the
	// route say so, and no error is raised.
	return res, nil
}

// keywordNodes returns every node carrying a query keyword once, off the
// first posting list that holds it (lines 3–5 of Algorithm 3): what
// Greedy's scan yields where its vector cannot enumerate them.
func (p *plan) keywordNodes() []graph.NodeID {
	total := 0
	for _, post := range p.postings {
		total += len(post)
	}
	nodes := make([]graph.NodeID, 0, total)
	for bit, post := range p.postings {
		for _, v := range post {
			if p.nodeMask[v].Intersect(bitset.Full(bit)).Empty() {
				nodes = append(nodes, v)
			}
		}
	}
	return nodes
}

// greedyStep extends one partial outcome by every beam candidate, recursing
// until the keywords are covered (keyword mode) or no candidate fits the
// budget (budget-priority mode), then completes the route to the target.
func (p *plan) greedyStep(st greedyOutcome, best *greedyOutcome) error {
	cur := st.waypoints[len(st.waypoints)-1]
	uncovered := p.qMask.Diff(st.covered)

	if uncovered.Empty() {
		p.finishGreedy(st, best)
		return nil
	}

	out := p.waypointOut(cur)
	candidates, _, err := p.greedyCandidates(st, cur, out, uncovered)
	if err != nil {
		return err
	}
	if len(candidates) == 0 {
		if p.opts.BudgetPriority {
			// Cannot extend without breaking Δ: stop covering and head to
			// the target (the modified loop exit).
			p.finishGreedy(st, best)
		}
		// Keyword mode: dead branch — some keyword is unreachable.
		return nil
	}
	for _, c := range candidates {
		next := greedyOutcome{
			waypoints: append(append([]graph.NodeID(nil), st.waypoints...), c.node),
			legs:      append(append([]leg(nil), st.legs...), leg{out, c.node}),
			os:        st.os + c.os,
			bs:        st.bs + c.bs,
			covered:   st.covered.Union(p.nodeMask[c.node]),
		}
		if err := p.greedyStep(next, best); err != nil {
			return err
		}
	}
	return nil
}

// greedyCandidates returns the width best next waypoints after cur, best
// first, and how many keyword nodes it scored: those carrying an uncovered
// keyword, other than cur, with the segments off out, the τ vector out of
// cur, the tails off the plan's τ tail. It reads out as the lower-bound scan
// (scan.go), keyed by Equation 1 from st's scores with the unknown terms
// replaced by lower bounds, and stops at the first group whose key exceeds
// the width-th best score so far. The comparison being strict, the beam
// holds what a scan of every keyword node would pick. Each node's tail is
// bounded the same way before it is read: on the target frontier the head
// stands in for a tail not settled yet, so that frontier grows only while a
// node could still make the cut. Without a target frontier the tail is read
// first and bounds the segment, which is then read only for a node whose
// tail keeps it within the cut. On a partitioned oracle out is a source
// slice (scores equal to the pair interface up to floating-point
// association, see apsp.SourceSliced) and the tail a target slice; a scan of
// every node assembled both whole.
func (p *plan) greedyCandidates(st greedyOutcome, cur graph.NodeID, out apsp.Vector, uncovered bitset.Mask) (beam []greedyCandidate, scored int, err error) {
	eq := equation1{p.opts.Alpha, st.os, st.bs}
	cut := beamCut{width: p.opts.Width}
	for _, group := range (lowerBounds{out, p.tauTail(), apsp.ByObjective, eq, &p.keywords, cut.best}).groups {
		if err := p.checkCtx(); err != nil {
			return nil, scored, err
		}
	nodes:
		for _, m := range group {
			if m == cur || p.nodeMask[m].Intersect(uncovered).Empty() {
				continue
			}
			var segOS, segBS, tailOS, tailBS float64
			var ok bool
			if p.tgt == nil {
				// The tail is read off the target's column, the segment out
				// of cur strides a column per node on the matrix: read the
				// tail first, and skip m when it alone, the segment bounded
				// by 0, puts m past the cut.
				if tailOS, tailBS, ok = p.tauTo(m); !ok || eq.at(0, 0, tailOS, tailBS) > cut.best() {
					continue
				}
				if segOS, segBS, ok = out.Scores(m); !ok {
					continue
				}
			} else {
				if segOS, segBS, ok = out.Scores(m); !ok {
					continue
				}
				// On the target frontier the head lower-bounds the tail of
				// every node not settled yet: grow it only while m could
				// make the cut.
				for !p.tgt.Settled(m) {
					if h := p.tgt.Head(); math.IsInf(h, 1) || eq.at(segOS, segBS, h, 0) > cut.best() {
						continue nodes
					}
					if err := p.checkCtx(); err != nil {
						return nil, scored, err
					}
					p.tgt.Next()
				}
				if tailOS, tailBS, ok = p.tauTo(m); !ok {
					continue
				}
			}
			if p.opts.BudgetPriority {
				// §3.4 modification: only consider nodes that keep the route
				// able to reach the target within Δ.
				if sigBS, ok := p.sigBudgetTo(m); !ok || st.bs+segBS+sigBS > p.q.Budget {
					continue
				}
			}
			cut.add(greedyCandidate{node: m, score: eq.at(segOS, segBS, tailOS, tailBS), os: segOS, bs: segBS})
			scored++
		}
	}
	return cut.beam, scored, nil
}

// waypointOut returns τ out of waypoint cur: on an oracle that runs sweeps
// the waypoint frontier (opened on first use; a later beam branch at the
// same waypoint resumes it), on any other apsp.OutOf.
func (p *plan) waypointOut(cur graph.NodeID) apsp.Vector {
	if i := slices.IndexFunc(p.out, func(w *waypointFrontier) bool { return w.from == cur }); i >= 0 {
		return p.out[i]
	}
	f := p.openFrontier(cur, apsp.ByObjective, true)
	if f == nil {
		return apsp.OutOf(p.s.oracle, cur, apsp.ByObjective)
	}
	w := &waypointFrontier{f, p.tauTail(), cur, p.q.Target}
	p.out = append(p.out, w)
	return w
}

// waypointFrontier is the τ frontier out of a waypoint, except that it reads
// the target's entry off the τ tail at the waypoint, where the final leg
// reads it: the frontier out of the waypoint may differ in its last bit.
// Its scan yields the target first, as a group of its own, and skips the
// target's entry on the frontier.
type waypointFrontier struct {
	*apsp.Frontier
	tail         apsp.Vector
	from, target graph.NodeID
}

func (w *waypointFrontier) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	if v == w.target {
		return w.tail.Scores(w.from)
	}
	return w.Frontier.Scores(v)
}

func (w *waypointFrontier) Walk(v graph.NodeID) ([]graph.NodeID, bool) {
	if v == w.target {
		return w.tail.Walk(w.from)
	}
	return w.Frontier.Walk(v)
}

// beamCut keeps the width best candidates scored so far, best first: lowest
// score, ties to the lower node. Nodes are distinct, so the order is total
// and the beam is the prefix a sort of every candidate would produce.
type beamCut struct {
	width int
	beam  []greedyCandidate // at most width
}

// add records a scored candidate.
func (c *beamCut) add(g greedyCandidate) {
	i, _ := slices.BinarySearchFunc(c.beam, g, func(a, b greedyCandidate) int {
		return cmp.Or(cmp.Compare(a.score, b.score), cmp.Compare(a.node, b.node))
	})
	if i >= c.width {
		return
	}
	if c.beam == nil {
		c.beam = make([]greedyCandidate, 0, c.width+1)
	}
	if c.beam = slices.Insert(c.beam, i, g); len(c.beam) > c.width {
		c.beam = c.beam[:c.width]
	}
}

// best returns the width-th lowest score so far: a node scoring above it
// cannot make the cut. +Inf until width candidates have been scored.
func (c *beamCut) best() float64 {
	if len(c.beam) < c.width {
		return math.Inf(1)
	}
	return c.beam[c.width-1].score
}

// greedyCandidate is one scored next waypoint of a beam step.
type greedyCandidate struct {
	node   graph.NodeID
	score  float64 // Equation 1
	os, bs float64 // τ(cur, node) scores
}

// finishGreedy appends the final leg to the target (lines 12–13) and keeps
// the outcome if it beats the best so far.
func (p *plan) finishGreedy(st greedyOutcome, best *greedyOutcome) {
	cur := st.waypoints[len(st.waypoints)-1]
	tail := leg{p.tauTail(), cur}
	tailOS, tailBS, ok := tail.v.Scores(cur)
	if !ok {
		return
	}
	if p.opts.BudgetPriority && st.bs+tailBS > p.q.Budget {
		// Try the cheap σ leg before giving up on Δ.
		tail.v = p.sigTail()
		if tailOS, tailBS, ok = tail.v.Scores(cur); !ok || st.bs+tailBS > p.q.Budget {
			return // dead branch: no leg to the target fits Δ
		}
	}
	done := st
	if cur != p.q.Target || len(st.waypoints) == 1 {
		done.waypoints = append(append([]graph.NodeID(nil), st.waypoints...), p.q.Target)
		done.legs = append(append([]leg(nil), st.legs...), tail)
		done.os += tailOS
		done.bs += tailBS
		done.covered = done.covered.Union(p.nodeMask[p.q.Target])
	}
	if best.waypoints == nil || p.betterOutcome(done, *best) {
		*best = done
	}
}

// betterOutcome reports whether a beats b: a feasible outcome beats one that
// is not, then the lower objective, then the lower budget.
func (p *plan) betterOutcome(a, b greedyOutcome) bool {
	af := a.covered.Covers(p.qMask) && a.bs <= p.q.Budget
	bf := b.covered.Covers(p.qMask) && b.bs <= p.q.Budget
	if af != bf {
		return af
	}
	return cmp.Or(cmp.Compare(a.os, b.os), cmp.Compare(a.bs, b.bs)) < 0
}

// materializeGreedy concatenates the per-leg shortest paths into the final
// route, each walked off the vector that scored it. Segment scores were
// accumulated during the search; the node sequence is recovered here, and
// the route's coverage is recomputed over every node actually visited
// (intermediate nodes can cover keywords the waypoint accounting did not
// claim).
func (p *plan) materializeGreedy(out greedyOutcome) (Route, error) {
	nodes := []graph.NodeID{out.waypoints[0]}
	for _, l := range out.legs {
		seg, ok := l.v.Walk(l.at)
		if !ok {
			return Route{}, ErrNoRoute
		}
		nodes = append(nodes, seg[1:]...)
	}
	covered := bitset.Mask(0)
	for _, v := range nodes {
		covered = covered.Union(p.nodeMask[v])
	}
	return Route{
		Nodes:     nodes,
		Objective: out.os,
		Budget:    out.bs,
		Covered:   covered,
		CoversAll: covered.Covers(p.qMask),
		Feasible:  covered.Covers(p.qMask) && out.bs <= p.q.Budget,
	}, nil
}
