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
	// Strategy 2 belongs to the label algorithms; disabling it skips its
	// oracle prefetching.
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

	// nodeSet: every node carrying at least one query keyword (line 3–5 of
	// Algorithm 3, via the inverted file), in node order. On an oracle that
	// runs sweeps the scan finds them on its frontiers instead.
	var nodeSet []graph.NodeID
	if !p.openTargetFrontier() {
		nodeSet = mergePostings(p.postings)
	}

	best := greedyOutcome{os: math.Inf(1)}
	haveBest := false
	betterOutcome := func(a, b greedyOutcome) bool {
		af := a.covered.Covers(p.qMask) && a.bs <= p.q.Budget
		bf := b.covered.Covers(p.qMask) && b.bs <= p.q.Budget
		if af != bf {
			return af
		}
		if a.os != b.os {
			return a.os < b.os
		}
		return a.bs < b.bs
	}

	start := greedyOutcome{
		waypoints: []graph.NodeID{p.q.Source},
		covered:   p.nodeMask[p.q.Source],
	}
	if err := p.greedyStep(start, nodeSet, &best, &haveBest, betterOutcome); err != nil {
		return Result{Metrics: p.metrics}, err
	}
	if !haveBest {
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
	if p.opts.BudgetPriority && !route.CoversAll {
		// Budget-priority mode met Δ but not the keywords; the flags on the
		// route say so, and no error is raised — this is that variant's
		// documented contract.
		return res, nil
	}
	return res, nil
}

// mergePostings returns the union of the posting lists, ascending: a k-way
// merge of lists that are each sorted (graph.PostingSource's contract), a
// node that several keywords share taken once.
func mergePostings(lists [][]graph.NodeID) []graph.NodeID {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]graph.NodeID, 0, total)
	next := make([]int, len(lists))
	for taken := 0; taken < total; taken++ { // each round consumes the least head
		least := -1
		for i, l := range lists {
			if next[i] < len(l) && (least < 0 || l[next[i]] < lists[least][next[least]]) {
				least = i
			}
		}
		v := lists[least][next[least]]
		next[least]++
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// greedyStep extends one partial outcome by every beam candidate, recursing
// until the keywords are covered (keyword mode) or no candidate fits the
// budget (budget-priority mode), then completes the route to the target.
func (p *plan) greedyStep(st greedyOutcome, nodeSet []graph.NodeID, best *greedyOutcome, haveBest *bool, better func(a, b greedyOutcome) bool) error {
	cur := st.waypoints[len(st.waypoints)-1]
	uncovered := p.qMask.Diff(st.covered)

	if uncovered.Empty() {
		p.finishGreedy(st, best, haveBest, better)
		return nil
	}

	var candidates []greedyCandidate
	var out apsp.Vector // τ out of cur, which scored every candidate but the target on a frontier
	var err error
	if p.tgt != nil {
		f := p.outFrontier(cur)
		out = f
		candidates, err = p.frontierCandidates(st, cur, f, uncovered)
	} else {
		out = apsp.OutOf(p.s.oracle, cur, apsp.ByObjective)
		candidates, err = p.nodeSetCandidates(st, cur, out, uncovered, nodeSet)
	}
	if err != nil {
		return err
	}
	if len(candidates) == 0 {
		if p.opts.BudgetPriority {
			// Cannot extend without breaking Δ: stop covering and head to
			// the target (the modified loop exit).
			p.finishGreedy(st, best, haveBest, better)
		}
		// Keyword mode: dead branch — some keyword is unreachable.
		return nil
	}
	for _, c := range bestCandidates(candidates, p.opts.Width) {
		seg := leg{out, c.node}
		if p.tgt != nil && c.node == p.q.Target {
			seg = leg{p.tgt, cur} // the frontier scan scores the target off the target frontier
		}
		next := greedyOutcome{
			waypoints: append(append([]graph.NodeID(nil), st.waypoints...), c.node),
			legs:      append(append([]leg(nil), st.legs...), seg),
			os:        st.os + c.os,
			bs:        st.bs + c.bs,
			covered:   st.covered.Union(p.nodeMask[c.node]),
		}
		if err := p.greedyStep(next, nodeSet, best, haveBest, better); err != nil {
			return err
		}
	}
	return nil
}

// score rates keyword node m as the next waypoint after cur by Equation 1,
// given the τ(cur, m) segment and the τ(m, target) tail; ok is false when
// budget-priority mode rules m out.
func (p *plan) score(st greedyOutcome, m graph.NodeID, segOS, segBS, tailOS, tailBS float64) (greedyCandidate, bool) {
	if p.opts.BudgetPriority {
		// §3.4 modification: only consider nodes that keep the route able to
		// reach the target within Δ.
		sigBS, sok := p.sigBudgetTo(m)
		if !sok || st.bs+segBS+sigBS > p.q.Budget {
			return greedyCandidate{}, false
		}
	}
	s := p.opts.Alpha*(st.os+segOS+tailOS) + (1-p.opts.Alpha)*(st.bs+segBS+tailBS)
	return greedyCandidate{node: m, score: s, os: segOS, bs: segBS}, true
}

// nodeSetCandidates scores the keyword nodes carrying an uncovered keyword
// as the next waypoint after cur, reading the cur→m segments off out, the
// τ vector out of cur, and the m→target tails off the plan's τ tail. On a
// partitioned oracle out is a source slice (scores equal to the pair
// interface up to floating-point association, see apsp.SourceSliced) and
// the tail a target slice: two array reads per candidate where a pair query
// costs |borders|² table probes. Both slices bound their scores per
// partition cell, so there the scan visits the cells in ascending order of
// Equation 1's lower bound and stops at the first that cannot make the cut
// (cellCandidates); a scan of every node assembled both slices whole and
// dominated the search. Any other oracle's vectors are scanned node by node.
func (p *plan) nodeSetCandidates(st greedyOutcome, cur graph.NodeID, out apsp.Vector, uncovered bitset.Mask, nodeSet []graph.NodeID) ([]greedyCandidate, error) {
	outCells, ok := out.(cellBounded)
	tailCells, tok := p.tauTail().(cellBounded)
	if !ok || !tok {
		return p.scanNodes(st, cur, out, uncovered, nodeSet, nil, nil)
	}
	return p.cellCandidates(st, cur, out, outCells, tailCells, uncovered, nodeSet)
}

// scanNodes scores the nodes of list that carry an uncovered keyword, other
// than cur, as nodeSetCandidates describes, appending them to candidates
// and, when cut is not nil, recording their scores in it.
func (p *plan) scanNodes(st greedyOutcome, cur graph.NodeID, out apsp.Vector, uncovered bitset.Mask, list []graph.NodeID, candidates []greedyCandidate, cut *beamCut) ([]greedyCandidate, error) {
	for _, m := range list {
		if err := p.checkCtx(); err != nil {
			return nil, err
		}
		if m == cur || p.nodeMask[m].Intersect(uncovered).Empty() {
			continue
		}
		segOS, segBS, ok := out.Scores(m)
		if !ok {
			continue
		}
		tailOS, tailBS, ok := p.tauTo(m)
		if !ok {
			continue
		}
		if c, ok := p.score(st, m, segOS, segBS, tailOS, tailBS); ok {
			candidates = append(candidates, c)
			if cut != nil {
				cut.add(c.score)
			}
		}
	}
	return candidates, nil
}

// cellBounded is a vector that bounds its scores per partition cell: a
// partitioned oracle's slices (apsp.TargetSlice.CellBound). CellBound(c) is
// at most Scores(v), on both scores, for every node v with Cell(v) = c, and
// +Inf when no node of c is reachable.
type cellBounded interface {
	Cell(v graph.NodeID) int
	CellBound(c int) (os, bs float64)
}

// cellNodes is one partition cell's share of the plan's keyword nodes, in
// ascending order, and the cell's bound at the current beam step.
type cellNodes struct {
	cell  int
	nodes []graph.NodeID
	bound float64
}

// cellCandidates is nodeSetCandidates on vectors that bound their scores
// per cell. The keyword nodes are grouped by cell once per plan. On each
// step every cell's bound is Equation 1 as score computes it, the segment
// and tail replaced by the two vectors' cell bounds,
//
//	α·(st.os + segBound.os + tailBound.os) + (1−α)·(st.bs + segBound.bs + tailBound.bs),
//
// and the cells are scanned in ascending bound order until the first whose
// bound exceeds the width-th best score so far. float + and ×α are
// monotone, so no node scores below its cell's bound; the comparison being
// strict, every node that could make the cut is scored, and bestCandidates
// picks what a scan of every keyword node picks — the stop rule of
// frontierCandidates, one cell at a time. A cell either vector reaches
// nothing of is skipped outright: at α ∈ {0, 1} its +Inf bound would turn
// into 0·Inf = NaN.
func (p *plan) cellCandidates(st greedyOutcome, cur graph.NodeID, out apsp.Vector, outCells, tailCells cellBounded, uncovered bitset.Mask, nodeSet []graph.NodeID) ([]greedyCandidate, error) {
	if p.nodeCells == nil {
		p.nodeCells = groupByCell(nodeSet, tailCells)
	}
	alpha := p.opts.Alpha
	for i := range p.nodeCells {
		c := &p.nodeCells[i]
		segOS, segBS := outCells.CellBound(c.cell)
		tailOS, tailBS := tailCells.CellBound(c.cell)
		if math.IsInf(segOS+segBS, 1) || math.IsInf(tailOS+tailBS, 1) {
			c.bound = math.Inf(1)
			continue
		}
		c.bound = alpha*(st.os+segOS+tailOS) + (1-alpha)*(st.bs+segBS+tailBS)
	}
	// The groups are reordered in place: a beam branch recurses only once
	// this step's scan is done.
	slices.SortFunc(p.nodeCells, func(a, b cellNodes) int { return cmp.Compare(a.bound, b.bound) })
	cut := beamCut{width: p.opts.Width}
	var candidates []greedyCandidate
	for _, c := range p.nodeCells {
		if math.IsInf(c.bound, 1) || c.bound > cut.best() {
			break // later cells are bounded higher still, or unreachable
		}
		var err error
		if candidates, err = p.scanNodes(st, cur, out, uncovered, c.nodes, candidates, &cut); err != nil {
			return nil, err
		}
	}
	return candidates, nil
}

// groupByCell splits the ascending node list into its cells' shares under
// v's partition, each share ascending: a counting sort by cell.
func groupByCell(nodes []graph.NodeID, v cellBounded) []cellNodes {
	var count []int // nodes per cell
	for _, m := range nodes {
		c := v.Cell(m)
		for c >= len(count) {
			count = append(count, 0)
		}
		count[c]++
	}
	var groups []cellNodes
	sorted := make([]graph.NodeID, len(nodes))
	end := 0
	for c, k := range count {
		if k > 0 {
			groups = append(groups, cellNodes{cell: c, nodes: sorted[end : end : end+k]})
		}
		end += k
	}
	at := make([]int, len(count)) // cell → its group
	for i := range groups {
		at[groups[i].cell] = i
	}
	for _, m := range nodes {
		g := &groups[at[v.Cell(m)]]
		g.nodes = append(g.nodes, m)
	}
	return groups
}

// frontierCandidates is the candidate scan on a sweep-backed oracle. It
// walks the τ frontier out of cur in settle order — ascending OS(τ(cur, m))
// — and grows it, and the τ frontier into the target, only while Equation 1
// can still place a node among the width best. With best the width-th best
// score so far, the scan stops at the first node, settled or next to settle
// at the frontier's head, with
//
//	α·(st.os + OS(τ(cur, m))) + (1−α)·st.bs > best,
//
// and a node whose tail has not settled yet is dropped once, with head the
// target frontier's,
//
//	α·(st.os + OS(τ(cur, m)) + head) + (1−α)·(st.bs + BS(τ(cur, m))) > best.
//
// Each bound is Equation 1 as score computes it with the unknown terms
// replaced by lower bounds — the head, or 0 — and float + and ×α are
// monotone, so it never exceeds the node's own score. The comparison being
// strict, every node that could make the cut is scored, and bestCandidates
// picks what a scan of every keyword node picks. With α = 0 the bounds lose
// their radius term and the scan reaches as far as the frontiers do.
func (p *plan) frontierCandidates(st greedyOutcome, cur graph.NodeID, out *apsp.Frontier, uncovered bitset.Mask) ([]greedyCandidate, error) {
	alpha, target := p.opts.Alpha, p.q.Target
	cut := beamCut{width: p.opts.Width}
	var candidates []greedyCandidate
	// consider scores m, growing the target frontier until m's tail settles
	// or the tail can no longer make the cut.
	consider := func(m graph.NodeID, segOS, segBS float64) error {
		for !p.tgt.Settled(m) {
			h := p.tgt.Head()
			if math.IsInf(h, 1) || alpha*(st.os+segOS+h)+(1-alpha)*(st.bs+segBS) > cut.best() {
				return nil
			}
			if err := p.checkCtx(); err != nil {
				return err
			}
			p.tgt.Next()
		}
		tailOS, tailBS, _ := p.tgt.Scores(m)
		if c, ok := p.score(st, m, segOS, segBS, tailOS, tailBS); ok {
			candidates = append(candidates, c)
			cut.add(c.score)
		}
		return nil
	}

	// The target's segment is τ(cur, target) as the final leg reads it, off
	// the target frontier: the frontier out of cur may differ in its last bit.
	if cur != target && !p.nodeMask[target].Intersect(uncovered).Empty() {
		if segOS, segBS, ok := p.tauTo(cur); ok {
			if err := consider(target, segOS, segBS); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; ; i++ {
		if err := p.checkCtx(); err != nil {
			return nil, err
		}
		if i == len(out.Order()) {
			if h := out.Head(); math.IsInf(h, 1) || alpha*(st.os+h)+(1-alpha)*st.bs > cut.best() {
				break
			}
			out.Next()
		}
		m := out.Order()[i]
		segOS, segBS, _ := out.Scores(m)
		if alpha*(st.os+segOS)+(1-alpha)*st.bs > cut.best() {
			break // a resumed frontier: later nodes only score higher
		}
		if m == cur || m == target || p.nodeMask[m].Intersect(uncovered).Empty() {
			continue
		}
		if err := consider(m, segOS, segBS); err != nil {
			return nil, err
		}
	}
	return candidates, nil
}

// beamCut tracks the width lowest candidate scores seen so far.
type beamCut struct {
	width  int
	scores []float64 // ascending, at most width
}

// add records a candidate score.
func (c *beamCut) add(s float64) {
	if len(c.scores) == c.width {
		if s >= c.scores[c.width-1] {
			return
		}
		c.scores = c.scores[:c.width-1]
	}
	i := len(c.scores)
	c.scores = append(c.scores, s)
	for ; i > 0 && c.scores[i-1] > s; i-- {
		c.scores[i] = c.scores[i-1]
	}
	c.scores[i] = s
}

// best returns the width-th lowest score so far: a node scoring above it
// cannot make the cut. +Inf until width candidates have been scored.
func (c *beamCut) best() float64 {
	if len(c.scores) < c.width {
		return math.Inf(1)
	}
	return c.scores[c.width-1]
}

// greedyCandidate is one scored next waypoint of a beam step.
type greedyCandidate struct {
	node   graph.NodeID
	score  float64 // Equation 1
	os, bs float64 // τ(cur, node) scores
}

// bestCandidates moves the width best candidates — lowest score, ties to the
// lower node; nodes are distinct, so the order is total — to the front of c,
// best first, and returns them: the prefix a full sort would produce, in one
// pass over c per beam slot (width is 1 or 2 in practice).
func bestCandidates(c []greedyCandidate, width int) []greedyCandidate {
	if width > len(c) {
		width = len(c)
	}
	for i := 0; i < width; i++ {
		best := i
		for j := i + 1; j < len(c); j++ {
			if c[j].score < c[best].score || (c[j].score == c[best].score && c[j].node < c[best].node) {
				best = j
			}
		}
		c[i], c[best] = c[best], c[i]
	}
	return c[:width]
}

// finishGreedy appends the final leg to the target (lines 12–13) and keeps
// the outcome if it beats the best so far.
func (p *plan) finishGreedy(st greedyOutcome, best *greedyOutcome, haveBest *bool, better func(a, b greedyOutcome) bool) {
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
	if !*haveBest || better(done, *best) {
		*best = done
		*haveBest = true
	}
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
