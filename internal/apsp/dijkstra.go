package apsp

import (
	"math"
	"sync"

	"kor/internal/graph"
)

// sweep holds the result of one two-criteria Dijkstra run. For a forward
// sweep from source s, the primary score of v is the minimum of the chosen
// metric over paths s→v, the secondary the other attribute summed along that
// same path, and the parent the predecessor of v on it. For a reverse sweep
// into target t the roles flip: the primary covers paths v→t and the parent
// is the successor of v on the optimal path.
//
// A sweep comes in one of two forms, chosen by its bound alone. A full sweep
// (bound +Inf) is dense: primary, secondary and parent are indexed by node
// ID over the whole graph, unreached nodes carry +Inf — what a plan that asks
// for an unbounded vector, the τ sweep into its target, reads. A truncated
// sweep is compact: nodes lists the settled nodes in settle order (ascending
// primary), the three vectors run parallel to it, and slots is an
// open-addressing index from node ID to position — 32 bytes per settled node
// (two scores, the parent, the node ID and two slots at load factor ½),
// whatever the graph's size. reached, scores and the walks are the only
// readers and hide the form.
type sweep struct {
	primary   []float64
	secondary []float64
	parent    []int32

	nodes []graph.NodeID // compact form only
	slots []int32        // compact form only: position in nodes + 1, 0 = empty
}

const noParent = int32(-1)

// slotOf hashes v onto a table of size slots (multiplicative hash, then a
// multiply-shift range reduction, so the table need not be a power of two).
func slotOf(v graph.NodeID, size int) int {
	return int(uint64(uint32(v)*2654435769) * uint64(size) >> 32)
}

// pos returns v's index into the score vectors, or -1 when the sweep did not
// reach v.
func (s *sweep) pos(v graph.NodeID) int {
	if s.slots == nil {
		if math.IsInf(s.primary[v], 1) {
			return -1
		}
		return int(v)
	}
	for i := slotOf(v, len(s.slots)); ; i++ {
		if i == len(s.slots) {
			i = 0
		}
		p := s.slots[i]
		if p == 0 {
			return -1
		}
		if s.nodes[p-1] == v {
			return int(p - 1)
		}
	}
}

// reached reports whether v was reached by the sweep.
func (s *sweep) reached(v graph.NodeID) bool { return s.pos(v) >= 0 }

// scores returns (objective, budget) at v given the metric the sweep ran
// under; ok is false when the sweep did not reach v.
func (s *sweep) scores(v graph.NodeID, m Metric) (os, bs float64, ok bool) {
	i := s.pos(v)
	if i < 0 {
		return 0, 0, false
	}
	if m == ByObjective {
		return s.primary[i], s.secondary[i], true
	}
	return s.secondary[i], s.primary[i], true
}

type dijkstraItem struct {
	node      graph.NodeID
	primary   float64
	secondary float64
}

// lessItem is the queue order: primary, then secondary, then node ID (the
// local index, in a cell row). It is total over the items of one run, so
// the pop sequence — hence every settled score and parent — does not depend
// on the heap's shape.
func lessItem(a, b *dijkstraItem) bool {
	if a.primary < b.primary {
		return true
	}
	if a.primary > b.primary {
		return false
	}
	if a.secondary != b.secondary {
		return a.secondary < b.secondary
	}
	return a.node < b.node
}

// sweepScratch is the working memory of one Dijkstra run: dense tentative
// scores and parents, the settled marker, the queue — the table fill's
// decrease-key heap (rowFill), so a node is queued once, under its live label
// — and the list of settled nodes: 25 bytes per graph node. It is reused
// across runs without clearing: primary[v] is +Inf, done[v] false and v's
// queue slot empty for every node the current run has not labelled, and a
// run starts by putting that back for the nodes the previous one labelled —
// each of them is in settled or still queued — so a run costs what it and
// its predecessor reached, never |V|. Scratches are pooled; a run checks
// one out, and its result is copied out (or, for a Frontier, read in place)
// before the scratch goes back.
type sweepScratch struct {
	primary   []float64
	secondary []float64
	parent    []int32
	done      []bool
	settled   []graph.NodeID
	q         rowFill

	// The run in progress: its graph, metric and direction, and the source
	// frontier that restricts it, if any (see step).
	g       *graph.Graph
	m       Metric
	reverse bool
	src     *Frontier
}

var scratchPool sync.Pool

// getScratch checks out a scratch large enough for an n-node graph.
func getScratch(n int) *sweepScratch {
	sc, _ := scratchPool.Get().(*sweepScratch)
	if sc == nil {
		sc = &sweepScratch{}
	}
	if len(sc.primary) < n {
		*sc = sweepScratch{
			primary:   make([]float64, n),
			secondary: make([]float64, n),
			parent:    make([]int32, n),
			done:      make([]bool, n),
			q:         newRowFill(n),
		}
		for i := range sc.primary {
			sc.primary[i] = math.Inf(1)
		}
	}
	return sc
}

// dijkstraBounded runs a two-criteria Dijkstra from root, truncated at a
// primary-metric bound. With reverse=false edges are traversed forward
// (single-source); with reverse=true the transpose graph is used
// (single-target). Ties on the primary metric are broken by the secondary,
// so results are unique and deterministic. Labels past the bound are never
// relaxed, so the search settles only the bound's ball around the root.
// Settled scores are exact; unreached nodes are indistinguishable from
// unreachable ones, which is precisely the contract bounded callers want. The
// root always settles, so a bound below 0 (or NaN) is radius 0. The result is
// dense when bound is +Inf and compact otherwise.
func dijkstraBounded(g *graph.Graph, root graph.NodeID, m Metric, reverse bool, bound float64) *sweep {
	return dijkstraWithin(g, root, m, reverse, bound, nil)
}

// dijkstraWithin is dijkstraBounded restricted, when src is not nil, to the
// nodes v whose score out of src's root fits with their own: src's score of
// v plus v's score here within bound (see step).
func dijkstraWithin(g *graph.Graph, root graph.NodeID, m Metric, reverse bool, bound float64, src *Frontier) *sweep {
	sc := getScratch(g.NumNodes())
	defer scratchPool.Put(sc)
	sc.src = src
	sc.run(g, root, m, reverse, bound)
	sc.src = nil
	if math.IsInf(bound, 1) {
		return sc.dense(g.NumNodes())
	}
	return sc.compact()
}

// start resets sc and queues root: the first step of every run.
func (sc *sweepScratch) start(g *graph.Graph, root graph.NodeID, m Metric, reverse bool) {
	for _, v := range sc.settled {
		sc.primary[v] = math.Inf(1)
		sc.done[v] = false
	}
	for _, it := range sc.q.heap { // labels a run left queued past where it stopped
		sc.primary[it.node] = math.Inf(1)
		sc.q.slot[it.node] = -1
	}
	sc.settled = sc.settled[:0]
	sc.q.heap = sc.q.heap[:0]
	sc.g, sc.m, sc.reverse = g, m, reverse
	sc.primary[root], sc.secondary[root], sc.parent[root] = 0, 0, noParent
	sc.q.update(dijkstraItem{node: root})
}

// head returns the primary score the next node to settle will carry, +Inf
// once the queue is drained. Every node not yet settled ends at this score
// or higher.
func (sc *sweepScratch) head() float64 {
	if len(sc.q.heap) == 0 {
		return math.Inf(1)
	}
	return sc.q.heap[0].primary
}

// step is the one settle-and-relax step every run is made of: it settles the
// next node if its primary score is within bound and relaxes its edges,
// dropping labels past bound. A run restricted to a source frontier src (a
// run out of another root under the same metric) also drops a label at v
// with score x unless src scores v within bound − x, advancing src only while
// its head fits that. It reports false when no node is left within bound.
func (sc *sweepScratch) step(bound float64) bool {
	prim, secd, par, src := sc.primary, sc.secondary, sc.parent, sc.src
	if len(sc.q.heap) > 0 && sc.q.heap[0].primary <= bound {
		it := sc.q.pop()
		sc.done[it.node] = true
		sc.settled = append(sc.settled, it.node)
		edges := sc.g.Out(it.node)
		if sc.reverse {
			edges = sc.g.In(it.node)
		}
		byObjective := sc.m == ByObjective
		for _, e := range edges {
			var p, sec float64
			if byObjective {
				p, sec = it.primary+e.Objective, it.secondary+e.Budget
			} else {
				p, sec = it.primary+e.Budget, it.secondary+e.Objective
			}
			if p > bound {
				continue
			}
			v := e.To
			if p < prim[v] || (p == prim[v] && sec < secd[v]) {
				if src != nil && !src.Within(v, bound-p) {
					continue
				}
				prim[v], secd[v], par[v] = p, sec, int32(it.node)
				sc.q.update(dijkstraItem{node: v, primary: p, secondary: sec})
			}
		}
		return true
	}
	return false
}

// run settles, in sc, every node within bound of root; a bound below 0 (or
// NaN) is raised to 0: the root is always within.
func (sc *sweepScratch) run(g *graph.Graph, root graph.NodeID, m Metric, reverse bool, bound float64) {
	if !(bound >= 0) {
		bound = 0
	}
	sc.start(g, root, m, reverse)
	for sc.step(bound) {
	}
}

// dense copies the run's settled nodes out as a dense sweep over n nodes.
func (sc *sweepScratch) dense(n int) *sweep {
	s := &sweep{
		primary:   make([]float64, n),
		secondary: make([]float64, n),
		parent:    make([]int32, n),
	}
	for i := range s.primary {
		s.primary[i] = math.Inf(1)
		s.secondary[i] = math.Inf(1)
		s.parent[i] = noParent
	}
	for _, v := range sc.settled {
		s.primary[v] = sc.primary[v]
		s.secondary[v] = sc.secondary[v]
		s.parent[v] = sc.parent[v]
	}
	return s
}

// compact copies the run's settled nodes out as a compact sweep.
func (sc *sweepScratch) compact() *sweep {
	k := len(sc.settled)
	s := &sweep{
		primary:   make([]float64, k),
		secondary: make([]float64, k),
		parent:    make([]int32, k),
		nodes:     make([]graph.NodeID, k),
		slots:     make([]int32, 2*k),
	}
	copy(s.nodes, sc.settled)
	for i, v := range sc.settled {
		s.primary[i] = sc.primary[v]
		s.secondary[i] = sc.secondary[v]
		s.parent[i] = sc.parent[v]
		j := slotOf(v, len(s.slots))
		for s.slots[j] != 0 {
			if j++; j == len(s.slots) {
				j = 0
			}
		}
		s.slots[j] = int32(i + 1)
	}
	return s
}

// count returns how many nodes the sweep reached.
func (s *sweep) count() int {
	if s.slots != nil {
		return len(s.nodes)
	}
	n := 0
	for _, p := range s.primary {
		if !math.IsInf(p, 1) {
			n++
		}
	}
	return n
}

// parentOf returns the node after v on the walk towards the root, or false
// when v is unreached or the root itself.
func (s *sweep) parentOf(v graph.NodeID) (graph.NodeID, bool) {
	i := s.pos(v)
	if i < 0 || s.parent[i] == noParent {
		return 0, false
	}
	return graph.NodeID(s.parent[i]), true
}

// reached reports whether the run in progress has settled v.
func (sc *sweepScratch) reached(v graph.NodeID) bool { return sc.done[v] }

// parentOf is sweep.parentOf over the nodes the run in progress has settled.
func (sc *sweepScratch) parentOf(v graph.NodeID) (graph.NodeID, bool) {
	if !sc.done[v] || sc.parent[v] == noParent {
		return 0, false
	}
	return graph.NodeID(sc.parent[v]), true
}

// parents is what a walk reads: a finished sweep, or the settled part of a
// run in progress.
type parents interface {
	reached(v graph.NodeID) bool
	parentOf(v graph.NodeID) (graph.NodeID, bool)
}

// walkForward reconstructs the path root→dst from a forward sweep.
func walkForward(s parents, root, dst graph.NodeID) ([]graph.NodeID, bool) {
	rev, ok := walkReverse(s, root, dst)
	if !ok {
		return nil, false
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// walkReverse reconstructs the path src→root from a reverse sweep rooted at
// the target.
func walkReverse(s parents, root, src graph.NodeID) ([]graph.NodeID, bool) {
	if !s.reached(src) {
		return nil, false
	}
	var path []graph.NodeID
	for v := src; ; {
		path = append(path, v)
		if v == root {
			break
		}
		next, ok := s.parentOf(v)
		if !ok {
			return nil, false
		}
		v = next
	}
	return path, true
}
