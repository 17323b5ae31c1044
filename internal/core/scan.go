package core

import (
	"cmp"
	"math"
	"slices"

	"kor/internal/apsp"
	"kor/internal/graph"
)

// The lower-bound scan is how the plan tells which keyword nodes can still
// matter to a query: Greedy asks it for waypoints, the candidate prune for
// strategy-2 candidates the source can reach within Δ. It reads a vector out
// of a root as groups of nodes in ascending order of a key, a lower bound on
// Equation 1 that holds for every node of the group and of every later
// group, and stops at the first group whose key exceeds the reader's cut:
// no node past it can matter. What the groups are depends on what the
// vector can tell of its scores before reading them:
//
//   - a frontier (a lazy oracle's) yields one group per node in settle
//     order, keyed by the node's primary score, its secondary bounded by 0;
//     the head stands in for the nodes not settled yet, so the run grows
//     only while the next node could still make the cut;
//   - a vector that bounds its scores per partition cell (a partitioned
//     oracle's slices, apsp.TargetSlice.CellBound) yields one group per cell
//     of the reader's nodes, keyed by the cell bounds, in ascending key
//     order; a cell the vector reaches nothing of (+Inf) is skipped;
//   - any other vector — the pair view — yields the reader's nodes as one
//     group with no bound, so it is always scanned in full.
type lowerBounds struct {
	// v holds the scores out of the root under metric m. tail, when not
	// nil, holds scores the reader adds to v's: where both vectors bound
	// their scores per cell, its cell bounds count in the keys too.
	v, tail apsp.Vector
	m       apsp.Metric
	eq      equation1
	nodes   *nodeSet
	// cut is the reader's cut as it stands; the comparison with it is
	// strict, so a node tied at the cut is still yielded.
	cut func() float64
}

// equation1 is Equation 1 from a partial route with scores (os, bs):
//
//	α·(os + seg.os + tail.os) + (1−α)·(bs + seg.bs + tail.bs).
//
// Greedy scores every candidate with it; fed lower bounds on the segment
// and the tail, in the same association, it is the scan's key: float + and
// × by a non-negative factor are monotone, so the key never exceeds the
// score, and the scan, whose stop comparison is strict, yields every node
// that could make the cut. At α = 0 from no scores it is the budget score
// alone, which the candidate prune reads.
type equation1 struct{ alpha, os, bs float64 }

func (e equation1) at(segOS, segBS, tailOS, tailBS float64) float64 {
	return e.alpha*(e.os+segOS+tailOS) + (1-e.alpha)*(e.bs+segBS+tailBS)
}

// nodeSet is the nodes a scan yields where its vector cannot enumerate them:
// listed by fill on the first scan that needs them, and grouped by
// partition cell on the first cell scan.
type nodeSet struct {
	fill  func() []graph.NodeID
	nodes []graph.NodeID
	cells []cellNodes
}

// cellNodes is one partition cell's share of a node set and the cell's key
// at the current scan.
type cellNodes struct {
	cell  int
	nodes []graph.NodeID
	key   float64
}

// groups yields the scan's groups with their keys. On a waypoint frontier
// the target comes first, as a group of its own with no bound
// (waypointFrontier).
func (s lowerBounds) groups(yield func(float64, []graph.NodeID) bool) {
	type cellBounded interface {
		Cell(v graph.NodeID) int
		CellBound(c int) (os, bs float64)
	}
	v, skip := s.v, graph.NodeID(-1)
	if w, ok := v.(*waypointFrontier); ok {
		if !yield(math.Inf(-1), []graph.NodeID{w.target}) {
			return
		}
		v, skip = w.Frontier, w.target
	}
	if f, ok := v.(*apsp.Frontier); ok {
		lower := func(os, bs float64) float64 { // the secondary bounded by 0
			if s.m == apsp.ByObjective {
				return s.eq.at(os, 0, 0, 0)
			}
			return s.eq.at(0, bs, 0, 0)
		}
		for i := 0; i <= len(f.Order()); i++ {
			// A node settled on an earlier scan is keyed by its scores; the
			// next one to settle by the head, and settles only within the cut.
			key := math.Inf(1)
			if i < len(f.Order()) {
				os, bs, _ := f.Scores(f.Order()[i])
				key = lower(os, bs)
			} else if h := f.Head(); !math.IsInf(h, 1) {
				key = lower(h, h)
			}
			if key > s.cut() || i == len(f.Order()) && !f.Next() {
				return
			}
			group := f.Order()[i : i+1]
			if group[0] == skip {
				group = nil
			}
			if !yield(key, group) {
				return
			}
		}
		return
	}
	vc, ok := v.(cellBounded)
	tc, tok := s.tail.(cellBounded)
	if s.nodes.nodes == nil {
		s.nodes.nodes = s.nodes.fill()
	}
	if !ok || (s.tail != nil && !tok) {
		yield(math.Inf(-1), s.nodes.nodes)
		return
	}
	if s.nodes.cells == nil {
		s.nodes.cells = groupByCell(s.nodes.nodes, vc)
	}
	for i := range s.nodes.cells {
		c := &s.nodes.cells[i]
		segOS, segBS := vc.CellBound(c.cell)
		var tailOS, tailBS float64
		if tok {
			tailOS, tailBS = tc.CellBound(c.cell)
		}
		// At α ∈ {0, 1} a +Inf bound would turn into 0·Inf = NaN.
		if c.key = math.Inf(1); !math.IsInf(segOS+segBS+tailOS+tailBS, 1) {
			c.key = s.eq.at(segOS, segBS, tailOS, tailBS)
		}
	}
	// The groups are reordered in place: no reader starts a scan of the same
	// set before its last one is done.
	slices.SortFunc(s.nodes.cells, func(a, b cellNodes) int { return cmp.Compare(a.key, b.key) })
	for _, c := range s.nodes.cells {
		if math.IsInf(c.key, 1) || c.key > s.cut() || !yield(c.key, c.nodes) {
			return
		}
	}
}

// groupByCell splits the node list into its cells' shares under v's
// partition, in ascending cell order, each share in list order: a counting
// sort by cell.
func groupByCell(nodes []graph.NodeID, v interface{ Cell(graph.NodeID) int }) []cellNodes {
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
	at := make([]int, len(count)) // cell → its group
	end := 0
	for c, k := range count {
		if k > 0 {
			at[c] = len(groups)
			groups = append(groups, cellNodes{cell: c, nodes: sorted[end : end : end+k]})
		}
		end += k
	}
	for _, m := range nodes {
		g := &groups[at[v.Cell(m)]]
		g.nodes = append(g.nodes, m)
	}
	return groups
}
