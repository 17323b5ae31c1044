package apsp

import "kor/internal/graph"

// Vector is the view of the τ or σ scores between every node and one fixed
// root — into the root (v→root) or out of it (root→v) — with the paths behind
// them: what the search algorithms read of the pre-processing (§3.1). The
// root is the query target, a strategy-2 candidate or a Greedy waypoint.
// Every oracle hands its vectors out through Into, OutOf and OpenFrontier,
// and the query plan reads nothing else, whichever oracle it runs on:
//
//   - a lazy oracle's reverse sweeps (*Sweep), truncated at a bound, and its
//     frontiers (*Frontier), grown as far as they are read; both belong to
//     the plan that asked for them;
//   - a partitioned oracle's target and source slices, shared between
//     queries;
//   - any other oracle's pair interface, seen from the root.
type Vector interface {
	// Scores returns the objective and budget score of the metric-optimal
	// path between v and the root; ok is false when there is none — or, on a
	// sweep truncated at a bound, none within it: callers treat both alike.
	Scores(v graph.NodeID) (os, bs float64, ok bool)
	// Walk materializes that path in the vector's own direction, both
	// endpoints included: v→root into a root, root→v out of one.
	Walk(v graph.NodeID) ([]graph.NodeID, bool)
}

// onDemand is implemented by oracles that compute scores with Dijkstra runs
// made on demand, so a query plan profits from running bounded sweeps into
// the handful of candidate nodes it will hammer and frontiers where it can
// tell when to stop. Dense-table oracles answer lookups in O(1) and must not
// implement it. The resolvers below are its only readers.
type onDemand interface {
	// ReverseSweep runs a reverse sweep into root under m, truncated at
	// bound and, when src is not nil, restricted to the nodes whose score
	// out of src's root fits bound with their own.
	ReverseSweep(root graph.NodeID, m Metric, bound float64, src *Frontier) *Sweep
	// Frontier opens a run around root under m — out of root when outbound,
	// into it otherwise — that the caller advances node by node. The caller
	// must Close it.
	Frontier(root graph.NodeID, m Metric, outbound bool) *Frontier
}

// IsOnDemand reports whether o computes pair scores via on-demand sweeps.
func IsOnDemand(o Oracle) bool {
	_, ok := o.(onDemand)
	return ok
}

// Into resolves the vector of the m-optimal scores from every node into root.
// On an oracle that runs sweeps it is a fresh reverse sweep truncated at
// bound, and ran reports it: ok=false then also means "not within bound".
// A non-nil src — a frontier that oracle opened out of some source under m —
// restricts the sweep further, to the nodes v with src's score of v plus
// v's score into root within bound; ok=false then also means "not within
// the ellipse". Other oracles run no sweep and ignore src. The oracle is
// asked through the methods of the value handed in, so a wrapper sees every
// call.
func Into(o Oracle, root graph.NodeID, m Metric, bound float64, src *Frontier) (v Vector, ran bool) {
	switch od := o.(type) {
	case onDemand:
		return od.ReverseSweep(root, m, bound, src), true
	case SliceIndexed:
		return &sliceVector{od.TargetSlice(root, m), pairVector{o, root, m, false}}, false
	}
	return &pairVector{o, root, m, false}, false
}

// OutOf resolves the vector of the m-optimal scores out of root to every
// node: a source slice on an oracle that serves them — whose scores agree
// with the pair interface only up to floating-point association, see
// SourceSliced — and the pair view on any other. On an oracle that runs
// sweeps, open a frontier instead (OpenFrontier).
func OutOf(o Oracle, root graph.NodeID, m Metric) Vector {
	if od, ok := o.(SourceSliced); ok {
		return &sliceVector{od.SourceSlice(root, m), pairVector{o, root, m, true}}
	}
	return &pairVector{o, root, m, true}
}

// OpenFrontier opens a plan-private run around root under m — out of root
// when outbound, into it otherwise — on an oracle that runs sweeps, and
// returns nil on any other. The caller must Close what it gets.
func OpenFrontier(o Oracle, root graph.NodeID, m Metric, outbound bool) *Frontier {
	if od, ok := o.(onDemand); ok {
		return od.Frontier(root, m, outbound)
	}
	return nil
}

// pairVector is the pair interface seen from one root: each score is one
// pair query, each walk one Min*Path call (nil, false when the oracle
// materializes no paths). It serves every oracle that offers neither sweeps
// nor slices, and walks the paths of slice vectors. Its methods take a
// pointer: a value receiver copies the struct out of the interface on every
// read, which cost the matrix oracle's hot loops a third of their time.
type pairVector struct {
	o        Oracle
	root     graph.NodeID
	m        Metric
	outbound bool
}

// ends orients the pair between v and the root.
func (p *pairVector) ends(v graph.NodeID) (from, to graph.NodeID) {
	if p.outbound {
		return p.root, v
	}
	return v, p.root
}

func (p *pairVector) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	from, to := p.ends(v)
	if p.m == ByObjective {
		return p.o.MinObjective(from, to)
	}
	return p.o.MinBudget(from, to)
}

func (p *pairVector) Walk(v graph.NodeID) ([]graph.NodeID, bool) {
	pm, ok := p.o.(PathMaterializer)
	if !ok {
		return nil, false
	}
	from, to := p.ends(v)
	if p.m == ByObjective {
		return pm.MinObjectivePath(from, to)
	}
	return pm.MinBudgetPath(from, to)
}

// sliceVector is a slice read for its scores, with the oracle that handed it
// out walking its paths.
type sliceVector struct {
	ts *TargetSlice
	pairVector
}

func (s *sliceVector) Scores(v graph.NodeID) (os, bs float64, ok bool) { return s.ts.Scores(v) }

// Cell and CellBound forward the slice's cell bounds (TargetSlice.CellBound).
func (s *sliceVector) Cell(v graph.NodeID) int          { return s.ts.Cell(v) }
func (s *sliceVector) CellBound(c int) (os, bs float64) { return s.ts.CellBound(c) }
