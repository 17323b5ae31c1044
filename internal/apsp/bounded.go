package apsp

import "kor/internal/graph"

// Bounded sweeps. The label algorithms only ever ask σ questions whose answer
// is useless beyond what the query's budget limit Δ leaves: a partial route
// needing more than Δ of budget to reach the target, or more than
// Δ − BS(σ(c,t)) to reach a candidate node c, can never become feasible. A
// reverse Dijkstra truncated at that bound therefore answers every useful
// lookup exactly, while settling — and, being stored compactly, holding —
// only the bound's ball around its root instead of the whole graph.

// Sweep is the Vector over one reverse sweep into a fixed root, truncated at
// a bound: Scores answers (v → root) pair queries, and ok=false means no path
// within the bound (or at all), which callers must treat as "no useful path",
// not "no path".
type Sweep struct {
	s    *sweep
	m    Metric
	root graph.NodeID
}

// Scores returns the (objective, budget) scores of the metric-optimal path
// from v to the sweep's root.
func (s *Sweep) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	return s.s.scores(v, s.m)
}

// ReverseBoundedSweep runs a reverse two-criteria Dijkstra into root,
// truncated once the primary metric exceeds bound (pass +Inf for a full
// sweep). The scores of every settled node are exact (truncation only drops
// nodes wholly past the bound).
func ReverseBoundedSweep(g *graph.Graph, root graph.NodeID, m Metric, bound float64) *Sweep {
	return &Sweep{s: dijkstraBounded(g, root, m, true, bound), m: m, root: root}
}

// Walk materializes the metric-optimal path from v to the sweep's root,
// inclusive of both endpoints: one sweep answers every path into its root —
// the reconstruction pattern of the label algorithms.
func (s *Sweep) Walk(v graph.NodeID) ([]graph.NodeID, bool) {
	return walkReverse(s.s, s.root, v)
}

// Indexed marks oracles whose path materialization is a table walk rather
// than a sweep, so callers can delegate reconstruction to them directly
// instead of maintaining their own path sweeps.
type Indexed interface {
	// IndexedPaths reports that Min*Path runs in O(path length).
	IndexedPaths() bool
}

// HasIndexedPaths reports whether o materializes paths from tables.
func HasIndexedPaths(o Oracle) bool {
	d, ok := o.(Indexed)
	return ok && d.IndexedPaths()
}
