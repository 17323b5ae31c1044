package apsp

import "kor/internal/graph"

// Bounded sweeps. The label algorithms only ever ask σ questions whose answer
// is useless beyond the query's budget limit Δ: a partial route needing more
// than Δ of budget to reach a candidate node can never become feasible. A
// reverse Dijkstra into that candidate truncated at Δ therefore answers every
// useful lookup exactly, while settling only the Δ-ball around the candidate
// instead of the whole graph. On the lazy oracle these sweeps live in the
// oracle memo beside the full ones, tagged with their bound: a sweep serves
// any request for the same root and metric at its bound or narrower.

// Sweep is an exported handle over one reverse sweep into a fixed root,
// truncated at bound (+Inf: a full sweep). Scores answers (from → root) pair
// queries; ok=false means the root is unreachable from the node within the
// sweep's bound (or at all), which callers must treat as "no useful path",
// not "no path". Because a served sweep may be wider than requested, ok=true
// does not imply the score is within the caller's bound: callers re-check.
type Sweep struct {
	s     *sweep
	m     Metric
	root  graph.NodeID
	bound float64
}

// Scores returns the (objective, budget) scores of the metric-optimal path
// from v into the sweep's root.
func (s *Sweep) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	if !s.s.reached(v) {
		return 0, 0, false
	}
	os, bs = s.s.scores(v, s.m)
	return os, bs, true
}

// ReverseBoundedSweep runs a reverse two-criteria Dijkstra into root,
// truncated once the primary metric exceeds bound (pass +Inf for a full
// sweep). The scores of every settled node are exact (truncation only drops
// nodes wholly past the bound).
func ReverseBoundedSweep(g *graph.Graph, root graph.NodeID, m Metric, bound float64) *Sweep {
	return newSweep(g, memoKey{root, m, false}, bound)
}

// newSweep runs the Dijkstra key names, truncated at bound. Outbound sweeps
// never leave the lazy oracle: Scores and WalkFrom read a Sweep as inbound.
func newSweep(g *graph.Graph, key memoKey, bound float64) *Sweep {
	return &Sweep{s: dijkstraBounded(g, key.node, key.metric, !key.outbound, bound), m: key.metric, root: key.node, bound: bound}
}

// WalkFrom materializes the metric-optimal path from v into the sweep's
// root, inclusive of both endpoints. One sweep answers every path into its
// root — the reconstruction pattern of the label algorithms, which the
// score-only dense tables would otherwise answer with a fresh sweep per
// path.
func (s *Sweep) WalkFrom(v graph.NodeID) ([]graph.NodeID, bool) {
	return s.s.walkReverse(s.root, v)
}

// OnDemand is implemented by oracles whose pair lookups may trigger
// full-graph sweeps, so a query plan profits from fetching bounded sweeps
// into the handful of candidate nodes it will hammer. Dense-table oracles
// answer lookups in O(1) and must not implement it.
type OnDemand interface {
	// ReverseSweep returns a reverse sweep into root under m, truncated at
	// bound or wider. shared reports that the caller did not pay for it: the
	// sweep was resident or in flight on behalf of another caller.
	ReverseSweep(root graph.NodeID, m Metric, bound float64) (sw *Sweep, shared bool)
}

// IsOnDemand reports whether o computes pair scores via on-demand sweeps.
func IsOnDemand(o Oracle) bool {
	_, ok := o.(OnDemand)
	return ok
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
