package apsp

import (
	"math"

	"kor/internal/graph"
)

// Bounded sweeps. The label algorithms only ever ask σ questions whose answer
// is useless beyond what the query's budget limit Δ leaves: a partial route
// needing more than Δ of budget to reach the target, or more than
// Δ − BS(σ(c,t)) to reach a candidate node c, can never become feasible. A
// reverse Dijkstra truncated at that bound therefore answers every useful
// lookup exactly, while settling — and, being stored compactly, holding —
// only the bound's ball around its root instead of the whole graph. On the
// lazy oracle these sweeps live in the oracle memo beside the full ones,
// tagged with their bound: a sweep serves any request for the same root and
// metric at its bound or narrower.

// Sweep is an exported handle over one sweep around a fixed root, truncated
// at bound (+Inf: a full sweep). On a reverse sweep Scores answers
// (v → root) pair queries, on a forward one (root → v); ok=false means no
// path within the sweep's bound (or at all), which callers must treat as "no
// useful path", not "no path". Because a served sweep may be wider than
// requested, ok=true does not imply the score is within the caller's bound:
// callers re-check.
type Sweep struct {
	s     *sweep
	m     Metric
	root  graph.NodeID
	bound float64
	// covered is the bound of the cover a covering sweep was run to contain
	// (see CoveringSweep), -Inf on any other: it reaches every node the
	// other metric's reverse sweep into root reaches within covered.
	covered float64
}

// Scores returns the (objective, budget) scores of the metric-optimal path
// between v and the sweep's root.
func (s *Sweep) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	return s.s.scores(v, s.m)
}

// bytes is what the memo charges for the sweep.
func (s *Sweep) bytes() int64 { return s.s.bytes() }

// ReverseBoundedSweep runs a reverse two-criteria Dijkstra into root,
// truncated once the primary metric exceeds bound (pass +Inf for a full
// sweep). The scores of every settled node are exact (truncation only drops
// nodes wholly past the bound).
func ReverseBoundedSweep(g *graph.Graph, root graph.NodeID, m Metric, bound float64) *Sweep {
	return newSweep(g, memoKey{root, m, false}, bound, nil)
}

// newSweep runs the Dijkstra key names, truncated at bound — or, when cover is
// given, at the smallest radius, bound or wider, at which the sweep reaches
// every node cover reaches. The Sweep is tagged with the radius it stopped at
// and is exactly the sweep a run bounded there returns, so the memo's bound
// rule applies to a covering sweep unchanged.
func newSweep(g *graph.Graph, key memoKey, bound float64, cover *Sweep) *Sweep {
	var c *sweep
	covered := math.Inf(-1)
	if cover != nil {
		c, covered = cover.s, cover.bound
	}
	s, bound := dijkstraBounded(g, key.node, key.metric, !key.outbound, bound, c)
	return &Sweep{s: s, m: key.metric, root: key.node, bound: bound, covered: covered}
}

// WalkFrom materializes, off a reverse sweep, the metric-optimal path from v
// into the sweep's root, inclusive of both endpoints. One sweep answers every
// path into its root — the reconstruction pattern of the label algorithms,
// which the score-only dense tables would otherwise answer with a fresh
// sweep per path.
func (s *Sweep) WalkFrom(v graph.NodeID) ([]graph.NodeID, bool) {
	return walkReverse(s.s, s.root, v)
}

// WalkTo materializes, off a forward sweep, the metric-optimal path from the
// sweep's root to v.
func (s *Sweep) WalkTo(v graph.NodeID) ([]graph.NodeID, bool) {
	return walkForward(s.s, s.root, v)
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
	// CoveringSweep returns a reverse sweep into root under m that reaches
	// every node cover — a reverse sweep into root under the other metric —
	// reaches: truncated at the smallest such radius, or wider. A query's
	// τ(·,target) lookups only ever follow a successful σ(·,target) lookup at
	// the same node, so the τ sweep covering the σ sweep in hand answers all
	// of them.
	CoveringSweep(root graph.NodeID, m Metric, cover *Sweep) (sw *Sweep, shared bool)
	// Frontier opens a run around root under m — out of root when outbound,
	// into it otherwise — that the caller advances node by node, for the
	// caller that scans one node against many and can tell when to stop. It
	// bypasses the memo; the caller must Close it.
	Frontier(root graph.NodeID, m Metric, outbound bool) *Frontier
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
