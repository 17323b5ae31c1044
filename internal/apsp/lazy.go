package apsp

import (
	"sync/atomic"

	"kor/internal/graph"
)

// LazyOracle serves τ/σ queries from Dijkstra runs made on demand, in place
// of the paper's offline tables (§3.1). It keeps no memo: every run belongs
// to the query plan that asked for it, and exact repeats are answered by the
// engine's result layer before a plan is built. A plan reads two kinds of run
// (see Into and OpenFrontier):
//
//   - reverse sweeps truncated at the bound the plan can use (ReverseSweep):
//     the σ tail into the target at Δ and the candidate vectors, stored
//     compactly, so their memory follows the bound's ball, not |V|; a σ
//     candidate sweep is further restricted to the budget ellipse its plan's
//     source frontier draws;
//   - frontiers (Frontier), grown only as far as they are read: the τ tail
//     into the target, Greedy's candidate scan and the source frontier
//     behind the candidate prune.
//
// The pair interface runs one point-to-point frontier per call. A LazyOracle
// is safe for concurrent use: it holds only counters.
type LazyOracle struct {
	g *graph.Graph

	runs            atomic.Int64
	sweepSettled    atomic.Int64
	frontiersOpen   atomic.Int64
	frontierSettled atomic.Int64
}

// NewLazyOracle returns an oracle over g.
func NewLazyOracle(g *graph.Graph) *LazyOracle { return &LazyOracle{g: g} }

// SweepCount reports how many Dijkstra runs the oracle has started: sweeps,
// frontiers and pair lookups alike.
func (o *LazyOracle) SweepCount() int64 { return o.runs.Load() }

// SweepSettled reports how many nodes the oracle's reverse sweeps have
// settled in total; FrontierStats counts its frontiers'.
func (o *LazyOracle) SweepSettled() int64 { return o.sweepSettled.Load() }

// ReverseSweep runs a reverse sweep into root under m, truncated at bound
// (see ReverseBoundedSweep). When src is not nil — a frontier out of some
// source under m, over the oracle's graph — the sweep is also restricted to
// the ellipse src draws: it holds every node v whose src score plus its own
// is within bound, with the scores and walk the unrestricted sweep gives v,
// and settles nodes of src no further than bound.
func (o *LazyOracle) ReverseSweep(root graph.NodeID, m Metric, bound float64, src *Frontier) *Sweep {
	o.runs.Add(1)
	s := &Sweep{s: dijkstraWithin(o.g, root, m, true, bound, src), m: m, root: root}
	o.sweepSettled.Add(int64(s.s.count()))
	return s
}

// pair answers a pair query under metric m off a frontier into to, run until
// from settles.
func (o *LazyOracle) pair(from, to graph.NodeID, m Metric) (os, bs float64, ok bool) {
	f := o.Frontier(to, m, false)
	defer f.Close()
	return f.Scores(from)
}

// MinObjective returns the scores of τ(from,to).
func (o *LazyOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	return o.pair(from, to, ByObjective)
}

// MinBudget returns the scores of σ(from,to).
func (o *LazyOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return o.pair(from, to, ByBudget)
}

// PrefetchTarget does nothing: with no memo there is nothing to warm. It
// keeps the oracle a Prefetcher for callers that still hint.
func (o *LazyOracle) PrefetchTarget(graph.NodeID) {}

// MinObjectivePath materializes τ(from,to).
func (o *LazyOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByObjective)
}

// MinBudgetPath materializes σ(from,to).
func (o *LazyOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByBudget)
}

func (o *LazyOracle) path(from, to graph.NodeID, m Metric) ([]graph.NodeID, bool) {
	f := o.Frontier(to, m, false)
	defer f.Close()
	return f.Walk(from)
}
