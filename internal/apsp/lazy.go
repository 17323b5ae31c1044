package apsp

import (
	"math"
	"sync/atomic"

	"kor/internal/graph"
)

// LazyOracle serves τ/σ queries from memoized Dijkstra sweeps instead of
// dense tables. A reverse sweep into a target answers every (·, target)
// query; a forward sweep answers every (source, ·) query. The route-search
// algorithms fetch the sweeps they will hammer through the OnDemand methods
// and hold on to them: truncated reverse sweeps into the query target and
// into candidate nodes (ReverseSweep, CoveringSweep). Greedy, which scores
// keyword nodes against its waypoints and the target with no budget bound,
// reads plan-private frontiers instead (Frontier), grown only as far as its
// pick can still change. The pair interface reads whichever full sweep is
// resident.
//
// All sweeps — forward, reverse, full and truncated — live in one oracle
// memo (memo.go), which charges each what it really holds (sweepBytes for a
// full one, compactNodeBytes per settled node for a truncated one), so
// memory is bounded by sweepMemoBudget whatever mix of queries runs, and
// concurrent queries needing the same missing sweep share one Dijkstra run.
// Frontiers bypass the memo: each holds one pooled scratch until its owner
// closes it. A LazyOracle is safe for concurrent use; published sweeps are
// immutable.
type LazyOracle struct {
	g      *graph.Graph
	sweeps *memo[*Sweep]

	frontiersOpen   atomic.Int64
	frontierSettled atomic.Int64
}

// sweepBytes is the resident size of one full sweep over an n-node graph:
// two float64 score vectors and an int32 parent vector.
func sweepBytes(n int) int64 { return int64(n)*(8+8+4) + sweepBaseBytes }

// compactSweepBytes is the resident size of a truncated sweep that settled k
// nodes. With k = |V| — a bound that happens to reach every node — it is the
// most any sweep over the graph holds.
func compactSweepBytes(k int) int64 { return int64(k)*compactNodeBytes + sweepBaseBytes }

// NewLazyOracle returns an oracle over g.
func NewLazyOracle(g *graph.Graph) *LazyOracle {
	return &LazyOracle{
		g:      g,
		sweeps: newMemo(sweepMemoEntries, sweepMemoBudget, compactSweepBytes(g.NumNodes()), (*Sweep).bytes),
	}
}

// SweepCount reports how many Dijkstra sweeps the oracle has run. Every run
// is a memo miss and every memo miss is a run.
func (o *LazyOracle) SweepCount() int64 { return o.sweeps.misses.Load() }

// MemoStats reports the sweep memo's counters and residency.
func (o *LazyOracle) MemoStats() MemoStats { return o.sweeps.stats(nil) }

// sweep returns a sweep around key.node truncated no tighter than bound. By
// the prefix property of the bounded Dijkstra (truncation only drops nodes
// wholly past the bound; ties break by node ID) a wider or full sweep
// answers every lookup inside bound with exactly the scores and parents a
// sweep at bound would have produced, so a resident wider sweep is served
// verbatim and a narrower one is replaced.
func (o *LazyOracle) sweep(key memoKey, bound float64) (*Sweep, bool) {
	return o.sweeps.get(key,
		func(s *Sweep) bool { return s.bound >= bound },
		func() *Sweep { return newSweep(o.g, key, bound, nil) })
}

// full returns the resident full sweep under key, or nil; it never blocks.
func (o *LazyOracle) full(key memoKey) *sweep {
	if s, ok := o.sweeps.peek(key); ok && math.IsInf(s.bound, 1) {
		return s.s
	}
	return nil
}

func (o *LazyOracle) forward(root graph.NodeID, m Metric) *sweep {
	s, _ := o.sweep(memoKey{root, m, true}, math.Inf(1))
	return s.s
}

func (o *LazyOracle) reverse(root graph.NodeID, m Metric) *sweep {
	s, _ := o.sweep(memoKey{root, m, false}, math.Inf(1))
	return s.s
}

// ReverseSweep returns a reverse sweep into root under m truncated at bound
// or wider (see OnDemand). shared reports that the sweep was already
// resident or computed by a concurrent caller.
func (o *LazyOracle) ReverseSweep(root graph.NodeID, m Metric, bound float64) (sw *Sweep, shared bool) {
	return o.sweep(memoKey{root, m, false}, bound)
}

// CoveringSweep returns a reverse sweep into root under m that reaches every
// node cover reaches (see OnDemand). Whether a resident sweep does is read
// off its tags, not probed node by node: a full sweep covers anything, and a
// sweep run to contain the other metric's ball at some bound contains every
// narrower one. A full cover — or one that is not the other metric's sweep
// into root — gets the full sweep. Any other resident sweep is replaced, by
// one no narrower than it: its bound is the floor of the covering run.
func (o *LazyOracle) CoveringSweep(root graph.NodeID, m Metric, cover *Sweep) (sw *Sweep, shared bool) {
	key := memoKey{root, m, false}
	if math.IsInf(cover.bound, 1) || cover.root != root || cover.m == m {
		return o.sweep(key, math.Inf(1))
	}
	floor := 0.0
	if s, ok := o.sweeps.peek(key); ok {
		floor = s.bound
	}
	return o.sweeps.get(key,
		func(s *Sweep) bool { return math.IsInf(s.bound, 1) || s.covered >= cover.bound },
		func() *Sweep { return newSweep(o.g, key, floor, cover) })
}

// lookup answers a pair query under metric m, preferring whichever full
// sweep is already resident and defaulting to a reverse sweep into the
// target — the dominant access pattern of the label-search algorithms.
func (o *LazyOracle) lookup(from, to graph.NodeID, m Metric) (float64, float64, bool) {
	if from == to {
		return 0, 0, true
	}
	s, v := o.full(memoKey{to, m, false}), from
	if s == nil {
		s, v = o.full(memoKey{from, m, true}), to
	}
	if s == nil {
		s, v = o.reverse(to, m), from
	}
	return s.scores(v, m)
}

// MinObjective returns the scores of τ(from,to).
func (o *LazyOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	return o.lookup(from, to, ByObjective)
}

// MinBudget returns the scores of σ(from,to).
func (o *LazyOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return o.lookup(from, to, ByBudget)
}

// PrefetchTarget caches reverse sweeps into this node under both metrics.
func (o *LazyOracle) PrefetchTarget(to graph.NodeID) {
	o.reverse(to, ByObjective)
	o.reverse(to, ByBudget)
}

// MinObjectivePath materializes τ(from,to), reusing a cached sweep when one
// is available.
func (o *LazyOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByObjective)
}

// MinBudgetPath materializes σ(from,to).
func (o *LazyOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByBudget)
}

func (o *LazyOracle) path(from, to graph.NodeID, m Metric) ([]graph.NodeID, bool) {
	if from == to {
		return []graph.NodeID{from}, true
	}
	if s := o.full(memoKey{to, m, false}); s != nil {
		return walkReverse(s, to, from)
	}
	return walkForward(o.forward(from, m), from, to)
}
