package apsp

import (
	"math"

	"kor/internal/graph"
)

// Frontier is a Dijkstra run its caller advances one settled node at a time:
// the resumable form of a sweep, for a caller that can tell from the scores
// settled so far when the rest of the graph can no longer change its answer
// (Greedy's candidate scan, the candidate prune, the candidate sweeps
// restricted to the source frontier's ellipse), or that reads only where
// another check let it through (the τ tail into the target, read only at
// nodes whose σ tail fits Δ). It runs the same step as every bounded run, so
// nodes settle in the same (primary, secondary, node ID) order and each
// settled node's scores and parent are bit for bit those of a full sweep. A
// Frontier is a Vector whose reads settle what they need. It reads its pooled
// scratch in place — 25 bytes per graph node, dense — and holds it until
// Close; it is owned by one goroutine.
type Frontier struct {
	sc   *sweepScratch
	root graph.NodeID
	o    *LazyOracle // counts the frontier until Close; nil in tests
}

// Frontier opens a run around root under m: out of root when outbound, into
// it otherwise. The caller must Close it.
func (o *LazyOracle) Frontier(root graph.NodeID, m Metric, outbound bool) *Frontier {
	f := &Frontier{sc: getScratch(o.g.NumNodes()), root: root, o: o}
	f.sc.start(o.g, root, m, !outbound)
	o.runs.Add(1)
	o.frontiersOpen.Add(1)
	return f
}

// FrontierStats reports how many frontiers are open right now and how many
// nodes the closed ones settled in total.
func (o *LazyOracle) FrontierStats() (open, settled int64) {
	return o.frontiersOpen.Load(), o.frontierSettled.Load()
}

// Head returns the primary score the next node to settle will carry, +Inf
// once every reachable node has settled: no node outside Order ends below it.
func (f *Frontier) Head() float64 { return f.sc.head() }

// Next settles one more node, appending it to Order; false once drained.
func (f *Frontier) Next() bool {
	return f.sc.step(math.Inf(1))
}

// Order lists the settled nodes in settle order, ascending in the primary
// score. It is valid until the next call to Next or Close.
func (f *Frontier) Order() []graph.NodeID { return f.sc.settled }

// Settled reports whether v has settled.
func (f *Frontier) Settled(v graph.NodeID) bool { return f.sc.done[v] }

// Within reports whether v's primary score is at most limit, advancing the
// run only while its head is: it settles no node past limit. Until v settles
// its score is at least the head, so a head past limit answers false.
func (f *Frontier) Within(v graph.NodeID, limit float64) bool {
	sc := f.sc
	for !sc.done[v] {
		if sc.head() > limit {
			return false
		}
		sc.step(math.Inf(1))
	}
	return sc.primary[v] <= limit
}

// settle advances the run until v settles; false once it drains without.
func (f *Frontier) settle(v graph.NodeID) bool {
	for !f.sc.done[v] {
		if !f.Next() {
			return false
		}
	}
	return true
}

// Scores returns the (objective, budget) scores of the metric-optimal path
// between the root and v, settling nodes until v settles; ok is false once
// the run drains without reaching v.
func (f *Frontier) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	if !f.settle(v) {
		return 0, 0, false
	}
	sc := f.sc
	if sc.m == ByObjective {
		return sc.primary[v], sc.secondary[v], true
	}
	return sc.secondary[v], sc.primary[v], true
}

// Walk materializes the path between the root and v in the run's direction —
// v→root into the root, root→v out of it — settling nodes until v settles.
func (f *Frontier) Walk(v graph.NodeID) ([]graph.NodeID, bool) {
	if !f.settle(v) {
		return nil, false
	}
	if f.sc.reverse {
		return walkReverse(f.sc, f.root, v)
	}
	return walkForward(f.sc, f.root, v)
}

// Close returns the scratch to the pool. Idempotent; the frontier is unusable
// afterwards.
func (f *Frontier) Close() {
	if f.sc == nil {
		return
	}
	if f.o != nil {
		f.o.frontiersOpen.Add(-1)
		f.o.frontierSettled.Add(int64(len(f.sc.settled)))
	}
	scratchPool.Put(f.sc)
	f.sc = nil
}
