package core

import (
	"kor/internal/bitset"
	"kor/internal/graph"
)

// label is a node label (Definition 5): one partial route from the query
// source to node, carrying the covered query keywords λ, the scaled
// objective score ŌS, and the exact objective and budget scores. Labels
// form a parent-linked tree for route reconstruction.
//
// Labels are arena-allocated (see arena.go): they live exactly as long as
// their plan and must never be retained past it.
type label struct {
	node    graph.NodeID
	covered bitset.Mask
	scaled  int64 // ŌS over the scaled graph G_S
	os      float64
	bs      float64
	parent  *label
	// hash is the incremental route signature of the chain's node sequence
	// (see candidates.go).
	hash uint64
	// seq is the creation sequence number, the final deterministic
	// tie-break in the label order.
	seq uint64
	// deleted marks labels lazily removed from the queues after domination.
	deleted bool
}

// LabelView is the read-only projection of a label exposed through the
// Tracer, mirroring Table 1 of the paper: (λ, ŌS, OS, BS) at a node.
type LabelView struct {
	Node     graph.NodeID
	Covered  bitset.Mask
	ScaledOS int64
	OS       float64
	BS       float64
}

func (l *label) view() LabelView {
	return LabelView{Node: l.node, Covered: l.covered, ScaledOS: l.scaled, OS: l.os, BS: l.bs}
}

// less is the label order of Definition 8: more covered keywords first,
// then smaller scaled objective, then smaller budget, with ties broken by
// node ID and creation order so runs are reproducible.
func (l *label) less(o *label) bool {
	lc, oc := l.covered.Count(), o.covered.Count()
	if lc != oc {
		return lc > oc
	}
	if l.scaled != o.scaled {
		return l.scaled < o.scaled
	}
	if l.bs != o.bs {
		return l.bs < o.bs
	}
	if l.node != o.node {
		return l.node < o.node
	}
	return l.seq < o.seq
}

// dominates is Definition 6 on the scaled graph: l dominates o iff l covers
// at least o's keywords with no worse scaled objective and budget. A label
// "dominates" an identical score triple; insertion rejects the newcomer in
// that case, keeping exactly one copy.
func (l *label) dominates(o *label) bool {
	return l.covered.Contains(o.covered) && l.scaled <= o.scaled && l.bs <= o.bs
}

// labelStore keeps the per-node label lists and applies (k-)domination.
// For the KkR query (§3.5), k > 1 makes it keep any label dominated by
// fewer than k others. The lists and the per-node coverage-union prefilter
// live in the plan's pooled scratch.
type labelStore struct {
	sc      *planScratch
	k       int
	metrics *Metrics
	tracer  Tracer
}

func newLabelStore(sc *planScratch, k int, metrics *Metrics, tracer Tracer) *labelStore {
	return &labelStore{sc: sc, k: k, metrics: metrics, tracer: tracer}
}

// tryInsert adds l to its node's list unless it is k-dominated by existing
// labels. On success, existing labels that become k-dominated (for k = 1:
// dominated by l) are marked deleted and filtered out. It reports whether l
// was inserted.
func (st *labelStore) tryInsert(l *label) bool {
	sc := st.sc
	list := sc.perNode[l.node]
	if len(list) == 0 {
		sc.perNode[l.node] = append(list, l)
		sc.union[l.node] = l.covered
		sc.touched = append(sc.touched, l.node)
		return true
	}

	// Coverage prefilter: a dominator must cover ⊇ l.covered, so when even
	// the union of live coverage at this node misses one of l's keywords, no
	// dominator can exist and the scan is skipped.
	if sc.union[l.node].Contains(l.covered) {
		dominators := 0
		for _, x := range list {
			if x.deleted {
				continue
			}
			if x.dominates(l) {
				dominators++
				if dominators >= st.k {
					st.metrics.Dominated++
					if st.tracer != nil {
						st.tracer.Trace(TraceEvent{Kind: TraceDominated, Label: l.view()})
					}
					return false
				}
			}
		}
	}

	// Sweep out labels that l pushes past their domination budget, rebuilding
	// the coverage union over the survivors as we go. For the plain k=1 query
	// l dominating x already settles the count, skipping countDominators.
	w := 0
	union := l.covered
	for _, x := range list {
		if x.deleted {
			continue
		}
		if l.dominates(x) && (st.k == 1 || st.countDominators(list, x, l) >= st.k) {
			x.deleted = true
			st.metrics.DominatedSwept++
			continue
		}
		list[w] = x
		w++
		union = union.Union(x.covered)
	}
	list = list[:w]
	sc.perNode[l.node] = append(list, l)
	sc.union[l.node] = union
	return true
}

// countDominators counts live labels dominating x, including the incoming
// label extra (not yet in the list).
func (st *labelStore) countDominators(list []*label, x, extra *label) int {
	n := 0
	if extra.dominates(x) {
		n++
	}
	for _, y := range list {
		if y.deleted || y == x || y == extra {
			continue
		}
		if y.dominates(x) {
			n++
		}
	}
	return n
}
