package core

import (
	"fmt"
	"strings"

	"kor/internal/bitset"
	"kor/internal/graph"
)

// Route is a search result: the node sequence from the query source to the
// query target with its scores (Definitions 2–3).
type Route struct {
	// Nodes is the full node sequence, source first, target last. A route
	// may revisit nodes: KOR routes are walks, not simple paths.
	Nodes []graph.NodeID
	// Objective is the route's objective score OS(R).
	Objective float64
	// Budget is the route's budget score BS(R).
	Budget float64
	// Covered is the set of query keywords the route covers, as bit
	// positions aligned with the query's keyword list.
	Covered bitset.Mask
	// CoversAll reports whether every query keyword is covered.
	CoversAll bool
	// Feasible reports whether the route meets both hard constraints of
	// Definition 4: full coverage and Budget ≤ Δ.
	Feasible bool
}

// String renders the route compactly for logs and examples.
func (r Route) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range r.Nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	fmt.Fprintf(&b, "] OS=%.4g BS=%.4g", r.Objective, r.Budget)
	if !r.Feasible {
		b.WriteString(" (infeasible)")
	}
	return b.String()
}

// Result is what a search returns: the best route(s) and the work counters.
type Result struct {
	// Routes holds the routes found, best objective first. Plain KOR
	// queries yield one; TopK yields up to k.
	Routes []Route
	// Metrics are the search's work counters.
	Metrics Metrics
}

// Best returns the first (best) route. It panics if the result is empty;
// call only after a nil-error search.
func (r Result) Best() Route { return r.Routes[0] }

// reconstruct materializes the route of a final label: the parent chain,
// then the τ tail from the label's node to the query target. tailOS/tailBS
// are τ's scores, already verified feasible by the caller. The second return
// value is the route's uint64 signature: the hash the labels carried
// incrementally, extended over the τ tail.
func (p *plan) reconstruct(last *label, tailOS, tailBS float64) (Route, uint64, error) {
	// Collect the chain source→last.
	var chain []*label
	for l := last; l != nil; l = l.parent {
		chain = append(chain, l)
	}
	nodes := make([]graph.NodeID, 0, len(chain)+4)
	for i := len(chain) - 1; i >= 0; i-- {
		nodes = append(nodes, chain[i].node)
	}
	chainLen := len(nodes)

	if last.node != p.q.Target {
		tail, ok := p.tauTail().Walk(last.node)
		if !ok {
			return Route{}, 0, fmt.Errorf("kor: internal: lost τ(%d,%d) during reconstruction", last.node, p.q.Target)
		}
		nodes = append(nodes, tail[1:]...)
	}

	sig := last.hash
	for _, v := range nodes[chainLen:] {
		sig = extendRouteHash(sig, v)
	}

	covered := bitset.Mask(0)
	for _, v := range nodes {
		covered = covered.Union(p.nodeMask[v])
	}
	os := last.os + tailOS
	bs := last.bs + tailBS
	return Route{
		Nodes:     nodes,
		Objective: os,
		Budget:    bs,
		Covered:   covered,
		CoversAll: covered.Covers(p.qMask),
		Feasible:  covered.Covers(p.qMask) && bs <= p.q.Budget,
	}, sig, nil
}
