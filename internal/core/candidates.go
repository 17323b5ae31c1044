package core

import (
	"math"
	"slices"

	"kor/internal/graph"
)

// Route signatures. Routes are deduplicated by node sequence: the same
// physical route can be reached through different labels (e.g. a label at vj
// completed by τ(vj,t) and a label one hop further along that same τ path).
// The signature is an FNV-1a style uint64 folded over the node sequence —
// built incrementally on labels as they extend (label.hash) and finished
// during reconstruction, replacing the string signatures that used to be
// rebuilt from scratch on every admit. Every search path — OSScaling,
// BucketBound, TopK and Exact, which all dispatch through the same plan
// machinery — shares this one signature.
const (
	routeHashSeed  uint64 = 14695981039346656037
	routeHashPrime uint64 = 1099511628211
)

// extendRouteHash folds one node into a route signature.
func extendRouteHash(h uint64, v graph.NodeID) uint64 {
	return (h ^ uint64(uint32(v))) * routeHashPrime
}

// candidateSet collects feasible routes during a label search and maintains
// the upper bound U. For the plain KOR query it holds the single best route;
// for the KkR query (§3.5) it holds the k best distinct routes and U is the
// k-th best objective score.
type candidateSet struct {
	k      int
	routes []Route
	sigs   []uint64 // route signatures, index-aligned with routes
}

func newCandidateSet(k int) *candidateSet {
	return &candidateSet{k: k}
}

// bound returns the current upper bound U: the k-th best objective score,
// or +Inf while fewer than k routes are held.
func (cs *candidateSet) bound() float64 {
	if len(cs.routes) < cs.k {
		return math.Inf(1)
	}
	return cs.routes[cs.k-1].Objective
}

// full reports whether k routes have been collected.
func (cs *candidateSet) full() bool { return len(cs.routes) >= cs.k }

// offer materializes the route completed by lbl and the τ tail and inserts
// it if it improves the set. It reports whether the set changed.
func (cs *candidateSet) offer(p *plan, lbl *label, tailOS, tailBS float64) (bool, error) {
	os := lbl.os + tailOS
	if cs.full() && os >= cs.bound() {
		return false, nil
	}
	route, sig, err := p.reconstruct(lbl, tailOS, tailBS)
	if err != nil {
		return false, err
	}
	// The set holds at most k routes, so a linear scan beats any map; the
	// signature filters, the node comparison makes the dedup exact.
	for i, s := range cs.sigs {
		if s == sig && slices.Equal(cs.routes[i].Nodes, route.Nodes) {
			return false, nil
		}
	}
	// Insert sorted by objective, then budget for determinism.
	i := 0
	for i < len(cs.routes) {
		if route.Objective < cs.routes[i].Objective ||
			(route.Objective == cs.routes[i].Objective && route.Budget < cs.routes[i].Budget) {
			break
		}
		i++
	}
	cs.routes = append(cs.routes, Route{})
	copy(cs.routes[i+1:], cs.routes[i:])
	cs.routes[i] = route
	cs.sigs = append(cs.sigs, 0)
	copy(cs.sigs[i+1:], cs.sigs[i:])
	cs.sigs[i] = sig
	if len(cs.routes) > cs.k {
		cs.routes = cs.routes[:len(cs.routes)-1]
		cs.sigs = cs.sigs[:len(cs.sigs)-1]
	}
	return true, nil
}

// take returns the collected routes, best first.
func (cs *candidateSet) take() []Route { return cs.routes }
