// Package graph implements the directed, doubly-attributed graph the KOR
// query is defined over (Definition 1 of the paper).
//
// Each node represents a location and carries a set of keywords; each edge
// carries two non-negative attributes: an objective value o(vi,vj) — the
// quantity the query minimizes, e.g. the negated log-popularity of the hop —
// and a budget value b(vi,vj) — the quantity the query constrains, e.g.
// travel distance.
//
// The graph is immutable after construction (see Builder) and stored in
// compressed sparse row form, forward and reverse. The reverse adjacency is
// what lets the shortest-path oracles run single-target Dijkstra, which the
// route-search algorithms depend on for their τ/σ pruning bounds.
package graph

import (
	"math"
	"sync/atomic"

	"kor/internal/geo"
)

// NodeID identifies a node. IDs are dense, starting at 0, in insertion order.
type NodeID int32

// Term identifies a keyword interned in a Vocabulary.
type Term int32

// Edge is one directed edge as seen from a fixed endpoint. In a forward
// adjacency list To is the head (target) of the edge; in a reverse adjacency
// list To is the tail (source).
type Edge struct {
	To        NodeID
	Objective float64
	Budget    float64
}

// Graph is an immutable directed graph with per-node keyword sets and
// per-edge (objective, budget) attributes. Construct one with a Builder or
// Load.
type Graph struct {
	vocab *Vocabulary

	// forward CSR
	outHead  []int32
	outEdges []Edge
	// reverse CSR
	inHead  []int32
	inEdges []Edge

	// terms holds each node's sorted keyword terms; termHead is its CSR
	// offset array.
	termHead []int32
	terms    []Term

	pos   []geo.Point // nil when the graph has no coordinates
	names []string    // nil when the graph has no display names

	minObjective float64
	minBudget    float64
	maxObjective float64
	maxBudget    float64

	// fp caches Fingerprint's digest and dfp DistanceFingerprint's; 0 means
	// not yet computed.
	fp, dfp atomic.Uint64
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.outHead) - 1 }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// Valid reports whether v is a node of this graph.
func (g *Graph) Valid(v NodeID) bool { return v >= 0 && int(v) < g.NumNodes() }

// Out returns the outgoing edges of v. The returned slice aliases graph
// storage and must not be modified.
func (g *Graph) Out(v NodeID) []Edge {
	return g.outEdges[g.outHead[v]:g.outHead[v+1]]
}

// In returns the incoming edges of v, with Edge.To holding the source node.
// The returned slice aliases graph storage and must not be modified.
func (g *Graph) In(v NodeID) []Edge {
	return g.inEdges[g.inHead[v]:g.inHead[v+1]]
}

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.outHead[v+1] - g.outHead[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inHead[v+1] - g.inHead[v]) }

// Terms returns the sorted keyword terms of v. The returned slice aliases
// graph storage and must not be modified.
func (g *Graph) Terms(v NodeID) []Term {
	return g.terms[g.termHead[v]:g.termHead[v+1]]
}

// HasTerm reports whether node v carries keyword t.
func (g *Graph) HasTerm(v NodeID, t Term) bool {
	ts := g.Terms(v)
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ts) && ts[lo] == t
}

// Vocab returns the vocabulary the node keywords are interned in.
func (g *Graph) Vocab() *Vocabulary { return g.vocab }

// HasPositions reports whether nodes carry coordinates.
func (g *Graph) HasPositions() bool { return g.pos != nil }

// Position returns the coordinates of v. It returns the zero Point when the
// graph carries no positions.
func (g *Graph) Position(v NodeID) geo.Point {
	if g.pos == nil {
		return geo.Point{}
	}
	return g.pos[v]
}

// Name returns the display name of v, or "" when names are absent.
func (g *Graph) Name(v NodeID) string {
	if g.names == nil {
		return ""
	}
	return g.names[v]
}

// MinObjective returns the smallest edge objective value (o_min in the
// paper's scaling factor θ = ε·o_min·b_min/Δ). It is 0 for an edgeless graph.
func (g *Graph) MinObjective() float64 { return g.minObjective }

// MinBudget returns the smallest edge budget value (b_min). It is 0 for an
// edgeless graph.
func (g *Graph) MinBudget() float64 { return g.minBudget }

// MaxObjective returns the largest edge objective value (o_max in Lemma 1).
func (g *Graph) MaxObjective() float64 { return g.maxObjective }

// MaxBudget returns the largest edge budget value.
func (g *Graph) MaxBudget() float64 { return g.maxBudget }

// fnv64 is the FNV-1a-style running digest behind the fingerprints.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

func (h *fnv64) mix(v uint64) { *h = (*h ^ fnv64(v)) * 1099511628211 }

// sum returns the digest, never zero: 0 is the "not yet computed" sentinel
// of the cached fingerprints.
func (h fnv64) sum() uint64 {
	if h == 0 {
		return 1
	}
	return uint64(h)
}

// mixOut folds v's out-degree offset and out-edges into h.
func (g *Graph) mixOut(h *fnv64, v NodeID) {
	h.mix(uint64(g.outHead[v+1]))
	for _, e := range g.Out(v) {
		h.mix(uint64(uint32(e.To)))
		h.mix(math.Float64bits(e.Objective))
		h.mix(math.Float64bits(e.Budget))
	}
}

// Fingerprint returns a deterministic 64-bit digest of the graph's
// structure, attributes and keyword assignment. Two graphs with the same
// fingerprint answer every KOR query identically for caching purposes. The
// digest is computed once on first call (the graph is immutable) and is
// never zero.
func (g *Graph) Fingerprint() uint64 {
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	h := newFNV64()
	h.mix(uint64(g.NumNodes()))
	h.mix(uint64(g.NumEdges()))
	for v := 0; v < g.NumNodes(); v++ {
		g.mixOut(&h, NodeID(v))
		h.mix(uint64(g.termHead[v+1]))
		for _, t := range g.Terms(NodeID(v)) {
			h.mix(uint64(uint32(t)))
		}
	}
	g.fp.Store(h.sum()) // idempotent: every computation yields the same digest
	return h.sum()
}

// DistanceFingerprint returns a deterministic 64-bit digest of what the τ/σ
// distances depend on: the node count and the edges with their objective and
// budget values — not keywords, names or positions. Two graphs with the same
// distance fingerprint have the same shortest-path scores, so a distance
// oracle built for one serves the other. It is cached like Fingerprint and
// never zero.
func (g *Graph) DistanceFingerprint() uint64 {
	if fp := g.dfp.Load(); fp != 0 {
		return fp
	}
	h := newFNV64()
	h.mix(uint64(g.NumNodes()))
	h.mix(uint64(g.NumEdges()))
	for v := 0; v < g.NumNodes(); v++ {
		g.mixOut(&h, NodeID(v))
	}
	g.dfp.Store(h.sum())
	return h.sum()
}
