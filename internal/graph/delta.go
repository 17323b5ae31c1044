package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Live-update deltas. A Delta describes an incremental change to a graph —
// keyword churn on existing nodes, edge-attribute drift, edges appearing and
// disappearing — and Graph.Apply materializes it as a NEW immutable Graph,
// sharing every storage array the delta did not touch with the original.
// The original graph is never modified: queries running against it continue
// to see exactly the pre-delta world, which is what makes the engine's
// atomic snapshot swap safe.
//
// Sharing matrix (what Apply reuses from the source graph):
//
//	change kind          shared storage
//	keyword-only         edge CSRs, heads, extrema, positions, names
//	attr-only edges      CSR head arrays, keyword CSR, vocab, positions, names
//	topology edges       keyword CSR, vocab, positions, names
//
// The vocabulary is copy-on-write: it is shared unless an added keyword is
// new, in which case Apply clones it before interning so the source graph's
// vocabulary — read concurrently by in-flight queries — is never mutated.

// KeywordPatch names a node and the keywords to add to or remove from it.
type KeywordPatch struct {
	Node     NodeID
	Keywords []string
}

// EdgePatch addresses the directed edge From→To and carries its new
// attribute values. In Delta.UpdateEdges the edge must already exist; in
// Delta.AddEdges it must not.
type EdgePatch struct {
	From, To  NodeID
	Objective float64
	Budget    float64
}

// EdgeRef addresses the directed edge From→To for removal.
type EdgeRef struct {
	From, To NodeID
}

// Delta is one batch of live updates, applied atomically by Graph.Apply.
// The phases apply in order: keyword patches, then edge updates, then edge
// removals, then edge additions — so a delta may replace an edge by removing
// and re-adding it.
//
// Keyword patches use set semantics: adding a keyword a node already carries
// and removing one it does not are no-ops, so patches are idempotent. Edge
// patches are strict: updating or removing a missing edge and adding an
// existing one are errors — an addressed edge that is not there means the
// caller's picture of the graph has drifted, which must surface, not be
// papered over. Nodes cannot be added or removed: NodeIDs are dense and
// baked into saved routes, caches and client state; model a closed POI by
// removing its edges or keywords.
type Delta struct {
	// AddKeywords unions keywords into node keyword sets. New keywords are
	// interned into a copy of the vocabulary.
	AddKeywords []KeywordPatch
	// RemoveKeywords subtracts keywords from node keyword sets. The keyword
	// string must exist in the vocabulary (a typo must not silently no-op),
	// but need not be present on the node.
	RemoveKeywords []KeywordPatch
	// UpdateEdges sets the attributes of existing edges; parallel From→To
	// edges (the builder permits them) are all set.
	UpdateEdges []EdgePatch
	// AddEdges inserts new edges under the builder's invariants: positive
	// finite attributes, no self-loops, no duplicate of a surviving edge.
	AddEdges []EdgePatch
	// RemoveEdges deletes edges; parallel From→To edges are all deleted.
	RemoveEdges []EdgeRef
}

// Empty reports whether the delta contains no changes.
func (d Delta) Empty() bool {
	return len(d.AddKeywords) == 0 && len(d.RemoveKeywords) == 0 && !d.touchesEdges()
}

// touchesEdges reports whether the delta has an edge phase.
func (d Delta) touchesEdges() bool {
	return len(d.UpdateEdges) != 0 || len(d.AddEdges) != 0 || len(d.RemoveEdges) != 0
}

// pairKey packs a directed edge into one map key.
func pairKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// Apply materializes d over g as a new immutable Graph, leaving g untouched
// and sharing unchanged storage (see the package comment above). An empty
// delta returns g itself. Validation is all-or-nothing: on error the
// returned graph is nil and nothing was built.
func (g *Graph) Apply(d Delta) (*Graph, error) {
	if d.Empty() {
		return g, nil
	}
	if err := g.validateDeltaNodes(d); err != nil {
		return nil, err
	}

	// Start from a full alias of g; the phases below replace exactly the
	// arrays they change.
	out := &Graph{
		vocab:    g.vocab,
		outHead:  g.outHead,
		outEdges: g.outEdges,
		inHead:   g.inHead,
		inEdges:  g.inEdges,
		termHead: g.termHead,
		terms:    g.terms,
		pos:      g.pos,
		names:    g.names,

		minObjective: g.minObjective,
		minBudget:    g.minBudget,
		maxObjective: g.maxObjective,
		maxBudget:    g.maxBudget,
	}
	// out.fp stays zero: the fingerprint is recomputed lazily on first use.

	if err := out.applyKeywordPatches(g, d); err != nil {
		return nil, err
	}
	if err := out.applyEdgePatches(g, d); err != nil {
		return nil, err
	}
	if !d.touchesEdges() {
		// The edge arrays are aliased, so the distances are g's: carry its
		// distance digest over (zero, if g never computed it, stays lazy).
		out.dfp.Store(g.dfp.Load())
	}
	return out, nil
}

// validateDeltaNodes rejects any patch addressing a node outside g.
func (g *Graph) validateDeltaNodes(d Delta) error {
	check := func(what string, v NodeID) error {
		if !g.Valid(v) {
			return fmt.Errorf("graph: Apply: %s: no such node %d", what, v)
		}
		return nil
	}
	for _, kp := range d.AddKeywords {
		if err := check("add keywords", kp.Node); err != nil {
			return err
		}
	}
	for _, kp := range d.RemoveKeywords {
		if err := check("remove keywords", kp.Node); err != nil {
			return err
		}
	}
	for _, ep := range d.UpdateEdges {
		if err := check(fmt.Sprintf("update edge %d→%d", ep.From, ep.To), ep.From); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("update edge %d→%d", ep.From, ep.To), ep.To); err != nil {
			return err
		}
	}
	for _, ep := range d.AddEdges {
		if err := check(fmt.Sprintf("add edge %d→%d", ep.From, ep.To), ep.From); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("add edge %d→%d", ep.From, ep.To), ep.To); err != nil {
			return err
		}
	}
	for _, er := range d.RemoveEdges {
		if err := check(fmt.Sprintf("remove edge %d→%d", er.From, er.To), er.From); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("remove edge %d→%d", er.From, er.To), er.To); err != nil {
			return err
		}
	}
	return nil
}

// applyKeywordPatches rebuilds the keyword CSR when the delta touches
// keywords, cloning the vocabulary only if a new keyword must be interned.
func (out *Graph) applyKeywordPatches(g *Graph, d Delta) error {
	if len(d.AddKeywords) == 0 && len(d.RemoveKeywords) == 0 {
		return nil
	}

	// Copy-on-write vocabulary: clone before the first new intern.
	vocab := g.vocab
	for _, kp := range d.AddKeywords {
		for _, kw := range kp.Keywords {
			if _, ok := vocab.Lookup(kw); !ok {
				if vocab == g.vocab {
					vocab = g.vocab.clone()
				}
				vocab.Intern(kw)
			}
		}
	}
	out.vocab = vocab

	// Desired keyword sets for the touched nodes only.
	touched := make(map[NodeID]map[Term]bool)
	setFor := func(v NodeID) map[Term]bool {
		if set, ok := touched[v]; ok {
			return set
		}
		set := make(map[Term]bool, len(g.Terms(v))+1)
		for _, t := range g.Terms(v) {
			set[t] = true
		}
		touched[v] = set
		return set
	}
	for _, kp := range d.AddKeywords {
		set := setFor(kp.Node)
		for _, kw := range kp.Keywords {
			t, _ := vocab.Lookup(kw) // interned above
			set[t] = true
		}
	}
	for _, kp := range d.RemoveKeywords {
		set := setFor(kp.Node)
		for _, kw := range kp.Keywords {
			t, ok := vocab.Lookup(kw)
			if !ok {
				return fmt.Errorf("graph: Apply: remove keyword %q from node %d: not in vocabulary", kw, kp.Node)
			}
			delete(set, t)
		}
	}

	// Rebuild the keyword CSR, copying untouched nodes' ranges verbatim.
	n := g.NumNodes()
	grown := 0
	for _, set := range touched {
		grown += len(set)
	}
	newTerms := make([]Term, 0, len(g.terms)+grown)
	newHead := make([]int32, n+1)
	for v := 0; v < n; v++ {
		newHead[v] = int32(len(newTerms))
		if set, ok := touched[NodeID(v)]; ok {
			ts := make([]Term, 0, len(set))
			for t := range set {
				ts = append(ts, t)
			}
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			newTerms = append(newTerms, ts...)
		} else {
			newTerms = append(newTerms, g.Terms(NodeID(v))...)
		}
	}
	newHead[n] = int32(len(newTerms))
	out.termHead, out.terms = newHead, newTerms
	return nil
}

// applyEdgePatches validates and materializes the edge phases. Attribute-only
// deltas keep the CSR head arrays and patch copies of the edge arrays in
// place; topology changes rebuild both CSRs from the merged edge list.
func (out *Graph) applyEdgePatches(g *Graph, d Delta) error {
	if !d.touchesEdges() {
		return nil
	}
	checkAttrs := func(what string, ep EdgePatch) error {
		if !(ep.Objective > 0) || math.IsInf(ep.Objective, 0) {
			return fmt.Errorf("graph: Apply: %s %d→%d: objective %v must be positive and finite", what, ep.From, ep.To, ep.Objective)
		}
		if !(ep.Budget > 0) || math.IsInf(ep.Budget, 0) {
			return fmt.Errorf("graph: Apply: %s %d→%d: budget %v must be positive and finite", what, ep.From, ep.To, ep.Budget)
		}
		return nil
	}

	// Validation is O(patch count × out-degree): each addressed pair is
	// checked against the source node's adjacency directly, so a one-edge
	// delta on a million-edge graph never scans the whole edge set.
	hasEdge := func(from, to NodeID) bool {
		for _, e := range g.Out(from) {
			if e.To == to {
				return true
			}
		}
		return false
	}
	updates := make(map[uint64]EdgePatch, len(d.UpdateEdges))
	for _, ep := range d.UpdateEdges {
		if err := checkAttrs("update edge", ep); err != nil {
			return err
		}
		if !hasEdge(ep.From, ep.To) {
			return fmt.Errorf("graph: Apply: update edge %d→%d: no such edge", ep.From, ep.To)
		}
		updates[pairKey(ep.From, ep.To)] = ep
	}
	removes := make(map[uint64]bool, len(d.RemoveEdges))
	for _, er := range d.RemoveEdges {
		if !hasEdge(er.From, er.To) {
			return fmt.Errorf("graph: Apply: remove edge %d→%d: no such edge", er.From, er.To)
		}
		removes[pairKey(er.From, er.To)] = true
	}
	added := make(map[uint64]bool, len(d.AddEdges))
	for _, ep := range d.AddEdges {
		if err := checkAttrs("add edge", ep); err != nil {
			return err
		}
		if ep.From == ep.To {
			return fmt.Errorf("graph: Apply: add edge: self-loop on node %d", ep.From)
		}
		key := pairKey(ep.From, ep.To)
		// Removing and re-adding the same pair is a replace and is allowed;
		// adding over a surviving edge or adding the same pair twice is not.
		if added[key] || (hasEdge(ep.From, ep.To) && !removes[key]) {
			return fmt.Errorf("graph: Apply: add edge %d→%d: edge exists (use UpdateEdges)", ep.From, ep.To)
		}
		added[key] = true
	}

	if len(d.AddEdges) == 0 && len(removes) == 0 {
		// Attribute-only: same topology, so the CSR offset arrays stay
		// shared and only the edge arrays are copied and patched.
		outEdges := slices.Clone(g.outEdges)
		for _, ep := range updates {
			for i := g.outHead[ep.From]; i < g.outHead[ep.From+1]; i++ {
				if outEdges[i].To == ep.To {
					outEdges[i].Objective = ep.Objective
					outEdges[i].Budget = ep.Budget
				}
			}
		}
		inEdges := slices.Clone(g.inEdges)
		for _, ep := range updates {
			for i := g.inHead[ep.To]; i < g.inHead[ep.To+1]; i++ {
				if inEdges[i].To == ep.From {
					inEdges[i].Objective = ep.Objective
					inEdges[i].Budget = ep.Budget
				}
			}
		}
		out.outEdges, out.inEdges = outEdges, inEdges
	} else {
		// Topology changed: merge the edge list (updates applied, removals
		// skipped, additions appended) and rebuild both CSRs through the
		// same counting sort Builder.Build uses.
		n := g.NumNodes()
		recs := make([]builderEdge, 0, g.NumEdges()+len(d.AddEdges))
		for v := 0; v < n; v++ {
			for _, e := range g.Out(NodeID(v)) {
				key := pairKey(NodeID(v), e.To)
				if removes[key] {
					continue
				}
				rec := builderEdge{from: NodeID(v), to: e.To, objective: e.Objective, budget: e.Budget}
				if ep, ok := updates[key]; ok {
					rec.objective, rec.budget = ep.Objective, ep.Budget
				}
				recs = append(recs, rec)
			}
		}
		for _, ep := range d.AddEdges {
			recs = append(recs, builderEdge{from: ep.From, to: ep.To, objective: ep.Objective, budget: ep.Budget})
		}
		out.outHead, out.outEdges, out.inHead, out.inEdges = buildCSR(recs, n)
	}

	// Attribute extrema are inputs to the scaling factor θ and the search
	// depth bound; recompute them over the new edge set.
	out.minObjective, out.minBudget = math.Inf(1), math.Inf(1)
	out.maxObjective, out.maxBudget = 0, 0
	for _, e := range out.outEdges {
		out.minObjective = math.Min(out.minObjective, e.Objective)
		out.minBudget = math.Min(out.minBudget, e.Budget)
		out.maxObjective = math.Max(out.maxObjective, e.Objective)
		out.maxBudget = math.Max(out.maxBudget, e.Budget)
	}
	if len(out.outEdges) == 0 {
		out.minObjective, out.minBudget = 0, 0
	}
	return nil
}
