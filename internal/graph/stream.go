package graph

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"kor/internal/geo"
)

// StreamBuilder assembles a Graph in two passes with no per-edge
// intermediate: the caller first declares every node and *counts* every edge
// (pass one), then replays the same edge stream to *fill* the CSR arrays in
// place (pass two). Peak memory is the finished graph plus O(|V|) cursors —
// there is no edge staging slice and no slice-of-slices keyword table, which
// is what lets kordata ingest million-node graphs without tripling their
// resident size.
//
// Lifecycle:
//
//	sb := NewStreamBuilder(nil)
//	... AddNode / AddNodeTerms / SetPosition / SetName ...
//	... CountEdge for every edge ...            (pass one)
//	sb.FinishCount()
//	... FillEdge for the same edges, in order ... (pass two)
//	g, err := sb.Build()
//
// Nodes may keep arriving until FinishCount; CountEdge only accepts
// endpoints already declared, which is what lets a single-file format
// interleave node and edge records as long as every edge follows its
// endpoints. The fill pass must replay the exact count-pass edge sequence:
// Build fails when the two passes disagree.
//
// Its edge half, csrFill, is the one place a graph's CSR arrays and edge
// extrema are written: Builder replays its staged nodes and edges into a
// fresh StreamBuilder, Load counts and fills the edge block it read, and
// Graph.Apply re-assembles the edges of an edge delta through the same
// fill. Equal node and edge sequences therefore give byte-identical graphs
// whichever path built them; TestStreamBuilderMatchesBuilder pins this.
//
// A StreamBuilder is not safe for concurrent use.
type StreamBuilder struct {
	vocab    *Vocabulary
	termHead []int32
	terms    []Term
	pos      []geo.Point // allocated on first SetPosition
	names    []string    // allocated on first SetName

	csrFill
}

type streamPhase int

const (
	phaseCounting streamPhase = iota
	phaseFilling
	phaseBuilt
)

// NewStreamBuilder returns an empty streaming builder interning keywords
// into v (a fresh vocabulary when nil).
func NewStreamBuilder(v *Vocabulary) *StreamBuilder {
	if v == nil {
		v = NewVocabulary()
	}
	return &StreamBuilder{vocab: v, csrFill: newCSRFill(0)}
}

// NumNodes returns the number of nodes declared so far.
func (b *StreamBuilder) NumNodes() int { return len(b.termHead) }

// Vocab returns the vocabulary keywords are interned into.
func (b *StreamBuilder) Vocab() *Vocabulary { return b.vocab }

// AddNode appends a node carrying the given keywords and returns its ID.
// Duplicate keywords are collapsed. Nodes cannot be added once FinishCount
// has sealed the node set.
func (b *StreamBuilder) AddNode(keywords ...string) (NodeID, error) {
	if b.phase != phaseCounting {
		return 0, fmt.Errorf("graph: StreamBuilder.AddNode after FinishCount")
	}
	start := len(b.terms)
	for _, k := range keywords {
		b.terms = append(b.terms, b.vocab.Intern(k))
	}
	b.sealNode(start)
	return NodeID(len(b.termHead) - 1), nil
}

// AddNodeTerms is AddNode for pre-interned terms, skipping the string
// round-trip. Every term must already be valid in the vocabulary.
func (b *StreamBuilder) AddNodeTerms(ts []Term) (NodeID, error) {
	if b.phase != phaseCounting {
		return 0, fmt.Errorf("graph: StreamBuilder.AddNodeTerms after FinishCount")
	}
	for _, t := range ts {
		if t < 0 || int(t) >= b.vocab.Len() {
			return 0, fmt.Errorf("graph: StreamBuilder.AddNodeTerms: term %d outside vocabulary (%d terms)", t, b.vocab.Len())
		}
	}
	start := len(b.terms)
	b.terms = append(b.terms, ts...)
	b.sealNode(start)
	return NodeID(len(b.termHead) - 1), nil
}

// sealNode sorts and dedups the node's freshly appended terms in place and
// records its CSR offset.
func (b *StreamBuilder) sealNode(start int) {
	ts := b.terms[start:]
	slices.Sort(ts)
	b.terms = b.terms[:start+len(slices.Compact(ts))]
	b.termHead = append(b.termHead, int32(start))
	b.outHead = append(b.outHead, 0)
	b.inHead = append(b.inHead, 0)
	if b.pos != nil {
		b.pos = append(b.pos, geo.Point{})
	}
	if b.names != nil {
		b.names = append(b.names, "")
	}
}

// SetPosition records coordinates for node v.
func (b *StreamBuilder) SetPosition(v NodeID, p geo.Point) error {
	if v < 0 || int(v) >= b.NumNodes() {
		return fmt.Errorf("graph: SetPosition: no such node %d", v)
	}
	if b.pos == nil {
		b.pos = make([]geo.Point, b.NumNodes())
	}
	b.pos[v] = p
	return nil
}

// SetName records a display name for node v.
func (b *StreamBuilder) SetName(v NodeID, name string) error {
	if v < 0 || int(v) >= b.NumNodes() {
		return fmt.Errorf("graph: SetName: no such node %d", v)
	}
	if b.names == nil {
		b.names = make([]string, b.NumNodes())
	}
	b.names[v] = name
	return nil
}

// CountEdge registers one directed edge in pass one. Both endpoints must
// already be declared; self-loops are rejected here so pass one surfaces
// them with the caller's record context.
func (b *StreamBuilder) CountEdge(from, to NodeID) error {
	if b.phase != phaseCounting {
		return fmt.Errorf("graph: StreamBuilder.CountEdge after FinishCount")
	}
	// The weights arrive in pass two, where FillEdge checks them.
	if err := checkEdge(b.NumNodes(), from, to, 1, 1); err != nil {
		return fmt.Errorf("graph: edge (%d,%d): %w", from, to, err)
	}
	b.count(from, to)
	return nil
}

// FinishCount seals the node set, prefix-sums the degree counts into CSR
// head arrays and allocates the edge arrays pass two fills.
func (b *StreamBuilder) FinishCount() error {
	if b.phase != phaseCounting {
		return fmt.Errorf("graph: StreamBuilder.FinishCount called twice")
	}
	b.finishCount()
	return nil
}

// FillEdge places one directed edge in pass two, validating its attributes.
// The fill stream must replay the count stream: an edge whose source or
// target already exhausted its counted degree means the two passes diverged.
func (b *StreamBuilder) FillEdge(from, to NodeID, objective, budget float64) error {
	if b.phase != phaseFilling {
		return fmt.Errorf("graph: StreamBuilder.FillEdge before FinishCount")
	}
	if err := checkEdge(b.NumNodes(), from, to, objective, budget); err != nil {
		return fmt.Errorf("graph: edge (%d,%d): %w", from, to, err)
	}
	return b.fill(from, to, objective, budget)
}

// Build finalizes the graph. The builder is spent afterwards.
func (b *StreamBuilder) Build() (*Graph, error) {
	switch b.phase {
	case phaseCounting:
		// An edgeless graph never needed the fill pass; seal it now.
		b.finishCount()
	case phaseBuilt:
		return nil, fmt.Errorf("graph: StreamBuilder.Build called twice")
	}
	g := &Graph{
		vocab:    b.vocab,
		termHead: append(b.termHead, int32(len(b.terms))),
		terms:    b.terms,
		pos:      b.pos,
		names:    b.names,
	}
	if err := b.layout(g); err != nil {
		return nil, err
	}
	return g, nil
}

// checkEdge is the edge domain every assembly path enforces: both endpoints
// among the n nodes, no self-loop (it can never appear on a useful route),
// and a positive, finite objective and budget — the scaling factor
// θ = ε·o_min·b_min/Δ divides by the minimum objective and the search-depth
// bound ⌊Δ/b_min⌋ by the minimum budget, so zero or negative attributes
// would break the paper's complexity and approximation guarantees. The
// error carries no prefix; callers add their context.
func checkEdge(n int, from, to NodeID, objective, budget float64) error {
	switch {
	case from < 0 || int(from) >= n:
		return fmt.Errorf("no such node %d (%d nodes)", from, n)
	case to < 0 || int(to) >= n:
		return fmt.Errorf("no such node %d (%d nodes)", to, n)
	case from == to:
		return fmt.Errorf("self-loop on node %d", from)
	case !(objective > 0) || math.IsInf(objective, 0):
		return fmt.Errorf("objective %v must be positive and finite", objective)
	case !(budget > 0) || math.IsInf(budget, 0):
		return fmt.Errorf("budget %v must be positive and finite", budget)
	}
	return nil
}

// builderEdge is one directed edge with its attributes, as Builder stages
// it and Apply merges it.
type builderEdge struct {
	from, to  NodeID
	objective float64
	budget    float64
}

// csrFill is the edge half of StreamBuilder and the only code that writes a
// graph's CSR arrays and edge extrema. Pass one counts every edge into its
// source's and its target's degree; finishCount prefix-sums the counts into
// offsets and sizes both edge arrays exactly; pass two places each edge
// through per-node cursors, so it keeps its arrival order among its
// source's out-edges and among its target's in-edges.
type csrFill struct {
	phase streamPhase

	// Pass one accumulates degree counts in outHead/inHead at index v+1;
	// finishCount prefix-sums them into CSR head arrays.
	outHead, inHead   []int32
	outEdges, inEdges []Edge
	outCur, inCur     []int32
	counted, filled   int
}

// newCSRFill returns a fill in its counting phase over n nodes.
func newCSRFill(n int) csrFill {
	return csrFill{outHead: make([]int32, n+1), inHead: make([]int32, n+1)}
}

func (c *csrFill) count(from, to NodeID) {
	c.outHead[from+1]++
	c.inHead[to+1]++
	c.counted++
}

func (c *csrFill) finishCount() {
	n := len(c.outHead) - 1
	for i := 1; i <= n; i++ {
		c.outHead[i] += c.outHead[i-1]
		c.inHead[i] += c.inHead[i-1]
	}
	c.outEdges = make([]Edge, c.counted)
	c.inEdges = make([]Edge, c.counted)
	c.outCur = make([]int32, n)
	c.inCur = make([]int32, n)
	c.phase = phaseFilling
}

// fill places one edge of pass two. It fails when from or to already holds
// every edge pass one counted for it: the two passes diverged.
func (c *csrFill) fill(from, to NodeID, objective, budget float64) error {
	oi, ii := c.outHead[from]+c.outCur[from], c.inHead[to]+c.inCur[to]
	if oi >= c.outHead[from+1] || ii >= c.inHead[to+1] {
		return fmt.Errorf("graph: edge (%d,%d): more edges in the fill pass than were counted", from, to)
	}
	c.outEdges[oi] = Edge{To: to, Objective: objective, Budget: budget}
	c.outCur[from]++
	c.inEdges[ii] = Edge{To: from, Objective: objective, Budget: budget}
	c.inCur[to]++
	c.filled++
	return nil
}

// assemble runs both passes over a replayable edge sequence, checking each
// edge against the edge domain in pass one. Its errors carry no prefix.
func (c *csrFill) assemble(edges iter.Seq2[int, builderEdge]) error {
	n := len(c.outHead) - 1
	for i, e := range edges {
		if err := checkEdge(n, e.from, e.to, e.objective, e.budget); err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
		c.count(e.from, e.to)
	}
	c.finishCount()
	for _, e := range edges {
		if err := c.fill(e.from, e.to, e.objective, e.budget); err != nil {
			return err
		}
	}
	return nil
}

// layout hands the filled arrays to g with their attribute extrema, which
// are 0 on an edgeless graph. The fill is spent afterwards.
func (c *csrFill) layout(g *Graph) error {
	if c.filled != c.counted {
		return fmt.Errorf("graph: fill pass supplied %d edges, count pass saw %d", c.filled, c.counted)
	}
	c.phase = phaseBuilt
	g.outHead, g.outEdges, g.inHead, g.inEdges = c.outHead, c.outEdges, c.inHead, c.inEdges
	g.minObjective, g.minBudget, g.maxObjective, g.maxBudget = 0, 0, 0, 0
	if len(c.outEdges) > 0 {
		g.minObjective, g.minBudget = math.Inf(1), math.Inf(1)
	}
	for _, e := range c.outEdges {
		g.minObjective = math.Min(g.minObjective, e.Objective)
		g.minBudget = math.Min(g.minBudget, e.Budget)
		g.maxObjective = math.Max(g.maxObjective, e.Objective)
		g.maxBudget = math.Max(g.maxBudget, e.Budget)
	}
	return nil
}
