package graph

import (
	"fmt"
	"slices"

	"kor/internal/geo"
)

// Builder stages nodes and edges in memory and lays them out as an
// immutable Graph on every Build, through the same count-and-fill as
// StreamBuilder: it trades a 24-byte record per edge for letting the caller
// add nodes and edges in any order and build more than once. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	vocab    *Vocabulary
	terms    [][]Term
	pos      []geo.Point
	names    []string
	anyPos   bool
	anyNames bool
	edges    []builderEdge
}

// NewBuilder returns an empty builder with a fresh vocabulary.
func NewBuilder() *Builder { return NewBuilderWithVocab(NewVocabulary()) }

// NewBuilderWithVocab returns an empty builder interning keywords into the
// supplied vocabulary, letting several graphs share one term space.
func NewBuilderWithVocab(v *Vocabulary) *Builder {
	if v == nil {
		v = NewVocabulary()
	}
	return &Builder{vocab: v}
}

// AddNode appends a node carrying the given keywords and returns its ID.
// Duplicate keywords are collapsed.
func (b *Builder) AddNode(keywords ...string) NodeID {
	id := NodeID(len(b.terms))
	ts := make([]Term, 0, len(keywords))
	for _, k := range keywords {
		ts = append(ts, b.vocab.Intern(k))
	}
	b.terms = append(b.terms, ts)
	b.pos = append(b.pos, geo.Point{})
	b.names = append(b.names, "")
	return id
}

// SetPosition records coordinates for node v.
func (b *Builder) SetPosition(v NodeID, p geo.Point) error {
	if int(v) >= len(b.terms) || v < 0 {
		return fmt.Errorf("graph: SetPosition: no such node %d", v)
	}
	b.pos[v] = p
	b.anyPos = true
	return nil
}

// SetName records a display name for node v.
func (b *Builder) SetName(v NodeID, name string) error {
	if int(v) >= len(b.terms) || v < 0 {
		return fmt.Errorf("graph: SetName: no such node %d", v)
	}
	b.names[v] = name
	b.anyNames = true
	return nil
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.terms) }

// AddEdge appends the directed edge from→to. Both endpoints must exist,
// self-loops are rejected, and both attribute values must be positive and
// finite (see checkEdge for why).
func (b *Builder) AddEdge(from, to NodeID, objective, budget float64) error {
	if err := checkEdge(len(b.terms), from, to, objective, budget); err != nil {
		return fmt.Errorf("graph: AddEdge(%d,%d): %w", from, to, err)
	}
	b.edges = append(b.edges, builderEdge{from, to, objective, budget})
	return nil
}

// AddBidirectional adds both directions of an undirected connection with the
// same attributes; the paper notes the extension to undirected graphs is this
// exact encoding.
func (b *Builder) AddBidirectional(a, c NodeID, objective, budget float64) error {
	if err := b.AddEdge(a, c, objective, budget); err != nil {
		return err
	}
	return b.AddEdge(c, a, objective, budget)
}

// Build assembles the immutable Graph by replaying the staged nodes and
// edges into a fresh StreamBuilder, the one CSR assembly. The builder stays
// usable; Build may be called again after adding more nodes or edges.
func (b *Builder) Build() (*Graph, error) {
	sb := NewStreamBuilder(b.vocab)
	for _, ts := range b.terms {
		if _, err := sb.AddNodeTerms(ts); err != nil {
			return nil, err
		}
	}
	if b.anyPos {
		sb.pos = slices.Clone(b.pos)
	}
	if b.anyNames {
		sb.names = slices.Clone(b.names)
	}
	if err := sb.assemble(slices.All(b.edges)); err != nil {
		return nil, fmt.Errorf("graph: Build: %w", err)
	}
	return sb.Build()
}

// MustBuild is Build for fixtures and generators whose input is known good.
// It panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
