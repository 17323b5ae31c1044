package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestMemIndexRoundTrip checks the flat posting lists against a naive
// per-term scan of the graph: every list must come back sorted, complete,
// and duplicate-free.
func TestMemIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	const n = 400
	naive := make(map[Term][]NodeID)
	for v := 0; v < n; v++ {
		tags := randomTags(rng, v)
		id := b.AddNode(tags...)
		for _, term := range b.vocabTermsOf(tags) {
			list := naive[term]
			if len(list) == 0 || list[len(list)-1] != id {
				naive[term] = append(list, id)
			}
		}
	}
	g := b.MustBuild()
	idx := NewMemIndex(g)

	if idx.NumNodes() != n {
		t.Fatalf("NumNodes = %d", idx.NumNodes())
	}
	total := 0
	for term, want := range naive {
		got := idx.Postings(term)
		if len(got) != len(want) {
			t.Fatalf("term %d: %d postings, want %d", term, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("term %d posting[%d] = %d, want %d", term, i, got[i], want[i])
			}
		}
		if idx.DocFrequency(term) != len(want) {
			t.Errorf("term %d DocFrequency = %d, want %d", term, idx.DocFrequency(term), len(want))
		}
		total += len(want)
	}
	if idx.NumPostings() != total {
		t.Errorf("NumPostings = %d, want %d", idx.NumPostings(), total)
	}
	// Missing and out-of-range terms are empty, not panics.
	if idx.Postings(-1) != nil || idx.Postings(Term(10_000)) != nil {
		t.Errorf("out-of-range term returned postings")
	}
	if idx.DocFrequency(-1) != 0 {
		t.Errorf("out-of-range DocFrequency nonzero")
	}
}

// vocabTermsOf maps tag names through the builder's vocabulary, dropping
// duplicates within one node the way AddNode does.
func (b *Builder) vocabTermsOf(tags []string) []Term {
	seen := make(map[Term]bool)
	var out []Term
	for _, s := range tags {
		term, ok := b.vocab.Lookup(s)
		if !ok {
			continue
		}
		if !seen[term] {
			seen[term] = true
			out = append(out, term)
		}
	}
	return out
}

// TestMemIndexCompact pins the layout: four bytes per posting in one flat
// array plus one offset per term, with no per-term slice header or map
// bucket, and every list handed out capped at its end, so that appending to
// one copies it instead of overwriting the next term's postings.
func TestMemIndexCompact(t *testing.T) {
	b := NewBuilder()
	const n = 2000
	for v := 0; v < n; v++ {
		b.AddNode("hot", fmt.Sprintf("warm%d", v%4))
	}
	g := b.MustBuild()
	idx := NewMemIndex(g)
	terms := int64(g.Vocab().Len())
	if want := 4*int64(idx.NumPostings()) + 4*(terms+1); idx.FootprintBytes() != want {
		t.Errorf("FootprintBytes = %d, want %d for %d postings over %d terms", idx.FootprintBytes(), want, idx.NumPostings(), terms)
	}
	hot, _ := g.Vocab().Lookup("hot")
	warm0, _ := g.Vocab().Lookup("warm0") // interned next: its list follows hot's
	post := idx.Postings(hot)
	if cap(post) != len(post) {
		t.Errorf("Postings(hot) has capacity %d beyond its %d postings", cap(post), len(post))
	}
	want := slices.Clone(idx.Postings(warm0))
	_ = append(post, NodeID(n))
	if !slices.Equal(idx.Postings(warm0), want) {
		t.Error("appending to one posting list changed the next")
	}
}

func TestMemFootprint(t *testing.T) {
	g := buildDiamond(t)
	f := g.MemFootprint()
	if f.Nodes != 4 || f.Edges != 5 {
		t.Fatalf("footprint shape %d/%d", f.Nodes, f.Edges)
	}
	if f.EdgeBytes != int64(2*5*edgeSize) {
		t.Errorf("EdgeBytes = %d, want %d", f.EdgeBytes, 2*5*edgeSize)
	}
	sum := f.EdgeBytes + f.HeadBytes + f.TermBytes + f.PosBytes + f.NameBytes + f.VocabBytes
	if f.TotalBytes != sum {
		t.Errorf("TotalBytes %d != component sum %d", f.TotalBytes, sum)
	}
	if f.BytesPerNode() <= 0 {
		t.Errorf("BytesPerNode = %v", f.BytesPerNode())
	}
	if f.String() == "" {
		t.Error("empty String()")
	}
}
