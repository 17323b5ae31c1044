package graph

// PostingSource supplies, for a keyword term, the nodes whose keyword sets
// contain it. The route-search algorithms consult it to seed the greedy
// candidate set, to find the nodes of infrequent query keywords
// (optimization strategy 2) and to build per-query coverage masks. The
// engine serves it from the in-memory index below.
type PostingSource interface {
	// Postings returns the sorted node IDs carrying term t. The result may
	// be the source's own storage and must be treated as read-only. A
	// missing term yields an empty slice.
	Postings(t Term) []NodeID
	// DocFrequency returns the number of nodes carrying term t.
	DocFrequency(t Term) int
}

// MemIndex is an in-memory inverted index over a graph's node keywords:
// every posting list back to back in one flat NodeID array, term t's list at
// list[offsets[t]:offsets[t+1]]. Postings returns that run itself, so a
// lookup decodes and allocates nothing; DocFrequency is its length.
//
// MemIndex is immutable after NewMemIndex and therefore safe for concurrent
// use.
type MemIndex struct {
	offsets  []int32  // start of term t's list in list; len = terms+1
	list     []NodeID // every posting list, term by term
	numNodes int
}

// NewMemIndex builds the index in two scans of the graph: one to size the
// per-term lists, one to fill them — a counting sort that, iterating nodes
// in order, keeps every list sorted.
func NewMemIndex(g *Graph) *MemIndex {
	terms := g.vocab.Len()
	idx := &MemIndex{offsets: make([]int32, terms+1), numNodes: g.NumNodes()}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			idx.offsets[t+1]++
		}
	}
	for t := 0; t < terms; t++ {
		idx.offsets[t+1] += idx.offsets[t]
	}
	idx.list = make([]NodeID, idx.offsets[terms])
	cursor := make([]int32, terms)
	copy(cursor, idx.offsets)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			idx.list[cursor[t]] = v
			cursor[t]++
		}
	}
	return idx
}

// Postings returns the sorted node IDs carrying term t: the index's own
// storage, capped at the list's end so that an append copies instead of
// writing into the next term's list. The caller must not modify it.
func (idx *MemIndex) Postings(t Term) []NodeID {
	if t < 0 || int(t) >= len(idx.offsets)-1 {
		return nil
	}
	a, b := idx.offsets[t], idx.offsets[t+1]
	if a == b {
		return nil
	}
	return idx.list[a:b:b]
}

// DocFrequency returns the number of nodes carrying term t.
func (idx *MemIndex) DocFrequency(t Term) int {
	if t < 0 || int(t) >= len(idx.offsets)-1 {
		return 0
	}
	return int(idx.offsets[t+1] - idx.offsets[t])
}

// NumNodes returns the node count of the indexed graph, the denominator of
// the paper's infrequent-word threshold ("appearing in less than 1% nodes").
func (idx *MemIndex) NumNodes() int { return idx.numNodes }

// NumPostings returns the total posting count across every term.
func (idx *MemIndex) NumPostings() int { return len(idx.list) }

// FootprintBytes returns the resident size of the index's storage arrays.
func (idx *MemIndex) FootprintBytes() int64 {
	return 4*int64(len(idx.list)) + 4*int64(len(idx.offsets))
}
