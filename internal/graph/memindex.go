package graph

import "encoding/binary"

// PostingSource supplies, for a keyword term, the nodes whose keyword sets
// contain it. The route-search algorithms consult it to seed the greedy
// candidate set, to find the nodes of infrequent query keywords
// (optimization strategy 2) and to build per-query coverage masks. The
// engine serves it from the in-memory index below.
type PostingSource interface {
	// Postings returns the sorted node IDs carrying term t. The result must
	// be treated as read-only. A missing term yields an empty slice.
	Postings(t Term) []NodeID
	// DocFrequency returns the number of nodes carrying term t.
	DocFrequency(t Term) int
}

// MemIndex is an in-memory inverted index over a graph's node keywords.
// Posting lists are stored delta-encoded as varints in one contiguous blob —
// node IDs within a list are strictly increasing, so the gaps are small and
// most postings cost one or two bytes instead of the four bytes plus map and
// slice-header overhead of the naive map[Term][]NodeID layout. Postings
// decodes on demand; DocFrequency is O(1) from a side table.
//
// MemIndex is immutable after NewMemIndex and therefore safe for concurrent
// use.
type MemIndex struct {
	offsets  []uint32 // byte offset of term t's list in blob; len = terms+1
	counts   []int32  // doc frequency per term
	blob     []byte   // delta-varint encoded posting lists
	numNodes int
}

// NewMemIndex builds the index in two scans of the graph: one to size the
// per-term lists, one to encode them. Peak memory during the build is one
// int32 cursor per term plus the finished blob.
func NewMemIndex(g *Graph) *MemIndex {
	terms := g.vocab.Len()
	idx := &MemIndex{
		offsets:  make([]uint32, terms+1),
		counts:   make([]int32, terms),
		numNodes: g.NumNodes(),
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			idx.counts[t]++
		}
	}

	// Group postings per term with a counting sort into one temporary
	// NodeID array; iterating nodes in order keeps every list sorted.
	heads := make([]int32, terms+1)
	for t, c := range idx.counts {
		heads[t+1] = heads[t] + c
	}
	flat := make([]NodeID, heads[terms])
	cursor := make([]int32, terms)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			flat[heads[t]+cursor[t]] = v
			cursor[t]++
		}
	}

	// Encode each list as first-id, then gaps. Gaps are ≥ 1 (IDs strictly
	// increase: a node carries a term at most once), stored as gap-1 so the
	// densest possible list — every node — still encodes one byte per entry.
	var buf [binary.MaxVarintLen64]byte
	blob := make([]byte, 0, heads[terms]) // ≈1 byte per posting on dense lists
	for t := 0; t < terms; t++ {
		idx.offsets[t] = uint32(len(blob))
		list := flat[heads[t]:heads[t+1]]
		prev := NodeID(-1)
		for i, v := range list {
			delta := uint64(v - prev)
			if i > 0 {
				delta-- // gap-1
			}
			blob = append(blob, buf[:binary.PutUvarint(buf[:], delta)]...)
			prev = v
		}
	}
	idx.offsets[terms] = uint32(len(blob))
	idx.blob = blob
	return idx
}

// Postings returns the sorted node IDs carrying term t, decoded into a
// fresh slice the caller owns.
func (idx *MemIndex) Postings(t Term) []NodeID {
	if t < 0 || int(t) >= len(idx.counts) || idx.counts[t] == 0 {
		return nil
	}
	out := make([]NodeID, 0, idx.counts[t])
	enc := idx.blob[idx.offsets[t]:idx.offsets[t+1]]
	v := NodeID(-1)
	for len(enc) > 0 {
		delta, n := binary.Uvarint(enc)
		enc = enc[n:]
		if len(out) > 0 {
			delta++ // gaps were stored as gap-1
		}
		v += NodeID(delta)
		out = append(out, v)
	}
	return out
}

// DocFrequency returns the number of nodes carrying term t.
func (idx *MemIndex) DocFrequency(t Term) int {
	if t < 0 || int(t) >= len(idx.counts) {
		return 0
	}
	return int(idx.counts[t])
}

// NumNodes returns the node count of the indexed graph, the denominator of
// the paper's infrequent-word threshold ("appearing in less than 1% nodes").
func (idx *MemIndex) NumNodes() int { return idx.numNodes }

// NumPostings returns the total posting count across every term.
func (idx *MemIndex) NumPostings() int {
	total := 0
	for _, c := range idx.counts {
		total += int(c)
	}
	return total
}

// FootprintBytes returns the resident size of the index's storage arrays.
func (idx *MemIndex) FootprintBytes() int64 {
	return int64(len(idx.blob)) + int64(len(idx.offsets))*4 + int64(len(idx.counts))*4
}
