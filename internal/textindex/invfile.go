package textindex

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// InvertedFile is the paper's disk-resident inverted index: for every
// keyword, the ascending list of node identifiers whose keyword sets contain
// it. Posting lists are delta-compressed varints inside a B+-tree keyed by
// the keyword string.
type InvertedFile struct {
	tree *Tree
}

// CreateInverted creates a new inverted file at path.
func CreateInverted(path string) (*InvertedFile, error) {
	t, err := Create(path)
	if err != nil {
		return nil, err
	}
	return &InvertedFile{tree: t}, nil
}

// PutPostings stores the complete posting list for term, replacing any
// previous list. The input need not be sorted; duplicates are removed.
func (f *InvertedFile) PutPostings(term string, docs []uint32) error {
	if term == "" {
		return ErrEmptyKey
	}
	sorted := append([]uint32(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	w := 0
	for i, d := range sorted {
		if i == 0 || d != sorted[w-1] {
			sorted[w] = d
			w++
		}
	}
	sorted = sorted[:w]
	return f.tree.Put([]byte(term), encodePostings(sorted))
}

// Postings returns the ascending posting list for term; a missing term
// yields an empty list.
func (f *InvertedFile) Postings(term string) ([]uint32, error) {
	raw, ok, err := f.tree.Get([]byte(term))
	if err != nil || !ok {
		return nil, err
	}
	return decodePostings(raw)
}

// Flush writes dirty pages to disk.
func (f *InvertedFile) Flush() error { return f.tree.Flush() }

// Close flushes and closes the underlying tree.
func (f *InvertedFile) Close() error { return f.tree.Close() }

// encodePostings writes count followed by delta-encoded doc IDs as uvarints.
func encodePostings(docs []uint32) []byte {
	buf := make([]byte, 0, 1+5*len(docs))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(docs)))
	buf = append(buf, tmp[:n]...)
	prev := uint32(0)
	for i, d := range docs {
		delta := uint64(d)
		if i > 0 {
			delta = uint64(d - prev)
		}
		n = binary.PutUvarint(tmp[:], delta)
		buf = append(buf, tmp[:n]...)
		prev = d
	}
	return buf
}

// decodePostings reverses encodePostings.
func decodePostings(raw []byte) ([]uint32, error) {
	count, n := binary.Uvarint(raw)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad posting count", ErrCorrupt)
	}
	raw = raw[n:]
	// Every posting takes at least one byte: a larger count is corrupt, and
	// must not size the allocation below.
	if count > uint64(len(raw)) {
		return nil, fmt.Errorf("%w: posting count %d exceeds %d bytes", ErrCorrupt, count, len(raw))
	}
	docs := make([]uint32, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("%w: posting list truncated at %d of %d", ErrCorrupt, i, count)
		}
		raw = raw[n:]
		if i == 0 {
			prev = delta
		} else {
			prev += delta
		}
		docs = append(docs, uint32(prev))
	}
	return docs, nil
}
