package textindex

import (
	"sync"

	"kor/internal/graph"
)

// GraphIndex reads an InvertedFile by graph Term, the lookup graph.MemIndex
// answers in memory. Postings read from disk are memoized: a query stream
// hits the same few terms repeatedly, and the paper's complexity analysis
// assumes those lookups are cheap after the first fetch.
//
// A GraphIndex is safe for concurrent use. The underlying B+-tree mutates
// its page cache even on reads, so every descent to the file happens under
// an exclusive lock; memoized postings are served under a read lock, which
// is the steady-state path once a term has been fetched once.
type GraphIndex struct {
	file  *InvertedFile
	vocab *graph.Vocabulary

	mu   sync.RWMutex
	memo map[graph.Term][]graph.NodeID
}

// BuildForGraph writes the inverted file for g at path and returns the
// adapter over it.
func BuildForGraph(path string, g *graph.Graph) (*GraphIndex, error) {
	file, err := CreateInverted(path)
	if err != nil {
		return nil, err
	}
	postings := make(map[graph.Term][]uint32)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			postings[t] = append(postings[t], uint32(v))
		}
	}
	for t, docs := range postings {
		if err := file.PutPostings(g.Vocab().Name(t), docs); err != nil {
			file.Close()
			return nil, err
		}
	}
	if err := file.Flush(); err != nil {
		file.Close()
		return nil, err
	}
	return &GraphIndex{file: file, vocab: g.Vocab(), memo: make(map[graph.Term][]graph.NodeID)}, nil
}

// Postings returns the sorted node IDs carrying term t.
func (gi *GraphIndex) Postings(t graph.Term) []graph.NodeID {
	gi.mu.RLock()
	docs, ok := gi.memo[t]
	gi.mu.RUnlock()
	if ok {
		return docs
	}
	gi.mu.Lock()
	defer gi.mu.Unlock()
	if docs, ok := gi.memo[t]; ok { // lost the fetch race: reuse the winner's
		return docs
	}
	name := gi.vocab.Name(t)
	var out []graph.NodeID
	if name != "" {
		raw, err := gi.file.Postings(name)
		if err != nil {
			// Don't memoize a failed read: a transient I/O error must not
			// poison the term with an empty posting list for the process
			// lifetime. The next lookup retries the disk.
			return nil
		}
		out = make([]graph.NodeID, len(raw))
		for i, d := range raw {
			out[i] = graph.NodeID(d)
		}
	}
	gi.memo[t] = out
	return out
}

// Close closes the underlying inverted file.
func (gi *GraphIndex) Close() error {
	gi.mu.Lock()
	defer gi.mu.Unlock()
	return gi.file.Close()
}
