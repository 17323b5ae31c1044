// Package stream generates the benchmark's query streams. A stream is an
// unbounded, indexable sequence of korapi.Request bodies determined entirely
// by (graph, Spec, seed, substream name): the servers under test only ever
// see the generated bodies, and the seed reaches nothing else.
//
// The semantics follow internal/queryset — keywords drawn in proportion to
// document frequency from the most frequent terms, endpoints a bounded crow
// distance apart — extended with what a serving benchmark needs and a paper
// query set does not: an endpoint pool (to confine a stream's working set),
// guaranteed-distinct requests (so a result cache can never hit by accident),
// a hot set re-issued with a fixed probability (so it hits on purpose), and
// an algorithm assigned round-robin by query index.
package stream

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"kor"
	"kor/korapi"
)

// Algorithms is the round-robin assignment order by query index.
var Algorithms = []string{"bucketbound", "osscaling", "greedy"}

// TopTermFraction restricts query keywords to the most frequent share of the
// vocabulary: map-search keywords are common category words.
const TopTermFraction = 0.12

// CrowFactor bounds the straight-line endpoint distance at CrowFactor·Δ, so
// that nearly every query is feasible.
const CrowFactor = 0.45

// Spec shapes one stream.
type Spec struct {
	// Keywords is the number of query keywords m.
	Keywords int
	// Budget is the budget limit Δ of every query.
	Budget float64
	// Planar declares node positions to be kilometre-plane coordinates (the
	// road network) rather than lon/lat degrees (the city).
	Planar bool
	// Pool, when non-empty, confines both endpoints to these nodes.
	Pool []kor.NodeID
	// HotSet and HotShare, when positive, make the stream repeat itself: it
	// opens with HotSet fixed queries, each once — so that a warm-up of at
	// least that many requests leaves all of them cached — and every later
	// request is, with probability HotShare, a re-issue of one of them, and
	// otherwise a fresh distinct query.
	HotSet   int
	HotShare float64
}

// Query is one generated request.
type Query struct {
	// Request is the wire request; Body is its JSON encoding, the exact
	// bytes sent to the server.
	Request korapi.Request
	Body    []byte
	// Hot marks a hot-set query.
	Hot bool
}

// Stream is a deterministic, lazily extended query sequence. At is safe for
// concurrent use.
type Stream struct {
	g    *kor.Graph
	spec Spec
	rng  *rand.Rand

	pool    []kor.NodeID
	terms   []string // candidate keyword names, most frequent first
	cumDF   []int    // running document-frequency total, parallel to terms
	totalDF int

	mu    sync.Mutex
	seen  map[string]bool
	fresh int // fresh queries generated so far; drives the round-robin
	hot   []Query
	out   []Query
}

// New builds the stream named sub for one seed. Different names under one
// seed give independent streams over the same distribution.
func New(g *kor.Graph, spec Spec, seed int64, sub string) (*Stream, error) {
	if spec.Keywords < 1 || spec.Budget <= 0 {
		return nil, fmt.Errorf("stream: need at least one keyword and a positive budget, got m=%d Δ=%v", spec.Keywords, spec.Budget)
	}
	h := fnv.New64a()
	h.Write([]byte(sub))
	s := &Stream{
		g:    g,
		spec: spec,
		rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		pool: spec.Pool,
		seen: make(map[string]bool),
	}
	if len(s.pool) == 0 {
		s.pool = make([]kor.NodeID, g.NumNodes())
		for v := range s.pool {
			s.pool[v] = kor.NodeID(v)
		}
	}
	if len(s.pool) < 2 {
		return nil, fmt.Errorf("stream: endpoint pool of %d nodes", len(s.pool))
	}

	df := make([]int, g.Vocab().Len())
	for v := kor.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			df[t]++
		}
	}
	var used []kor.Term
	for t, n := range df {
		if n > 0 {
			used = append(used, kor.Term(t))
		}
	}
	sort.Slice(used, func(i, j int) bool {
		if df[used[i]] != df[used[j]] {
			return df[used[i]] > df[used[j]]
		}
		return used[i] < used[j]
	})
	keep := int(TopTermFraction * float64(len(used)))
	if keep < spec.Keywords {
		keep = spec.Keywords
	}
	if keep > len(used) {
		return nil, fmt.Errorf("stream: %d keywords in use, need %d", len(used), spec.Keywords)
	}
	for _, t := range used[:keep] {
		s.totalDF += df[t]
		s.terms = append(s.terms, g.Vocab().Name(t))
		s.cumDF = append(s.cumDF, s.totalDF)
	}

	for len(s.hot) < spec.HotSet {
		q, err := s.freshQuery()
		if err != nil {
			return nil, err
		}
		q.Hot = true
		s.hot = append(s.hot, q)
	}
	s.out = append(s.out, s.hot...)
	return s, nil
}

// At returns the i-th request of the stream, generating up to it on first
// use. The sequence depends only on the stream's inputs, never on who asks
// or in what order.
func (s *Stream) At(i int) (Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.out) <= i {
		if len(s.hot) > 0 && s.rng.Float64() < s.spec.HotShare {
			s.out = append(s.out, s.hot[s.rng.Intn(len(s.hot))])
			continue
		}
		q, err := s.freshQuery()
		if err != nil {
			return Query{}, err
		}
		s.out = append(s.out, q)
	}
	return s.out[i], nil
}

// crowKm is the straight-line distance between two nodes in kilometres.
func (s *Stream) crowKm(a, b kor.NodeID) float64 {
	pa, pb := s.g.Position(a), s.g.Position(b)
	if s.spec.Planar {
		return pa.Euclidean(pb)
	}
	return pa.CityDistanceKm(pb)
}

// freshQuery generates the next query no earlier query of this stream
// equals. Callers hold mu (or are the constructor).
func (s *Stream) freshQuery() (Query, error) {
	maxCrow := CrowFactor * s.spec.Budget
	for attempts := 0; attempts < 100000; attempts++ {
		src := s.pool[s.rng.Intn(len(s.pool))]
		dst := s.pool[s.rng.Intn(len(s.pool))]
		if src == dst || (s.g.HasPositions() && s.crowKm(src, dst) > maxCrow) {
			continue
		}
		kws := make([]string, 0, s.spec.Keywords)
		for len(kws) < s.spec.Keywords {
			x := s.rng.Intn(s.totalDF)
			name := s.terms[sort.SearchInts(s.cumDF, x+1)]
			dup := false
			for _, k := range kws {
				dup = dup || k == name
			}
			if !dup {
				kws = append(kws, name)
			}
		}
		algo := Algorithms[s.fresh%len(Algorithms)]
		sorted := append([]string(nil), kws...)
		sort.Strings(sorted)
		key := fmt.Sprintf("%d %d %s %s", src, dst, algo, strings.Join(sorted, ","))
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		s.fresh++
		req := korapi.Request{From: int64(src), To: int64(dst), Keywords: kws, Budget: s.spec.Budget, Algorithm: algo}
		body, err := json.Marshal(req)
		if err != nil {
			return Query{}, fmt.Errorf("stream: encoding request: %w", err)
		}
		return Query{Request: req, Body: body}, nil
	}
	return Query{}, fmt.Errorf("stream: no fresh query after 100000 attempts (pool %d nodes, Δ=%v)", len(s.pool), s.spec.Budget)
}
