package kor

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kor/internal/metrics"
)

// The result layer. Every duplicate the engine can answer without a search —
// a repeat of an earlier request, an identical request already in flight, a
// twin inside one SearchBatch — is recognised by one canonical key
// (prepared.key) and answered by one component, results, which owns the
// optional LRU storage, the single-flight table and the one counter block.
//
// The key folds in the snapshot's graph fingerprint, so an entry or a flight
// is only ever shared between requests resolved against the exact same graph
// content: a follower cannot join a flight computing on another graph version,
// and a stored answer cannot outlive its graph. On top of that the engine
// clears the storage on every swap (Engine.installLocked), since entries for
// the old fingerprint are unreachable and would only squat LRU capacity.
//
// Only definitive outcomes (definitiveOutcome) are stored or handed to
// followers. A leader whose search ended otherwise — its own context fired, or
// the expansion cap tripped — proves nothing about the followers' requests, so
// they retry, electing a new leader among themselves.

// resultShards is the number of independently locked storage shards. A power
// of two so the hash folds cheaply.
const resultShards = 8

// results is the engine's result layer. The zero value stores nothing but
// still single-flights; newResults sizes the storage.
type results struct {
	// perShard bounds each shard's entries; 0 disables storage.
	perShard int
	shards   [resultShards]resultShard

	mu      sync.Mutex
	flights map[string]*flight

	// The counter block. A lookup is a hit when storage answered it, a miss
	// when the request went on to lead a search, and coalesced when it shared
	// another request's search (a single-flight follower or a batch
	// duplicate). Evictions count entries dropped by the LRU bound only.
	hits, misses, coalesced, evictions atomic.Int64
	// lookups mirrors hit, miss and coalesced into
	// kor_engine_cache_requests_total when the engine exports metrics.
	lookups *metrics.CounterVec

	// searchHook, when non-nil, runs on the leader's path right before the
	// search. Test instrumentation only: stampede tests park the leader here
	// until the followers have queued.
	searchHook func()
}

type resultShard struct {
	mu    sync.Mutex
	items map[string]*list.Element // values are *resultEntry
	order list.List                // front = most recently used
}

// outcome is a search's response plus its error. A stored or shared outcome
// is definitive: err is nil for a found route, ErrNoRoute when the search
// proved no feasible route exists, or ErrBudgetExceeded for a greedy
// overshoot (routes present).
type outcome struct {
	resp Response
	err  error
}

type resultEntry struct {
	key string
	outcome
}

// flight is one in-flight search. done closes when outcome and definitive are
// readable. followers counts the callers that joined after the leader (test
// instrumentation).
type flight struct {
	done chan struct{}
	outcome
	definitive bool
	followers  atomic.Int32
}

// newResults returns a result layer storing up to capacity entries, rounded up
// to a multiple of resultShards; capacity ≤ 0 stores nothing.
func newResults(capacity int) *results {
	r := &results{}
	if capacity > 0 {
		r.perShard = (capacity + resultShards - 1) / resultShards
		for i := range r.shards {
			r.shards[i].items = make(map[string]*list.Element)
		}
	}
	return r
}

// stores reports whether the layer keeps answers (EngineConfig.CacheSize > 0).
func (r *results) stores() bool { return r.perShard > 0 }

// answer returns the outcome of the request key names. A stored answer comes
// back flagged Cached; otherwise the caller joins the live flight for key and
// shares its definitive outcome, flagged Coalesced, or leads a new flight by
// running search. start dates the request for the Elapsed of shared answers.
func (r *results) answer(ctx context.Context, key string, start time.Time, search func() (Response, error)) (Response, error) {
	for {
		// A dead context must fail exactly as it does on the search path: a
		// hit or a coalesced answer must not outrank cancellation.
		if err := ctx.Err(); err != nil {
			return Response{}, fmt.Errorf("kor: search aborted: %w", err)
		}
		if o, ok := r.get(key); ok {
			r.count(&r.hits, cacheResultHit)
			resp := cloneResponse(o.resp)
			resp.Cached = true
			resp.Elapsed = time.Since(start)
			return resp, o.err
		}
		f, leader := r.join(key)
		if leader {
			r.count(&r.misses, cacheResultMiss)
			return r.lead(key, f, search)
		}
		select {
		case <-ctx.Done():
			// Abandon the flight: the leader keeps computing for whoever
			// else is waiting.
			return Response{}, fmt.Errorf("kor: search aborted: %w", ctx.Err())
		case <-f.done:
		}
		if f.definitive {
			resp, err := r.share(f.outcome)
			resp.Elapsed = time.Since(start)
			return resp, err
		}
		// The leader's search ended without a definitive outcome. That proves
		// nothing about this request, so go around again: re-check storage,
		// then join (or lead) a fresh flight.
	}
}

// share hands out a Coalesced copy of a definitive outcome another request
// paid for, counting it.
func (r *results) share(o outcome) (Response, error) {
	r.count(&r.coalesced, cacheResultCoalesced)
	resp := cloneResponse(o.resp)
	resp.Coalesced = true
	return resp, o.err
}

// count bumps one lookup counter and its metric series.
//
// korvet:labels — callers pass cacheResultHit/Miss/Coalesced.
func (r *results) count(c *atomic.Int64, result string) {
	c.Add(1)
	if r.lookups != nil {
		r.lookups.With(result).Inc()
	}
}

// lead runs the search as the leader of flight f and publishes the outcome.
// The flight is always finished, even when the search panics: the followers
// then retry rather than hang.
func (r *results) lead(key string, f *flight, search func() (Response, error)) (Response, error) {
	published := false
	defer func() {
		if !published {
			r.publish(key, f, outcome{}, false)
		}
	}()
	if r.searchHook != nil {
		r.searchHook()
	}
	resp, err := search()
	published = true
	if definitiveOutcome(err) {
		// One private copy serves both storage and the followers: neither
		// ever hands it out without cloning again, so the caller owning resp
		// can scribble on it freely.
		r.publish(key, f, outcome{cloneResponse(resp), err}, true)
	} else {
		r.publish(key, f, outcome{err: err}, false)
	}
	return resp, err
}

// definitiveOutcome reports whether a search outcome is deterministic and
// complete — safe to store and to share with followers. A clean answer,
// ErrNoRoute (the search proved infeasibility) and the greedy budget overshoot
// (deterministic routes plus the sentinel) all qualify: they are exactly as
// expensive and as deterministic to recompute. Context errors and
// ErrSearchLimit never qualify — an aborted search proved nothing.
func definitiveOutcome(err error) bool {
	return err == nil || errors.Is(err, ErrNoRoute) || errors.Is(err, ErrBudgetExceeded)
}

// join returns the live flight for key, creating it when none is. leader is
// true for the creator, who must eventually publish exactly once; followers
// wait on f.done.
func (r *results) join(key string) (f *flight, leader bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.flights[key]; f != nil {
		f.followers.Add(1)
		return f, false
	}
	if r.flights == nil {
		r.flights = make(map[string]*flight)
	}
	f = &flight{done: make(chan struct{})}
	r.flights[key] = f
	return f, true
}

// publish ends flight f with o, storing o first when it is definitive. It is
// the layer's only write path: every answer another request can ever see
// passes through here. The flight leaves the table before done closes, so a
// request arriving after the outcome is decided starts afresh instead of
// reading a stale flight.
func (r *results) publish(key string, f *flight, o outcome, definitive bool) {
	if definitive && r.stores() {
		s := r.shard(key)
		s.mu.Lock()
		if el, ok := s.items[key]; ok {
			el.Value.(*resultEntry).outcome = o
			s.order.MoveToFront(el)
		} else {
			if s.order.Len() >= r.perShard {
				back := s.order.Back()
				s.order.Remove(back)
				delete(s.items, back.Value.(*resultEntry).key)
				r.evictions.Add(1)
			}
			s.items[key] = s.order.PushFront(&resultEntry{key: key, outcome: o})
		}
		s.mu.Unlock()
	}
	r.mu.Lock()
	if r.flights[key] == f {
		delete(r.flights, key)
	}
	r.mu.Unlock()
	f.outcome, f.definitive = o, definitive
	close(f.done)
}

// get returns the stored outcome for key, marking it most recently used.
func (r *results) get(key string) (outcome, bool) {
	if !r.stores() {
		return outcome{}, false
	}
	s := r.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return outcome{}, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*resultEntry).outcome, true
}

// shard picks key's shard by FNV-1a hash.
func (r *results) shard(key string) *resultShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &r.shards[h&(resultShards-1)]
}

// clear drops every stored answer. The drops are deliberately not counted as
// evictions: that counter measures capacity pressure, the signal operators
// size the cache by, and a flush says nothing about capacity.
func (r *results) clear() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		clear(s.items)
		s.order.Init()
		s.mu.Unlock()
	}
}

// size returns the number of stored answers.
func (r *results) size() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// stats snapshots the counter block.
func (r *results) stats() CacheStats {
	return CacheStats{
		Hits:      r.hits.Load(),
		Misses:    r.misses.Load(),
		Evictions: r.evictions.Load(),
		Coalesced: r.coalesced.Load(),
		Size:      r.size(),
		Capacity:  r.perShard * resultShards,
	}
}

// key returns the canonical key of a request prepared against the snapshot
// with fingerprint fp: the resolved core query (terms, not strings, so
// spelling aliases of the same term sequence share a key), the canonical
// algorithm and every option that can influence the result. Purely binary —
// every field has fixed width except the term list, whose length is encoded.
// ok is false when the request cannot be keyed: a Tracer observes per-request
// side effects.
func (p prepared) key(fp uint64) (key string, ok bool) {
	if p.opts.Tracer != nil {
		return "", false
	}
	q, opts := p.q, p.opts
	b := make([]byte, 0, 96+8*len(q.Keywords))
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	u64(fp)
	b = append(b, string(p.algo.Canonical())...)
	b = append(b, 0)
	u64(uint64(uint32(q.Source)))
	u64(uint64(uint32(q.Target)))
	f64(q.Budget)
	u64(uint64(len(q.Keywords)))
	for _, t := range q.Keywords {
		u64(uint64(uint32(t)))
	}
	f64(opts.Epsilon)
	f64(opts.Beta)
	f64(opts.Alpha)
	f64(opts.InfrequentFraction)
	u64(uint64(opts.Width))
	u64(uint64(opts.K))
	u64(uint64(opts.MaxExpansions))
	flag(opts.DisableStrategy2)
	flag(opts.BudgetPriority)
	return string(b), true
}

// cloneResponse deep-copies the route slices so stored answers and the
// responses handed to callers never share mutable memory: a caller scribbling
// on Response.Routes (or a route's Nodes) must not corrupt storage, and two
// callers sharing one answer must not see each other.
func cloneResponse(r Response) Response {
	out := r
	out.Routes = make([]Route, len(r.Routes))
	for i, rt := range r.Routes {
		out.Routes[i] = rt
		out.Routes[i].Nodes = append([]NodeID(nil), rt.Nodes...)
	}
	return out
}
