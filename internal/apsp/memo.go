package apsp

import (
	"slices"
	"sync"
	"sync/atomic"

	"kor/internal/graph"
)

// The oracle memo: the one keyed, single-flighted, FIFO-bounded store behind
// every score vector the oracles compute on demand — the lazy oracle's
// forward, reverse and Δ/U-bounded Dijkstra sweeps, and the partitioned
// oracle's per-target and per-source slices. A store is bounded twice: by an
// entry cap and by a byte budget, against which each entry is charged the
// size its owner reports when the entry is published. Sweeps report what
// they hold — a truncated sweep a fraction of a full one — so the budget
// holds as many as really fit; slices, which keep growing after they are
// published, are charged their worst case up front.

// Budgets of the two memo instances. Sweeps are additionally capped by entry
// count so small graphs, whose sweeps are cheap to recompute, do not hold
// thousands of them: the cap holds about ten queries' worth of the sweeps a
// label query runs (a dozen or so once its candidates are pruned to the
// source–target budget ellipse). Slices are bounded by bytes alone — a label
// search resolves a slice per candidate node and the store must hold the
// working set of a whole query stream, not of one query.
const (
	sweepMemoBudget  = 512 << 20
	sweepMemoEntries = 128
	sliceMemoBudget  = 256 << 20
	// memoMinEntries keeps a store useful on graphs where one entry exceeds
	// the whole budget: a query's two target sweeps and a candidate or two
	// must coexist.
	memoMinEntries = 4
)

// memoKey names one score vector: the fixed node, the metric minimized, and
// the orientation (false: paths into node, true: paths out of it).
type memoKey struct {
	node     graph.NodeID
	metric   Metric
	outbound bool
}

// memoEntry is one slot. done closes once the leader has either published v
// or panicked; settled (guarded by memo.mu) tells lock-holders which.
type memoEntry[V any] struct {
	key     memoKey
	done    chan struct{}
	v       V
	settled bool
	bytes   int64 // what v is charged; set when it is published
}

// MemoStats is the observable state of an oracle memo.
type MemoStats struct {
	// Hits counts get requests served by a resident or in-flight entry,
	// Misses those that ran the computation themselves. peek, the
	// pair-lookup fast path, is not counted.
	Hits, Misses int64
	// Evictions counts entries dropped by the FIFO bound (not replacements).
	Evictions int64
	// Entries and ResidentBytes describe what the store holds right now;
	// Capacity is how many entries it holds whatever their sizes: the entry
	// cap, or fewer when the byte budget holds fewer worst-case entries.
	Entries       int
	Capacity      int
	ResidentBytes int64
}

type memo[V any] struct {
	cap    int   // entry cap
	budget int64 // byte budget
	worst  int64 // size of the largest entry the graph allows
	size   func(V) int64

	mu      sync.RWMutex
	entries map[memoKey]*memoEntry[V]
	// order is the FIFO eviction queue: exactly the resident entries, oldest
	// first. A replaced or panicked entry leaves it along with the map
	// (dropLocked), so evicting the head can never hit a newer entry that
	// took over its key.
	order []*memoEntry[V]
	bytes int64 // sum of the resident entries' charges

	hits, misses, evictions atomic.Int64
}

// newMemo returns a store of at most entryCap entries and byteBudget bytes;
// size is evaluated once per entry, when it is published, and worstBytes is
// the most it can return on this graph.
func newMemo[V any](entryCap int, byteBudget, worstBytes int64, size func(V) int64) *memo[V] {
	return &memo[V]{cap: entryCap, budget: byteBudget, worst: worstBytes, size: size, entries: make(map[memoKey]*memoEntry[V])}
}

// evictLocked drops the oldest entries while the store is over its entry cap
// or its byte budget; the budget never takes it below memoMinEntries.
// Evicting an in-flight entry is harmless: its leader and waiters hold the
// pointer; the value just is not findable afterwards.
func (c *memo[V]) evictLocked() {
	for len(c.order) > c.cap || (c.bytes > c.budget && len(c.order) > memoMinEntries) {
		e := c.order[0]
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.order[0] = nil // the backing array must not pin the evicted value
		c.order = c.order[1:]
		c.evictions.Add(1)
	}
}

// peek returns the published value under key without ever blocking: ok is
// false when the key is absent or its computation still in flight.
func (c *memo[V]) peek(key memoKey) (v V, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e := c.entries[key]; e != nil && e.settled {
		return e.v, true
	}
	return v, false
}

// get returns a value for key that satisfies usable (nil: any value does),
// running compute when the store has none. Concurrent requests for a missing
// key share one computation: the first becomes the leader, the rest wait.
// shared reports that the value was somebody else's work. A resident value
// that fails usable is replaced by the caller's — also when the caller first
// waited for it: a follower whose leader published something it cannot use
// starts over and finds that value resident. Only a follower whose leader
// panicked computes privately, without caching (the panic propagates to the
// leader's caller only). usable runs under the store's lock and must not
// block.
func (c *memo[V]) get(key memoKey, usable func(V) bool, compute func() V) (v V, shared bool) {
	if usable == nil {
		usable = func(V) bool { return true }
	}
	for {
		c.mu.Lock()
		e := c.entries[key]
		if e != nil && e.settled && !usable(e.v) {
			c.dropLocked(e)
			e = nil
		}
		if e == nil {
			e = &memoEntry[V]{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.order = append(c.order, e)
			c.evictLocked()
			c.mu.Unlock()
			return c.lead(e, compute), false
		}
		c.mu.Unlock()

		<-e.done
		if !e.settled {
			c.misses.Add(1)
			return compute(), false
		}
		if usable(e.v) {
			c.hits.Add(1)
			return e.v, true
		}
	}
}

// lead computes e's value and publishes it, charging the store its size.
func (c *memo[V]) lead(e *memoEntry[V], compute func() V) V {
	c.misses.Add(1)
	defer func() {
		if !e.settled { // compute panicked: unpublish, release the waiters
			c.mu.Lock()
			c.dropLocked(e)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	v := compute()
	bytes := c.size(v)
	c.mu.Lock()
	e.v, e.settled, e.bytes = v, true, bytes
	if c.entries[e.key] == e { // still resident: evicted entries are not charged
		c.bytes += bytes
		c.evictLocked()
	}
	c.mu.Unlock()
	return v
}

// dropLocked removes e — and only e: it may since have been evicted, and its
// key taken by a newer entry — together with its place in the queue.
func (c *memo[V]) dropLocked(e *memoEntry[V]) {
	if c.entries[e.key] != e {
		return
	}
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.order = slices.DeleteFunc(c.order, func(o *memoEntry[V]) bool { return o == e })
}

// stats snapshots the counters. ResidentBytes is what the resident entries
// were charged; live, when non-nil, replaces the charge of each published
// entry by what the value holds right now (a slice is charged its worst case
// and fills as it is read).
func (c *memo[V]) stats(live func(V) int64) MemoStats {
	c.mu.RLock()
	n := len(c.entries)
	resident := c.bytes
	if live != nil {
		resident = 0
		for _, e := range c.entries {
			if e.settled {
				resident += live(e.v)
			}
		}
	}
	c.mu.RUnlock()
	capacity := c.cap
	if n := c.budget / c.worst; n < int64(capacity) {
		capacity = max(int(n), memoMinEntries)
	}
	return MemoStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       n,
		Capacity:      capacity,
		ResidentBytes: resident,
	}
}
