package apsp

import (
	"slices"
	"sync"
	"sync/atomic"

	"kor/internal/graph"
)

// The oracle memo: the keyed, single-flighted, FIFO-bounded store behind the
// partitioned oracle's per-target and per-source slices. A store is bounded
// by a byte budget, against which every published entry is charged the same
// worst-case size: a slice keeps growing after it is published, so the
// charge is what one can come to hold. The lazy oracle keeps no memo: each
// query plan runs its own sweeps and frontiers.

const (
	// sliceMemoBudget holds about 523 slices of 160,120 B on the 8,000-node
	// bench road graph. Slices fill only where they are read: a label query
	// stays near its Δ-ball and Greedy scans only the cells Equation 1 can
	// still reach, so a full store holds far less than the charge — 523
	// slices held 8.8 MiB after 256 bench queries, one algorithm in three
	// Greedy, and 7.5 MiB after 256 Greedy queries (DESIGN.md, The oracle
	// memo).
	sliceMemoBudget = 80 << 20
	// memoMinEntries keeps a store useful on graphs where one entry exceeds
	// the whole budget: a query's two target slices and a candidate or two
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
}

// MemoStats is the observable state of an oracle memo.
type MemoStats struct {
	// Hits counts get requests served by a resident or in-flight entry,
	// Misses those that ran the computation themselves.
	Hits, Misses int64
	// Evictions counts entries dropped by the FIFO bound.
	Evictions int64
	// Entries and ResidentBytes describe what the store holds right now;
	// Capacity is how many entries the byte budget holds at the worst-case
	// charge.
	Entries       int
	Capacity      int
	ResidentBytes int64
}

type memo[V any] struct {
	budget int64 // byte budget
	charge int64 // what each published entry is charged

	mu      sync.Mutex
	entries map[memoKey]*memoEntry[V]
	// order is the FIFO eviction queue: exactly the resident entries, oldest
	// first. A panicked entry leaves it along with the map (dropLocked), so
	// evicting the head can never hit a newer entry that took over its key.
	order []*memoEntry[V]
	bytes int64 // charge × the resident entries that are published

	hits, misses, evictions atomic.Int64
}

// newMemo returns a store of byteBudget bytes that charges each published
// entry entryBytes.
func newMemo[V any](byteBudget, entryBytes int64) *memo[V] {
	return &memo[V]{budget: byteBudget, charge: entryBytes, entries: make(map[memoKey]*memoEntry[V])}
}

// evictLocked drops the oldest entries while the store is over its byte
// budget; it never takes the store below memoMinEntries. Evicting an
// in-flight entry is harmless: its leader and waiters hold the pointer; the
// value just is not findable afterwards.
func (c *memo[V]) evictLocked() {
	for c.bytes > c.budget && len(c.order) > memoMinEntries {
		e := c.order[0]
		delete(c.entries, e.key)
		if e.settled {
			c.bytes -= c.charge
		}
		c.order[0] = nil // the backing array must not pin the evicted value
		c.order = c.order[1:]
		c.evictions.Add(1)
	}
}

// get returns the value under key, running compute when the store has none.
// Concurrent requests for a missing key share one computation: the first
// becomes the leader, the rest wait. A follower whose leader panicked
// computes privately, without caching (the panic propagates to the leader's
// caller only).
func (c *memo[V]) get(key memoKey, compute func() V) V {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &memoEntry[V]{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.order = append(c.order, e)
		c.mu.Unlock()
		return c.lead(e, compute)
	}
	c.mu.Unlock()

	<-e.done
	if !e.settled {
		c.misses.Add(1)
		return compute()
	}
	c.hits.Add(1)
	return e.v
}

// lead computes e's value and publishes it, charging the store for it.
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
	c.mu.Lock()
	e.v, e.settled = v, true
	if c.entries[e.key] == e { // still resident: evicted entries are not charged
		c.bytes += c.charge
		c.evictLocked()
	}
	c.mu.Unlock()
	return v
}

// dropLocked removes e, an entry whose leader panicked before publishing —
// and only e: it may since have been evicted, and its key taken by a newer
// entry — together with its place in the queue.
func (c *memo[V]) dropLocked(e *memoEntry[V]) {
	if c.entries[e.key] != e {
		return
	}
	delete(c.entries, e.key)
	c.order = slices.DeleteFunc(c.order, func(o *memoEntry[V]) bool { return o == e })
}

// stats snapshots the counters. ResidentBytes is what the published entries
// hold right now, as live reports it; the charge is only their bound.
func (c *memo[V]) stats(live func(V) int64) MemoStats {
	c.mu.Lock()
	n := len(c.entries)
	var resident int64
	for _, e := range c.entries {
		if e.settled {
			resident += live(e.v)
		}
	}
	c.mu.Unlock()
	return MemoStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       n,
		Capacity:      int(max(c.budget/c.charge, memoMinEntries)),
		ResidentBytes: resident,
	}
}
