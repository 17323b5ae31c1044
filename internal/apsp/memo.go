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
// oracle's per-target and per-source slices. Each entry is a score vector
// into (or out of) one node, at most |V| long, so an entry's worst-case size
// is a function of the graph alone and the byte budget turns into an entry
// cap once, at construction. (A slice fills cell by cell and usually stays
// far below that; the cap still charges it the worst case.)

// Budgets of the two memo instances. Sweeps are additionally capped by entry
// count so small graphs, whose sweeps are cheap to recompute, do not hold
// thousands of them; slices are bounded by bytes alone — a label search
// resolves a slice per candidate node and the store must hold the working
// set of a whole query stream, not of one query.
const (
	sweepMemoBudget  = 512 << 20
	sweepMemoEntries = 512
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
	// Capacity is the entry cap its budget came to for this graph.
	Entries       int
	Capacity      int
	ResidentBytes int64
}

type memo[V any] struct {
	cap           int
	bytesPerEntry int64

	mu      sync.RWMutex
	entries map[memoKey]*memoEntry[V]
	// order is the FIFO eviction queue: exactly the resident entries, oldest
	// first. A replaced or panicked entry leaves it along with the map
	// (dropLocked), so evicting the head can never hit a newer entry that
	// took over its key.
	order []*memoEntry[V]

	hits, misses, evictions atomic.Int64
}

// newMemo sizes a store whose entries take bytesPerEntry each:
// min(entryCap, byteBudget/bytesPerEntry), floored at memoMinEntries.
func newMemo[V any](entryCap int, byteBudget, bytesPerEntry int64) *memo[V] {
	if n := byteBudget / bytesPerEntry; n < int64(entryCap) {
		entryCap = int(n)
	}
	if entryCap < memoMinEntries {
		entryCap = memoMinEntries
	}
	return &memo[V]{cap: entryCap, bytesPerEntry: bytesPerEntry, entries: make(map[memoKey]*memoEntry[V])}
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
// that fails usable is replaced by the caller's. Two cases compute privately,
// without caching: the awaited leader panicked (the panic propagates to the
// leader's caller only), or the awaited value turned out not usable. usable
// runs under the store's lock and must not block.
func (c *memo[V]) get(key memoKey, usable func(V) bool, compute func() V) (v V, shared bool) {
	if usable == nil {
		usable = func(V) bool { return true }
	}
	c.mu.Lock()
	e := c.entries[key]
	if e != nil && e.settled && !usable(e.v) {
		c.dropLocked(e)
		e = nil
	}
	lead := e == nil
	if lead {
		e = &memoEntry[V]{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.order = append(c.order, e)
		for len(c.order) > c.cap {
			// Evicting an in-flight entry is harmless: its leader and waiters
			// hold the pointer; the value just is not findable afterwards.
			delete(c.entries, c.order[0].key)
			c.order[0] = nil // the backing array must not pin the evicted value
			c.order = c.order[1:]
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()

	if !lead {
		<-e.done
		if e.settled && usable(e.v) {
			c.hits.Add(1)
			return e.v, true
		}
		c.misses.Add(1)
		return compute(), false
	}

	c.misses.Add(1)
	defer func() {
		if !e.settled { // compute panicked: unpublish, release the waiters
			c.mu.Lock()
			c.dropLocked(e)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	v = compute()
	c.mu.Lock()
	e.v, e.settled = v, true
	c.mu.Unlock()
	return v, false
}

// dropLocked removes e — and only e: it may since have been evicted, and its
// key taken by a newer entry — together with its place in the queue.
func (c *memo[V]) dropLocked(e *memoEntry[V]) {
	if c.entries[e.key] != e {
		return
	}
	delete(c.entries, e.key)
	c.order = slices.DeleteFunc(c.order, func(o *memoEntry[V]) bool { return o == e })
}

// stats snapshots the counters. size, when non-nil, reports what one published
// value really holds and ResidentBytes sums it over the resident entries (an
// entry still computing holds nothing yet); nil charges every entry the
// construction-time bytesPerEntry.
func (c *memo[V]) stats(size func(V) int64) MemoStats {
	c.mu.RLock()
	n := len(c.entries)
	resident := int64(n) * c.bytesPerEntry
	if size != nil {
		resident = 0
		for _, e := range c.entries {
			if e.settled {
				resident += size(e.v)
			}
		}
	}
	c.mu.RUnlock()
	return MemoStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       n,
		Capacity:      c.cap,
		ResidentBytes: resident,
	}
}
