package kor

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kor/internal/core"
)

// Tests for request-level single-flight coalescing and batch deduplication
// (results.go, batch.go): N identical concurrent Runs execute one search,
// followers receive clones flagged Coalesced, the flight key's snapshot
// fingerprint pins followers to the graph version they resolved against, and
// non-definitive outcomes are never shared. Run with -race.

// parkFirstSearch installs a hook on eng that blocks the first leader right
// before its search until release closes; later searches pass straight through. The
// returned channel closes when the first leader is parked, and the counter
// reports how many searches actually executed.
func parkFirstSearch(eng *Engine, release <-chan struct{}) (parked chan struct{}, searches *atomic.Int32) {
	parked = make(chan struct{})
	searches = new(atomic.Int32)
	eng.results.searchHook = func() {
		if searches.Add(1) == 1 {
			close(parked)
			<-release
		}
	}
	return parked, searches
}

// awaitWaiters polls until n followers are queued on the engine's live
// flights.
func awaitWaiters(t *testing.T, eng *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.results.waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d followers queued, want %d", eng.results.waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waiters sums the followers attached to live flights (test support: the
// stampede tests hold the leader in a hook until the expected followers have
// queued up).
func (r *results) waiters() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.flights {
		n += int(f.followers.Load())
	}
	return n
}

type flightOutcome struct {
	resp Response
	err  error
}

// TestSingleFlightStampede: the cache-stampede regression. The leader is held
// mid-search while identical requests pile up; when it finishes, exactly one
// search has run (hook count, and every response carries the one search's
// Metrics.PlanSweeps) and every follower holds a Coalesced clone of the same
// answer.
func TestSingleFlightStampede(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	const followers = 4

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)

	outcomes := make(chan flightOutcome, followers+1)
	run := func() {
		resp, err := eng.Run(context.Background(), req)
		outcomes <- flightOutcome{resp, err}
	}
	go run()
	<-parked
	for i := 0; i < followers; i++ {
		go run()
	}
	awaitWaiters(t, eng, followers)
	close(release)

	var leader *Response
	var shared []Response
	for i := 0; i < followers+1; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		if o.resp.Cached {
			t.Fatal("a stampeding request claimed a cache hit")
		}
		if o.resp.Coalesced {
			shared = append(shared, o.resp)
		} else {
			if leader != nil {
				t.Fatal("two responses claim to have run the search")
			}
			r := o.resp
			leader = &r
		}
	}
	if leader == nil || len(shared) != followers {
		t.Fatalf("got %d coalesced responses and leader=%v, want %d and one leader",
			len(shared), leader != nil, followers)
	}
	if got := searches.Load(); got != 1 {
		t.Fatalf("%d searches executed for %d identical concurrent requests, want 1", got, followers+1)
	}
	// The one search's work is shared, not redone: every follower carries the
	// leader's counters verbatim.
	for _, resp := range shared {
		if resp.Metrics != leader.Metrics {
			t.Fatalf("follower metrics %+v differ from leader %+v", resp.Metrics, leader.Metrics)
		}
		if resp.Best().Objective != leader.Best().Objective ||
			resp.Best().Budget != leader.Best().Budget {
			t.Fatalf("follower route %v differs from leader %v", resp.Best(), leader.Best())
		}
		if resp.Snapshot.Fingerprint != leader.Snapshot.Fingerprint {
			t.Fatal("follower snapshot fingerprint differs from leader")
		}
	}

	st, ok := eng.CacheStats()
	if !ok {
		t.Fatal("CacheStats reported disabled")
	}
	if st.Hits != 0 || st.Misses != 1 || st.Coalesced != followers || st.Size != 1 {
		t.Fatalf("stats = %+v, want hits=0 misses=1 coalesced=%d size=1", st, followers)
	}
	// The flight's outcome landed in the cache: the next identical request is
	// a plain hit, not a new flight.
	resp, err := eng.Run(context.Background(), req)
	if err != nil || !resp.Cached {
		t.Fatalf("post-stampede run cached=%v err=%v, want a cache hit", resp.Cached, err)
	}
}

// TestSingleFlightWithoutCache: coalescing does not depend on the result
// cache — an engine with no cache still folds identical concurrent requests
// into one search.
func TestSingleFlightWithoutCache(t *testing.T) {
	eng, err := NewEngine(cacheTestGraph(t), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, ok := eng.CacheStats(); ok {
		t.Fatal("cache unexpectedly enabled")
	}
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	const followers = 2

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)
	outcomes := make(chan flightOutcome, followers+1)
	run := func() {
		resp, err := eng.Run(context.Background(), req)
		outcomes <- flightOutcome{resp, err}
	}
	go run()
	<-parked
	for i := 0; i < followers; i++ {
		go run()
	}
	awaitWaiters(t, eng, followers)
	close(release)

	coalesced := 0
	for i := 0; i < followers+1; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		if o.resp.Coalesced {
			coalesced++
		}
	}
	if coalesced != followers || searches.Load() != 1 {
		t.Fatalf("coalesced=%d searches=%d, want %d and 1", coalesced, searches.Load(), followers)
	}
}

// swapTestGraph is cacheTestGraph plus an extra node and edge pair — same
// answers for the test request, different fingerprint.
func swapTestGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("hotel")          // 0
	b.AddNode("cafe", "jazz")   // 1
	b.AddNode("park")           // 2
	b.AddNode("museum", "jazz") // 3
	b.AddNode("pier")           // 4
	edges := []struct {
		from, to NodeID
		o, c     float64
	}{
		{0, 1, 0.7, 1.2}, {1, 2, 0.3, 0.8}, {2, 0, 0.5, 1.0},
		{0, 3, 0.9, 0.9}, {3, 2, 0.4, 1.1}, {2, 3, 0.4, 1.1},
		{1, 3, 0.6, 0.7}, {3, 1, 0.6, 0.7},
		{2, 4, 0.2, 0.5}, {4, 2, 0.2, 0.5},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestSingleFlightFollowerAcrossSwap: a follower that joined a flight before
// an Engine.Swap must receive the answer computed on the snapshot it resolved
// against — never a response whose fingerprint mismatches. A request arriving
// after the swap starts a fresh flight on the new snapshot (the flight key
// embeds the fingerprint).
func TestSingleFlightFollowerAcrossSwap(t *testing.T) {
	eng := cachedEngine(t, 64)
	oldFP := eng.Snapshot().Fingerprint
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)
	outcomes := make(chan flightOutcome, 2)
	run := func() {
		resp, err := eng.Run(context.Background(), req)
		outcomes <- flightOutcome{resp, err}
	}
	go run() // leader
	<-parked
	go run() // follower
	awaitWaiters(t, eng, 1)

	// Swap under the follower: new graph, new fingerprint, cache flushed.
	info, err := eng.Swap(swapTestGraph(t))
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if info.Fingerprint == oldFP {
		t.Fatal("swap graph has the same fingerprint — test cannot distinguish snapshots")
	}
	close(release)

	sawCoalesced := false
	for i := 0; i < 2; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		if o.resp.Snapshot.Fingerprint != oldFP {
			t.Fatalf("response fingerprint %x, want the pre-swap %x — a follower crossed a swap",
				o.resp.Snapshot.Fingerprint, oldFP)
		}
		if o.resp.Coalesced {
			sawCoalesced = true
		}
	}
	if !sawCoalesced {
		t.Fatal("follower did not coalesce")
	}

	// The same request now runs fresh on the new snapshot: no stale cache
	// entry, no stale flight.
	resp, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("post-swap run: %v", err)
	}
	if resp.Cached || resp.Coalesced {
		t.Fatalf("post-swap run cached=%v coalesced=%v, want a fresh search", resp.Cached, resp.Coalesced)
	}
	if resp.Snapshot.Fingerprint != info.Fingerprint {
		t.Fatalf("post-swap fingerprint %x, want %x", resp.Snapshot.Fingerprint, info.Fingerprint)
	}
	if searches.Load() != 2 {
		t.Fatalf("%d searches executed, want 2 (one per snapshot)", searches.Load())
	}
}

// TestSingleFlightNonDefinitiveNotShared: a leader that trips ErrSearchLimit
// proved nothing; followers must not inherit the failure. Each goroutine ends
// up running (and capping out) its own search, and nothing lands in the
// cache.
func TestSingleFlightNonDefinitiveNotShared(t *testing.T) {
	eng := cachedEngine(t, 64)
	opts := DefaultOptions()
	opts.MaxExpansions = 1
	req := Request{From: 0, To: 2, Keywords: []string{"jazz", "park"}, Budget: 6, Options: &opts}
	const followers = 3

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)
	outcomes := make(chan flightOutcome, followers+1)
	run := func() {
		resp, err := eng.Run(context.Background(), req)
		outcomes <- flightOutcome{resp, err}
	}
	go run()
	<-parked
	for i := 0; i < followers; i++ {
		go run()
	}
	awaitWaiters(t, eng, followers)
	close(release)

	for i := 0; i < followers+1; i++ {
		o := <-outcomes
		if !errors.Is(o.err, ErrSearchLimit) {
			t.Fatalf("err = %v, want ErrSearchLimit", o.err)
		}
		if o.resp.Coalesced || o.resp.Cached {
			t.Fatalf("non-definitive outcome was shared: cached=%v coalesced=%v",
				o.resp.Cached, o.resp.Coalesced)
		}
	}
	if got := searches.Load(); got != followers+1 {
		t.Fatalf("%d searches executed, want %d (every request retries for itself)", got, followers+1)
	}
	st, _ := eng.CacheStats()
	if st.Size != 0 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want an empty cache and no coalesced responses", st)
	}
}

// TestSingleFlightFollowerCancel: a follower whose context dies while waiting
// abandons the flight with its own context error; the leader and the flight
// are unaffected.
func TestSingleFlightFollowerCancel(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)
	leaderOut := make(chan flightOutcome, 1)
	go func() {
		resp, err := eng.Run(context.Background(), req)
		leaderOut <- flightOutcome{resp, err}
	}()
	<-parked

	ctx, cancel := context.WithCancel(context.Background())
	followerOut := make(chan flightOutcome, 1)
	go func() {
		resp, err := eng.Run(ctx, req)
		followerOut <- flightOutcome{resp, err}
	}()
	awaitWaiters(t, eng, 1)
	cancel()
	o := <-followerOut
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("cancelled follower err = %v, want context.Canceled", o.err)
	}
	if o.resp.Coalesced {
		t.Fatal("cancelled follower carries a coalesced response")
	}

	close(release)
	lo := <-leaderOut
	if lo.err != nil {
		t.Fatalf("leader failed after follower cancellation: %v", lo.err)
	}
	if searches.Load() != 1 {
		t.Fatalf("%d searches executed, want 1", searches.Load())
	}
}

// TestSearchBatchDedup: identical requests inside one batch run once; every
// duplicate receives a Coalesced clone of its representative's outcome at its
// original request index. A request whose keywords do not resolve has no key
// and is not deduplicated: each copy fails on its own.
func TestSearchBatchDedup(t *testing.T) {
	eng := cachedEngine(t, 64)
	var searches atomic.Int32
	eng.results.searchHook = func() { searches.Add(1) }

	reqA := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	reqB := Request{From: 0, To: 2, Keywords: []string{"park"}, Budget: 6}
	reqC := Request{From: 1, To: 3, Keywords: []string{"jazz"}, Budget: 6}
	reqBad := Request{From: 0, To: 2, Keywords: []string{"nosuch"}, Budget: 6}
	requests := []Request{reqA, reqB, reqA, reqBad, reqC, reqB, reqA, reqBad}

	results, err := eng.SearchBatch(context.Background(), requests, 4)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	if len(results) != len(requests) {
		t.Fatalf("got %d results for %d requests", len(results), len(requests))
	}

	wantDup := map[int]int{2: 0, 5: 1, 6: 0} // duplicate index → representative
	for i, br := range results {
		rep, isDup := wantDup[i]
		if br.Response.Coalesced != isDup {
			t.Errorf("result %d coalesced=%v, want %v", i, br.Response.Coalesced, isDup)
		}
		if !isDup {
			continue
		}
		src := results[rep]
		if (br.Err == nil) != (src.Err == nil) || br.Route().String() != src.Route().String() {
			t.Errorf("duplicate %d (err=%v, route %s) mismatches representative %d (err=%v, route %s)",
				i, br.Err, br.Route(), rep, src.Err, src.Route())
		}
	}
	// The repeated unknown-keyword request fails identically at both
	// indices.
	for _, i := range []int{3, 7} {
		if !errors.Is(results[i].Err, ErrUnknownKeyword) {
			t.Errorf("result %d err = %v, want ErrUnknownKeyword", i, results[i].Err)
		}
	}
	// Three searchable distinct requests → three searches (the unknown
	// keyword fails before any search).
	if got := searches.Load(); got != 3 {
		t.Fatalf("%d searches executed, want 3", got)
	}
	st, _ := eng.CacheStats()
	if st.Coalesced != 3 || st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want coalesced=3 misses=3 hits=0", st)
	}

	// The batch answers match individual Runs on a fresh engine.
	fresh := cachedEngine(t, 64)
	for i, req := range requests {
		want, wantErr := fresh.Run(context.Background(), req)
		if (results[i].Err == nil) != (wantErr == nil) {
			t.Errorf("result %d err = %v, single-run err = %v", i, results[i].Err, wantErr)
			continue
		}
		if wantErr == nil && results[i].Route().String() != want.Best().String() {
			t.Errorf("result %d route %s, single-run %s", i, results[i].Route(), want.Best())
		}
	}
}

// TestSearchBatchDedupUncacheable: requests that cannot be canonicalized (a
// Tracer observes per-request side effects) are never deduplicated, even when
// textually identical.
func TestSearchBatchDedupUncacheable(t *testing.T) {
	eng := cachedEngine(t, 64)
	var traced atomic.Int32
	opts := DefaultOptions()
	opts.Tracer = countingTracer{&traced}
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6, Options: &opts}

	results, err := eng.SearchBatch(context.Background(), []Request{req, req}, 2)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("result %d: %v", i, br.Err)
		}
		if br.Response.Coalesced {
			t.Fatalf("traced request %d was deduplicated", i)
		}
	}
	if traced.Load() == 0 {
		t.Fatal("tracer never fired — requests did not both search")
	}
}

// countingTracer counts label events; its presence makes a request
// uncacheable.
type countingTracer struct{ n *atomic.Int32 }

func (c countingTracer) Trace(core.TraceEvent) { c.n.Add(1) }

// TestBatchDedupConcurrentWithStampede: batch dedup and request single-flight
// compose — two concurrent batches full of the same request still execute the
// search once.
func TestBatchDedupConcurrentWithStampede(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	batch := []Request{req, req, req}

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)

	var wg sync.WaitGroup
	var failures atomic.Int32
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := eng.SearchBatch(context.Background(), batch, 2)
			if err != nil {
				failures.Add(1)
				return
			}
			for _, br := range results {
				if br.Err != nil || len(br.Response.Routes) == 0 {
					failures.Add(1)
				}
			}
		}()
	}
	<-parked
	// The second batch's representative either queues behind the parked
	// leader or hits the cache after it finishes; either way exactly one
	// search runs. Give it a moment to reach the flight, then release.
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d batch results failed", failures.Load())
	}
	if got := searches.Load(); got != 1 {
		t.Fatalf("%d searches executed across two duplicate-only batches, want 1", got)
	}
}
