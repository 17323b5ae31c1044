package kor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the engine's result layer (results.go): the LRU storage on its
// own, then through Run — correctness of hits, immutability of cached routes
// against caller mutation, counter consistency under concurrency (run with
// -race), and key sensitivity.

// storeAnswer runs key through r as a leader whose search answers v (carried
// in Response.Bound) definitively, so the outcome is stored.
func storeAnswer(t *testing.T, r *results, key string, v float64) {
	t.Helper()
	if _, err := r.answer(context.Background(), key, time.Now(), func() (Response, error) {
		return Response{Bound: v}, nil
	}); err != nil {
		t.Fatalf("answer(%s): %v", key, err)
	}
}

// storedAnswer returns the value stored for key, if any.
func storedAnswer(r *results, key string) (float64, bool) {
	o, ok := r.get(key)
	return o.resp.Bound, ok
}

// keysInShard returns n keys that all hash to shard 0.
func keysInShard(r *results, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if r.shard(k) == &r.shards[0] {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestResultsLRU(t *testing.T) {
	r := newResults(resultShards) // one slot per shard
	if _, ok := storedAnswer(r, "a"); ok {
		t.Fatal("empty storage reported a hit")
	}
	storeAnswer(t, r, "a", 1)
	if v, ok := storedAnswer(r, "a"); !ok || v != 1 {
		t.Fatalf("got (%v,%v), want (1,true)", v, ok)
	}

	// Overfill one shard: its least recently used key must be evicted.
	keys := keysInShard(r, 3)
	storeAnswer(t, r, keys[0], 10)
	storeAnswer(t, r, keys[1], 11)
	if _, ok := storedAnswer(r, keys[0]); ok {
		t.Error("oldest entry of a full shard survived eviction")
	}
	if v, ok := storedAnswer(r, keys[1]); !ok || v != 11 {
		t.Errorf("newest entry = (%v,%v), want (11,true)", v, ok)
	}
	if got := r.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}

	// Recency, not insertion order, decides: with two slots, touching the
	// older key makes the newer one the victim.
	r = newResults(2 * resultShards)
	keys = keysInShard(r, 3)
	storeAnswer(t, r, keys[0], 0)
	storeAnswer(t, r, keys[1], 1)
	storedAnswer(r, keys[0]) // keys[0] becomes most recently used
	storeAnswer(t, r, keys[2], 2)
	if _, ok := storedAnswer(r, keys[1]); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := storedAnswer(r, keys[0]); !ok {
		t.Error("recently touched entry was evicted")
	}
}

// TestResultsStats: the counter block counts lookups by how they were
// answered, and Capacity is the bound Size never exceeds.
func TestResultsStats(t *testing.T) {
	r := newResults(64)
	storeAnswer(t, r, "x", 1)
	for i := 0; i < 2; i++ {
		resp, err := r.answer(context.Background(), "x", time.Now(), func() (Response, error) {
			t.Fatal("stored key searched again")
			return Response{}, nil
		})
		if err != nil || !resp.Cached {
			t.Fatalf("lookup %d: cached=%v err=%v, want a hit", i, resp.Cached, err)
		}
	}
	st := r.stats()
	if st.Hits != 2 || st.Misses != 1 || st.Coalesced != 0 {
		t.Fatalf("hits=%d misses=%d coalesced=%d, want 2/1/0", st.Hits, st.Misses, st.Coalesced)
	}
	if st.Size != 1 || st.Capacity != 64 {
		t.Fatalf("size=%d capacity=%d, want 1/64", st.Size, st.Capacity)
	}
}

// TestCacheCapacityBound: a CacheSize that is not a multiple of the shard
// count still reports a Capacity the cache never exceeds.
func TestCacheCapacityBound(t *testing.T) {
	r := newResults(10)
	for i := 0; i < 1000; i++ {
		storeAnswer(t, r, fmt.Sprintf("k%d", i), float64(i))
	}
	st := r.stats()
	if st.Size > st.Capacity {
		t.Fatalf("size %d exceeds capacity %d", st.Size, st.Capacity)
	}
	if st.Capacity < 10 {
		t.Fatalf("capacity %d below the configured 10", st.Capacity)
	}

	// The same through the engine, which is what /v1/stats reports.
	eng := cachedEngine(t, 10)
	for i := 0; i < 40; i++ { // 40 distinct budgets, each a stored answer
		req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 2 + float64(i)/4}
		if _, err := eng.Run(context.Background(), req); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	est, _ := eng.CacheStats()
	if est.Size > est.Capacity || est.Evictions == 0 {
		t.Fatalf("engine stats %+v: want size ≤ capacity after overfilling", est)
	}
}

func TestResultsClear(t *testing.T) {
	r := newResults(64)
	for i := 0; i < 10; i++ {
		storeAnswer(t, r, fmt.Sprintf("k%d", i), float64(i))
	}
	before := r.stats()
	if before.Size != 10 {
		t.Fatalf("size=%d before clear, want 10", before.Size)
	}
	r.clear()
	st := r.stats()
	if st.Size != 0 {
		t.Fatalf("size=%d after clear, want 0", st.Size)
	}
	if st.Evictions != before.Evictions {
		t.Fatalf("evictions=%d, want %d unchanged (a flush is not capacity pressure)", st.Evictions, before.Evictions)
	}
	if _, ok := storedAnswer(r, "k3"); ok {
		t.Fatal("cleared entry still served")
	}
	// The storage stays usable after a clear.
	storeAnswer(t, r, "fresh", 1)
	if v, ok := storedAnswer(r, "fresh"); !ok || v != 1 {
		t.Fatalf("post-clear store/get = (%v,%v)", v, ok)
	}
}

// hammerResults runs workers goroutines each answering iters lookups over
// keys distinct keys, with every key's search answering its own index, and
// clearing every clearEvery iterations when clearEvery > 0. Run with -race:
// entries may or may not survive, but no answer may ever be corrupt.
func hammerResults(t *testing.T, r *results, workers, iters, keys, clearEvery int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := i % keys
				resp, err := r.answer(context.Background(), fmt.Sprintf("k%d", k), time.Now(), func() (Response, error) {
					return Response{Bound: float64(k)}, nil
				})
				if err != nil || resp.Bound != float64(k) {
					t.Errorf("key %d: answer %v, err %v", k, resp.Bound, err)
					return
				}
				if clearEvery > 0 && i%clearEvery == 0 {
					r.clear()
				}
			}
		}()
	}
	wg.Wait()
}

// TestResultsClearConcurrent interleaves clear with readers and writers.
func TestResultsClearConcurrent(t *testing.T) {
	hammerResults(t, newResults(128), 4, 1000, 50, 100)
}

// TestResultsConcurrent hammers the layer from many goroutines: every lookup
// is accounted exactly once and storage stays within its bound.
func TestResultsConcurrent(t *testing.T) {
	r := newResults(128)
	hammerResults(t, r, 8, 2000, 200, 0)
	st := r.stats()
	if st.Hits+st.Misses+st.Coalesced != 8*2000 {
		t.Fatalf("lookup accounting off: hits=%d misses=%d coalesced=%d", st.Hits, st.Misses, st.Coalesced)
	}
	if st.Size > st.Capacity {
		t.Fatalf("size %d exceeds capacity %d", st.Size, st.Capacity)
	}
}

// TestKeyCoversEveryOption: every Options field except the Tracer changes the
// request key — the key serves the result cache, single-flight and batch
// dedup, so a field it missed would hand one request another's answer.
func TestKeyCoversEveryOption(t *testing.T) {
	eng := cachedEngine(t, 64)
	sn := eng.snap.Load()
	base, err := sn.prepare(Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	baseKey, ok := base.key(sn.info.Fingerprint)
	if !ok {
		t.Fatal("default request has no key")
	}
	typ := reflect.TypeOf(base.opts)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if field.Name == "Tracer" {
			continue
		}
		p := base
		v := reflect.ValueOf(&p.opts).Elem().Field(i)
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.125)
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("Options.%s has kind %s: teach this test (and the key) about it", field.Name, v.Kind())
		}
		k, ok := p.key(sn.info.Generation)
		if !ok || k == baseKey {
			t.Errorf("perturbing Options.%s left the key unchanged", field.Name)
		}
	}

	// The Tracer makes a request unkeyable instead.
	p := base
	p.opts.Tracer = countingTracer{new(atomic.Int32)}
	if _, ok := p.key(sn.info.Generation); ok {
		t.Error("a traced request was keyed")
	}
}

func cacheTestGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("hotel")          // 0
	b.AddNode("cafe", "jazz")   // 1
	b.AddNode("park")           // 2
	b.AddNode("museum", "jazz") // 3
	edges := []struct {
		from, to NodeID
		o, c     float64
	}{
		{0, 1, 0.7, 1.2}, {1, 2, 0.3, 0.8}, {2, 0, 0.5, 1.0},
		{0, 3, 0.9, 0.9}, {3, 2, 0.4, 1.1}, {2, 3, 0.4, 1.1},
		{1, 3, 0.6, 0.7}, {3, 1, 0.6, 0.7},
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

func cachedEngine(t testing.TB, size int) *Engine {
	t.Helper()
	eng, err := NewEngine(cacheTestGraph(t), &EngineConfig{CacheSize: size})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	settle(eng) // hits and misses are counted on one snapshot
	return eng
}

func TestCacheHitReturnsSameAnswer(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}

	first, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first.Cached {
		t.Fatal("first run reported a cache hit")
	}
	second, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run (second): %v", err)
	}
	if !second.Cached {
		t.Fatal("second identical run missed the cache")
	}
	if second.Best().Objective != first.Best().Objective ||
		second.Best().Budget != first.Best().Budget ||
		len(second.Best().Nodes) != len(first.Best().Nodes) {
		t.Fatalf("cached response differs: %v vs %v", second.Best(), first.Best())
	}
	st, ok := eng.CacheStats()
	if !ok {
		t.Fatal("CacheStats reported disabled")
	}
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 size=1", st)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	eng, err := NewEngine(cacheTestGraph(t), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, ok := eng.CacheStats(); ok {
		t.Fatal("cache enabled without CacheSize")
	}
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	for i := 0; i < 2; i++ {
		resp, err := eng.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if resp.Cached {
			t.Fatal("Cached set on an uncached engine")
		}
	}
}

// TestCachedRoutesImmune: a caller scribbling over a returned route must not
// corrupt what later callers receive.
func TestCachedRoutesImmune(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}

	reference, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantNodes := append([]NodeID(nil), reference.Best().Nodes...)

	// Vandalize both a miss-produced and a hit-produced response.
	for i := 0; i < 2; i++ {
		resp, err := eng.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for j := range resp.Routes {
			for k := range resp.Routes[j].Nodes {
				resp.Routes[j].Nodes[k] = -1
			}
			resp.Routes[j].Objective = math.NaN()
		}
	}

	final, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !final.Cached {
		t.Fatal("expected a cache hit")
	}
	got := final.Best().Nodes
	if len(got) != len(wantNodes) {
		t.Fatalf("cached route corrupted: %v, want %v", got, wantNodes)
	}
	for i := range got {
		if got[i] != wantNodes[i] {
			t.Fatalf("cached route corrupted: %v, want %v", got, wantNodes)
		}
	}
}

func TestCacheKeyDistinguishesRequests(t *testing.T) {
	eng := cachedEngine(t, 64)
	base := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	if _, err := eng.Run(context.Background(), base); err != nil {
		t.Fatalf("Run: %v", err)
	}

	epsOpts := DefaultOptions()
	epsOpts.Epsilon = 0.25
	variants := []Request{
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 7},         // budget differs
		{From: 0, To: 2, Keywords: []string{"jazz", "park"}, Budget: 6}, // keywords differ
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6, K: 2},   // k differs
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6, // algorithm differs
			Algorithm: AlgorithmOSScaling},
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6, Options: &epsOpts}, // options differ
	}
	for i, v := range variants {
		resp, err := eng.Run(context.Background(), v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if resp.Cached {
			t.Fatalf("variant %d wrongly hit the cache", i)
		}
	}
}

// TestCacheHitRespectsCancelledContext: a dead context must fail exactly as
// it does on the search path — a warm cache entry must not outrank
// cancellation.
func TestCacheHitRespectsCancelledContext(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatalf("warm: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cached run with cancelled ctx: err=%v, want context.Canceled", err)
	}
}

// TestCacheNegativeResult: a proven-infeasible query (ErrNoRoute) is as
// expensive as a found route and just as deterministic, so it must be
// cached — the second identical run answers from the cache, still carrying
// ErrNoRoute.
func TestCacheNegativeResult(t *testing.T) {
	eng := cachedEngine(t, 64)
	// Budget 0.1 is below every edge budget: provably no feasible route.
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 0.1}

	first, err := eng.Run(context.Background(), req)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("first err = %v, want ErrNoRoute", err)
	}
	if first.Cached {
		t.Fatal("first run reported a cache hit")
	}
	second, err := eng.Run(context.Background(), req)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("cached err = %v, want ErrNoRoute", err)
	}
	if !second.Cached {
		t.Fatal("repeated infeasible query paid a full search (negative result not cached)")
	}
	if len(second.Routes) != 0 {
		t.Fatalf("negative hit carries routes: %v", second.Routes)
	}
	st, _ := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 size=1", st)
	}
}

// TestCacheNegativeRespectsCancelledContext: a warm negative entry must not
// outrank cancellation — the dead-context path behaves exactly as a search
// would.
func TestCacheNegativeRespectsCancelledContext(t *testing.T) {
	eng := cachedEngine(t, 64)
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 0.1}
	if _, err := eng.Run(context.Background(), req); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("warm err = %v, want ErrNoRoute", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Run(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrNoRoute) {
		t.Fatal("cancelled run leaked the cached ErrNoRoute")
	}
}

// TestCacheBudgetExceededResult: a greedy overshoot (routes plus
// ErrBudgetExceeded) is deterministic and is cached like any definitive
// outcome; the hit replays both the routes and the sentinel.
func TestCacheBudgetExceededResult(t *testing.T) {
	eng := cachedEngine(t, 64)
	// The only jazz route 0→1→2 costs budget 2.0 > 1: greedy overshoots.
	req := Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 1, Algorithm: AlgorithmGreedy}

	first, err := eng.Run(context.Background(), req)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("first err = %v, want ErrBudgetExceeded", err)
	}
	if first.Cached || len(first.Routes) == 0 {
		t.Fatalf("first run = cached %v routes %d", first.Cached, len(first.Routes))
	}
	second, err := eng.Run(context.Background(), req)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("cached err = %v, want ErrBudgetExceeded", err)
	}
	if !second.Cached {
		t.Fatal("repeated overshoot query paid a full search")
	}
	if len(second.Routes) != len(first.Routes) || second.Best().Budget != first.Best().Budget {
		t.Fatalf("cached overshoot differs: %+v vs %+v", second.Routes, first.Routes)
	}
}

// TestCacheSkipsNonDefinitiveErrors: a search cut short (ErrSearchLimit
// here, context errors likewise) proved nothing and must not poison the
// cache with a false negative.
func TestCacheSkipsNonDefinitiveErrors(t *testing.T) {
	eng := cachedEngine(t, 64)
	opts := DefaultOptions()
	opts.MaxExpansions = 1
	req := Request{From: 0, To: 2, Keywords: []string{"jazz", "park"}, Budget: 6, Options: &opts}
	if _, err := eng.Run(context.Background(), req); !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("err = %v, want ErrSearchLimit", err)
	}
	resp, err := eng.Run(context.Background(), req)
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("second err = %v, want ErrSearchLimit", err)
	}
	if resp.Cached {
		t.Fatal("non-definitive failure was served from the cache")
	}
	st, _ := eng.CacheStats()
	if st.Size != 0 {
		t.Fatalf("cache size = %d, want 0 (nothing definitive happened)", st.Size)
	}
}

// TestCacheConcurrentConsistency hammers one engine from many goroutines
// with overlapping identical and distinct requests; run under -race. After
// the dust settles, hit+miss must equal the number of cacheable lookups and
// every response must carry the right answer for its request.
func TestCacheConcurrentConsistency(t *testing.T) {
	eng := cachedEngine(t, 256)
	requests := []Request{
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6},
		{From: 0, To: 2, Keywords: []string{"park"}, Budget: 6},
		{From: 1, To: 3, Keywords: []string{"jazz"}, Budget: 6},
		{From: 0, To: 0, Keywords: []string{"jazz", "park"}, Budget: 8},
	}
	// Reference answers, computed serially first (also warms every key, so
	// the parallel phase is all hits).
	want := make([]float64, len(requests))
	for i, req := range requests {
		resp, err := eng.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		want[i] = resp.Best().Objective
	}
	warm, _ := eng.CacheStats()

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				idx := (w + i) % len(requests)
				resp, err := eng.Run(context.Background(), requests[idx])
				if err != nil {
					errs <- err
					return
				}
				if resp.Best().Objective != want[idx] {
					t.Errorf("request %d: objective %v, want %v", idx, resp.Best().Objective, want[idx])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent run: %v", err)
	}

	st, _ := eng.CacheStats()
	lookups := st.Hits + st.Misses - warm.Hits - warm.Misses
	if lookups != workers*iters {
		t.Fatalf("lookup accounting: %d, want %d", lookups, workers*iters)
	}
	if st.Hits-warm.Hits != workers*iters {
		t.Fatalf("warmed keys should all hit: hits=%d misses=%d (after warm %d/%d)",
			st.Hits, st.Misses, warm.Hits, warm.Misses)
	}
}
