package kor

import (
	"context"
	"fmt"
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
	eng := newTestEngine(t, handCity(t, 0.7), &EngineConfig{CacheSize: 10})
	for i := 0; i < 40; i++ { // 40 distinct budgets, each a stored answer
		req := cityQuery
		req.Budget = 2 + float64(i)/4
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
	eng := newTestEngine(t, handCity(t, 0.7), nil)
	sn := eng.snap.Load()
	base, err := sn.prepare(cityQuery)
	if err != nil {
		t.Fatal(err)
	}
	baseKey, ok := base.key(sn.info.Generation)
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
