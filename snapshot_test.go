package kor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kor/internal/core"
)

// Tests for the snapshot subsystem: Engine.Swap and Engine.Patch must be
// atomic (in-flight queries finish on the snapshot they started with, new
// queries see the new graph), the result cache must never serve an answer
// across a fingerprint change, and swaps must evict the dead entries. Run
// with -race: TestSwapUnderLoad races queries against swaps and patches.

// swapCity builds the cache_test city with a configurable objective on the
// hotel→cafe edge, so two graphs differing only in that attribute give
// different best objectives for the reference request below.
func swapCity(t testing.TB, obj01 float64) *Graph {
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
		{0, 1, obj01, 1.2}, {1, 2, 0.3, 0.8}, {2, 0, 0.5, 1.0},
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

// swapRequest is the reference query: best route 0→1→2, objective
// obj01 + 0.3.
func swapRequest() Request {
	return Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}
}

func TestSwapServesNewGraph(t *testing.T) {
	gA, gB := swapCity(t, 0.7), swapCity(t, 0.1)
	// Lazy: no table swap moves the generations counted here.
	eng, err := NewEngine(gA, &EngineConfig{Oracle: OracleLazy})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before.Best().Objective != 1.0 {
		t.Fatalf("objective = %v, want 1.0", before.Best().Objective)
	}
	if before.Snapshot.Fingerprint != gA.Fingerprint() || before.Snapshot.Generation != 1 {
		t.Fatalf("snapshot = %+v, want gA generation 1", before.Snapshot)
	}

	info, err := eng.Swap(gB)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if info.Generation != 2 || info.Fingerprint != gB.Fingerprint() {
		t.Fatalf("swap info = %+v", info)
	}
	if eng.Graph() != gB {
		t.Fatal("Graph() does not return the swapped graph")
	}
	after, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run after swap: %v", err)
	}
	if after.Best().Objective != 0.4 {
		t.Fatalf("post-swap objective = %v, want 0.4", after.Best().Objective)
	}
	if after.Snapshot.Fingerprint != gB.Fingerprint() {
		t.Fatalf("post-swap snapshot = %+v", after.Snapshot)
	}
	if before.Graph() != gA || after.Graph() != gB {
		t.Fatal("Response.Graph() does not pin the computing snapshot's graph")
	}
}

func TestPatchAppliesDelta(t *testing.T) {
	// Lazy: no table swap moves the snapshot compared below.
	eng, err := NewEngine(swapCity(t, 0.7), &EngineConfig{Oracle: OracleLazy})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	info, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}})
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if info.Generation != 2 {
		t.Fatalf("generation = %d, want 2", info.Generation)
	}
	// The patched graph has the content of swapCity(0.1) — byte-identical
	// CSR layout, so the fingerprints must agree.
	if want := swapCity(t, 0.1).Fingerprint(); info.Fingerprint != want {
		t.Fatalf("fingerprint = %x, want %x", info.Fingerprint, want)
	}
	resp, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resp.Best().Objective != 0.4 {
		t.Fatalf("objective = %v, want 0.4", resp.Best().Objective)
	}

	// An empty delta is a no-op: same snapshot, no generation bump.
	same, err := eng.Patch(Delta{})
	if err != nil {
		t.Fatalf("empty Patch: %v", err)
	}
	if same != info {
		t.Fatalf("empty patch moved the snapshot: %+v vs %+v", same, info)
	}

	// A bad delta leaves the snapshot in place and wraps ErrBadDelta.
	if _, err := eng.Patch(Delta{RemoveEdges: []EdgeRef{{From: 1, To: 0}}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("bad patch err = %v, want ErrBadDelta", err)
	}
	if eng.Snapshot() != info {
		t.Fatal("failed patch changed the snapshot")
	}
}

// TestInFlightQueryFinishesOnOldSnapshot holds a query mid-search with a
// blocking tracer, swaps the graph underneath it, and verifies the query
// completes against the snapshot it started on while the next query sees
// the new graph.
func TestInFlightQueryFinishesOnOldSnapshot(t *testing.T) {
	gA, gB := swapCity(t, 0.7), swapCity(t, 0.1)
	eng, err := NewEngine(gA, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	tr := &blockingTracer{started: make(chan struct{}), release: make(chan struct{})}
	opts := DefaultOptions()
	opts.Tracer = tr
	req := swapRequest()
	req.Options = &opts

	type outcome struct {
		resp Response
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := eng.Run(context.Background(), req)
		done <- outcome{resp, err}
	}()

	<-tr.started // the search is now between label expansions
	if _, err := eng.Swap(gB); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	close(tr.release)

	got := <-done
	if got.err != nil {
		t.Fatalf("in-flight Run: %v", got.err)
	}
	if got.resp.Snapshot.Fingerprint != gA.Fingerprint() {
		t.Fatalf("in-flight query snapshot = %x, want the pre-swap %x", got.resp.Snapshot.Fingerprint, gA.Fingerprint())
	}
	if got.resp.Best().Objective != 1.0 {
		t.Fatalf("in-flight objective = %v, want the pre-swap 1.0", got.resp.Best().Objective)
	}
	// Response.Graph pins the graph that computed the routes: rendering the
	// in-flight response (names, positions, GeoJSON) must use gA even
	// though the engine has moved on — Engine.Graph() already returns gB.
	if got.resp.Graph() != gA {
		t.Fatal("in-flight Response.Graph() is not the pre-swap graph")
	}
	if eng.Graph() != gB {
		t.Fatal("Engine.Graph() did not move to the swapped graph")
	}

	fresh, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("post-swap Run: %v", err)
	}
	if fresh.Best().Objective != 0.4 || fresh.Snapshot.Fingerprint != gB.Fingerprint() {
		t.Fatalf("post-swap response = %v on %x", fresh.Best().Objective, fresh.Snapshot.Fingerprint)
	}
}

// blockingTracer signals the first label event and then blocks every event
// until released, pinning a search mid-flight.
type blockingTracer struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (bt *blockingTracer) Trace(core.TraceEvent) {
	bt.once.Do(func() { close(bt.started) })
	<-bt.release
}

// TestSwapEvictsCache: a swap clears the result cache — the old entries are
// unreachable (their keys carry a dead generation) and must stop
// occupying LRU capacity — and the same request misses, recomputes on the
// new graph, and re-caches.
func TestSwapEvictsCache(t *testing.T) {
	gA, gB := swapCity(t, 0.7), swapCity(t, 0.1)
	eng, err := NewEngine(gA, &EngineConfig{CacheSize: 64})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Each swap below is followed by its table swap, which clears the cache
	// again; settling lets the hits counted here land on the tables.
	settle(eng)
	req := swapRequest()
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatalf("warm: %v", err)
	}
	warm, _ := eng.CacheStats()
	if warm.Size != 1 {
		t.Fatalf("size = %d before swap, want 1", warm.Size)
	}

	if _, err := eng.Swap(gB); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	settle(eng)
	st, _ := eng.CacheStats()
	if st.Size != 0 {
		t.Fatalf("size = %d after swap, want 0 (evict-on-swap)", st.Size)
	}
	if st.Evictions != warm.Evictions {
		t.Fatalf("evictions = %d, want %d unchanged (a swap flush is not LRU pressure)", st.Evictions, warm.Evictions)
	}

	// The identical request must not be served from the pre-swap cache.
	resp, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("post-swap Run: %v", err)
	}
	if resp.Cached {
		t.Fatal("post-swap query served from the pre-swap cache")
	}
	if resp.Best().Objective != 0.4 {
		t.Fatalf("post-swap objective = %v, want 0.4", resp.Best().Objective)
	}
	hit, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("post-swap rerun: %v", err)
	}
	if !hit.Cached || hit.Best().Objective != 0.4 {
		t.Fatalf("post-swap rerun = cached %v objective %v", hit.Cached, hit.Best().Objective)
	}
	// Swapping back to the original content also starts cold: eviction is
	// by swap, not by fingerprint comparison.
	if _, err := eng.Swap(gA); err != nil {
		t.Fatalf("swap back: %v", err)
	}
	settle(eng)
	back, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("swap-back Run: %v", err)
	}
	if back.Cached || back.Best().Objective != 1.0 {
		t.Fatalf("swap-back response = cached %v objective %v, want fresh 1.0", back.Cached, back.Best().Objective)
	}
}

// TestSwapUnderLoad races queries against Swap and Patch (run with -race).
// Every response must be internally consistent: the objective must be the
// right answer for the exact snapshot fingerprint the response reports,
// whether it came from a search or from the cache — which proves a cached
// entry is never served across a fingerprint change.
func TestSwapUnderLoad(t *testing.T) {
	gA, gB, gC := swapCity(t, 0.7), swapCity(t, 0.1), swapCity(t, 0.5)
	want := map[uint64]float64{
		gA.Fingerprint(): 1.0,
		gB.Fingerprint(): 0.4,
		gC.Fingerprint(): 0.8,
	}
	eng, err := NewEngine(gA, &EngineConfig{CacheSize: 128})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := swapRequest()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := eng.Run(context.Background(), req)
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				wantObj, ok := want[resp.Snapshot.Fingerprint]
				if !ok {
					t.Errorf("response reports unknown fingerprint %x", resp.Snapshot.Fingerprint)
					return
				}
				if got := resp.Best().Objective; got != wantObj {
					t.Errorf("objective %v for fingerprint %x (cached=%v), want %v — answer served across a snapshot change",
						got, resp.Snapshot.Fingerprint, resp.Cached, wantObj)
					return
				}
			}
		}()
	}

	// Interleave whole-graph swaps with incremental patches.
	for i := 0; i < 30 && !t.Failed(); i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = eng.Swap(gB)
		case 1:
			_, err = eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.5, Budget: 1.2}}})
		case 2:
			_, err = eng.Swap(gA)
		}
		if err != nil {
			t.Errorf("swap %d: %v", i, err)
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	if info := eng.Snapshot(); info.Generation < 30 {
		t.Errorf("generation = %d, want ≥ 30 after 30 swaps", info.Generation)
	}
}

// TestEngineStatsPerSnapshot: Stats is memoized per snapshot and tracks
// swaps — the graph summary and the snapshot identity come from one
// consistent read.
func TestEngineStatsPerSnapshot(t *testing.T) {
	// Lazy: no table swap moves the generations counted here.
	eng, err := NewEngine(swapCity(t, 0.7), &EngineConfig{Oracle: OracleLazy})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	st1, info1 := eng.Stats()
	if st1.Nodes != 4 || st1.Edges != 8 || info1.Generation != 1 {
		t.Fatalf("stats = %+v %+v", st1, info1)
	}
	if again, _ := eng.Stats(); again != st1 {
		t.Fatalf("repeated Stats differ: %+v vs %+v", again, st1)
	}

	if _, err := eng.Patch(Delta{AddEdges: []EdgePatch{{From: 2, To: 1, Objective: 0.2, Budget: 0.2}}}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	st2, info2 := eng.Stats()
	if st2.Edges != 9 || info2.Generation != 2 {
		t.Fatalf("post-patch stats = %+v %+v, want 9 edges at generation 2", st2, info2)
	}
	if st2.MinObjective != 0.2 {
		t.Fatalf("post-patch MinObjective = %v, want 0.2", st2.MinObjective)
	}
}
