package kor

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/graph"
	"kor/internal/metrics"
)

// Tests for the background table build (snapshot.go): a table engine answers
// at once from the lazy oracle, one build per engine fills the matrix for
// the current edges, a newer edge change cancels it, and the swap moves the
// generation so no lazy answer outlives it. Run with -race.

// settle waits until eng's latest table build has ended, its tables
// published or dropped. Each build waits for the one before it, so every
// earlier build has ended too.
func settle(eng *Engine) {
	eng.swapMu.Lock()
	b := eng.build
	eng.swapMu.Unlock()
	if b != nil {
		<-b.done
	}
}

// heldBuilds is a build hook that holds every table build at the start of
// its fill until released or cancelled. It records the builds it saw, and
// whether one entered while an earlier one had not ended.
type heldBuilds struct {
	release chan struct{}
	entered chan *tableBuild

	mu      sync.Mutex
	seen    []*tableBuild
	overlap bool
}

func newHeldBuilds() *heldBuilds {
	return &heldBuilds{release: make(chan struct{}), entered: make(chan *tableBuild, 16)}
}

func (h *heldBuilds) hook(b *tableBuild) {
	h.mu.Lock()
	for _, p := range h.seen {
		select {
		case <-p.done:
		default:
			h.overlap = true
		}
	}
	h.seen = append(h.seen, b)
	h.mu.Unlock()
	h.entered <- b
	select {
	case <-h.release:
	case <-b.stop:
	}
}

// heldEngine returns a matrix engine over g whose builds h holds, once its
// boot build is held.
func heldEngine(t *testing.T, g *Graph, cacheSize int) (*Engine, *heldBuilds) {
	t.Helper()
	h := newHeldBuilds()
	eng, err := newEngine(g, &EngineConfig{Oracle: OracleDense, CacheSize: cacheSize}, h.hook)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	<-h.entered
	return eng, h
}

// wantPending fails unless the lazy oracle answers with the matrix pending.
func wantPending(t *testing.T, eng *Engine) {
	t.Helper()
	if ost := eng.OracleStatus(); ost.Kind != OracleKindLazy || ost.Pending != OracleKindMatrix || ost.Since.IsZero() {
		t.Fatalf("OracleStatus = %+v, want lazy with the matrix pending", ost)
	}
	if _, ok := eng.snap.Load().searcher.Oracle().(*apsp.LazyOracle); !ok {
		t.Fatalf("a pending engine answers from %T", eng.snap.Load().searcher.Oracle())
	}
}

// wantMatrix fails unless the matrix answers and no build is pending.
func wantMatrix(t *testing.T, eng *Engine) *apsp.MatrixOracle {
	t.Helper()
	if ost := eng.OracleStatus(); ost.Kind != OracleKindMatrix || ost.Pending != "" || ost.Since.IsZero() {
		t.Fatalf("OracleStatus = %+v, want the matrix", ost)
	}
	m, ok := eng.snap.Load().searcher.Oracle().(*apsp.MatrixOracle)
	if !ok {
		t.Fatalf("the engine answers from %T, want the matrix", eng.snap.Load().searcher.Oracle())
	}
	return m
}

// TestTableBuildAnswers: while the build is held, a matrix engine answers
// byte for byte as a lazy engine does; once the tables are published, as a
// searcher over a matrix built for the same graph.
func TestTableBuildAnswers(t *testing.T) {
	road := SyntheticRoadNetwork(5, 150)
	pool := []string{"tag0000", "tag0001", "tag0002", "tag0003", "tag0005"}
	algorithms := []Algorithm{AlgorithmBucketBound, AlgorithmOSScaling, AlgorithmGreedy, AlgorithmTopK}
	rng := rand.New(rand.NewSource(48))
	var roadRequests []Request
	for i := 0; i < 60; i++ {
		req := randomRequest(rng, road, pool)
		req.Algorithm = algorithms[i%len(algorithms)]
		if req.Algorithm == AlgorithmTopK {
			req.K = 3
		}
		roadRequests = append(roadRequests, req)
	}
	var cityRequests []Request
	for _, algo := range append(algorithms, AlgorithmExact) {
		req := swapRequest()
		req.Algorithm = algo
		cityRequests = append(cityRequests, req)
	}
	for _, c := range []struct {
		name     string
		g        *Graph
		requests []Request
	}{
		{"city", swapCity(t, 0.7), cityRequests},
		{"road", road, roadRequests},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, h := heldEngine(t, c.g, 64)
			lazy, err := NewEngine(c.g, &EngineConfig{Oracle: OracleLazy})
			if err != nil {
				t.Fatal(err)
			}
			wantPending(t, eng)
			answered := 0
			for _, req := range c.requests {
				got, want := answer(eng, req), answer(lazy, req)
				if got != want {
					t.Fatalf("%+v before the swap:\nengine %s\nlazy   %s", req, got, want)
				}
				if resp, err := eng.Run(context.Background(), req); err == nil && resp.Best().Feasible {
					answered++
				}
			}
			if answered < len(c.requests)/3 {
				t.Fatalf("%d of %d requests feasible: the stream no longer exercises routes", answered, len(c.requests))
			}

			close(h.release)
			settle(eng)
			wantMatrix(t, eng)
			ref := core.NewSearcher(c.g, apsp.NewMatrixOracle(c.g), graph.NewMemIndex(c.g))
			for _, req := range c.requests {
				resp, err := eng.Run(context.Background(), req)
				p, perr := eng.snap.Load().prepare(req)
				if perr != nil {
					t.Fatal(perr)
				}
				res, rerr := ref.Run(context.Background(), p.algo, p.q, p.opts)
				got := fmt.Sprintf("%+v err=%v", resp.Routes, err)
				want := fmt.Sprintf("%+v err=%v", res.Routes, rerr)
				if got != want {
					t.Fatalf("%+v after the swap:\nengine %s\nmatrix %s", req, got, want)
				}
			}
		})
	}
}

// TestEdgePatchDuringBuild: an edge patch made while the build is held shows
// in the next Run, and the tables that take over are the patched graph's.
func TestEdgePatchDuringBuild(t *testing.T) {
	eng, h := heldEngine(t, swapCity(t, 0.7), 0)
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	wantPending(t, eng)
	resp, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := resp.Best().Objective; got != 0.1+0.3 {
		t.Fatalf("objective right after the patch = %v, want %v", got, 0.1+0.3)
	}
	close(h.release)
	settle(eng)
	m := wantMatrix(t, eng)
	if os, _, _ := m.MinObjective(0, 1); os != 0.1 {
		t.Fatalf("the published matrix has τ(0,1) = %v, want the patched 0.1", os)
	}
	if resp, err := eng.Run(context.Background(), swapRequest()); err != nil || resp.Best().Objective != 0.1+0.3 {
		t.Fatalf("Run on the matrix = %v, %v; want objective %v", resp.Routes, err, 0.1+0.3)
	}
}

// TestEdgePatchesSupersedeBuild: two edge patches in a row cancel the builds
// for the edges they replace; no build starts filling before the one before
// it has ended, and the one matrix published is the last graph's.
func TestEdgePatchesSupersedeBuild(t *testing.T) {
	eng, h := heldEngine(t, swapCity(t, 0.7), 0)
	for _, obj := range []float64{0.1, 0.2} {
		if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: obj, Budget: 1.2}}}); err != nil {
			t.Fatalf("Patch: %v", err)
		}
	}
	last := eng.Graph().DistanceFingerprint()
	for b := range h.entered {
		if b.fp == last {
			break
		}
	}
	h.mu.Lock()
	live := 0
	for _, b := range h.seen {
		select {
		case <-b.done:
		default:
			live++
		}
	}
	overlap := h.overlap
	h.mu.Unlock()
	if live != 1 || overlap {
		t.Fatalf("%d builds not ended while the last one is held (overlap %v), want 1", live, overlap)
	}
	close(h.release)
	settle(eng)
	m := wantMatrix(t, eng)
	if os, _, _ := m.MinObjective(0, 1); os != 0.2 {
		t.Fatalf("the published matrix has τ(0,1) = %v, want the last patch's 0.2", os)
	}
	// Boot, two patches, one table swap: no cancelled build published.
	if gen := eng.Snapshot().Generation; gen != 4 {
		t.Fatalf("generation = %d, want 4", gen)
	}
}

// TestKeywordPatchDuringBuild: a keyword-only patch during the build keeps
// the pending build and its onset, and the tables are published on the
// patched graph, keywords and all.
func TestKeywordPatchDuringBuild(t *testing.T) {
	eng, h := heldEngine(t, swapCity(t, 0.7), 0)
	before := eng.OracleStatus()
	info, err := eng.Patch(Delta{RemoveKeywords: []KeywordPatch{{Node: 1, Keywords: []string{"jazz"}}}})
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if ost := eng.OracleStatus(); ost != before {
		t.Fatalf("keyword patch moved OracleStatus from %+v to %+v", before, ost)
	}
	close(h.release)
	settle(eng)
	wantMatrix(t, eng)
	if fp := eng.Snapshot().Fingerprint; fp != info.Fingerprint {
		t.Fatalf("tables published on %x, want the keyword-patched graph %x", fp, info.Fingerprint)
	}
	resp, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The cafe has no jazz any more: the route detours through the museum.
	if got := resp.Best().Objective; got != 0.9+0.4 {
		t.Fatalf("objective after the swap = %v, want %v", got, 0.9+0.4)
	}
}

// TestLazyAnswerNotServedAfterSwap: an answer cached on the lazy oracle, and
// one a search on the lazy snapshot re-inserts after the swap, are both
// unreachable once the tables answer: the request is searched afresh on a
// later generation.
func TestLazyAnswerNotServedAfterSwap(t *testing.T) {
	eng, h := heldEngine(t, swapCity(t, 0.7), 64)
	req := swapRequest()
	lazy, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit, err := eng.Run(context.Background(), req); err != nil || !hit.Cached {
		t.Fatalf("repeat on the lazy oracle: cached %v, err %v", hit.Cached, err)
	}

	// A second request parks mid-search on the lazy snapshot across the swap.
	parkedReq := req
	parkedReq.Algorithm = AlgorithmOSScaling
	release := make(chan struct{})
	parked, _ := parkFirstSearch(eng, release)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), parkedReq)
		done <- err
	}()
	<-parked
	close(h.release)
	settle(eng)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wantMatrix(t, eng)

	for _, r := range []Request{req, parkedReq} {
		resp, err := eng.Run(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || resp.Snapshot.Generation <= lazy.Snapshot.Generation {
			t.Fatalf("%s after the swap: cached %v on generation %d, want a fresh search after generation %d",
				r.Algorithm, resp.Cached, resp.Snapshot.Generation, lazy.Snapshot.Generation)
		}
	}
}

// TestCloseDuringBuild: Close cancels a held build and returns only once its
// goroutine has, and a patch after Close starts no build.
func TestCloseDuringBuild(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHeldBuilds()
	eng, err := newEngine(swapCity(t, 0.7), &EngineConfig{Oracle: OracleDense}, h.hook)
	if err != nil {
		t.Fatal(err)
	}
	b := <-h.entered
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.done:
	default:
		t.Fatal("Close returned before the build ended")
	}
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatal(err)
	}
	eng.swapMu.Lock()
	started := eng.build != b
	eng.swapMu.Unlock()
	if started {
		t.Fatal("a patch after Close started a build")
	}
	// A goroutine that closed done may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the engine", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOracleMetricsFollowBuild: the oracle-kind gauge names the lazy oracle
// while the build is held, and the matrix once it is published.
func TestOracleMetricsFollowBuild(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newHeldBuilds()
	eng, err := newEngine(swapCity(t, 0.7), &EngineConfig{Metrics: reg}, h.hook)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	<-h.entered
	for _, c := range []struct {
		stage string
		want  []string
	}{
		{"held", []string{`kor_engine_oracle_kind{kind="lazy"} 1`, `kor_engine_oracle_kind{kind="matrix"} 0`}},
		{"published", []string{`kor_engine_oracle_kind{kind="lazy"} 0`, `kor_engine_oracle_kind{kind="matrix"} 1`}},
	} {
		if c.stage == "published" {
			close(h.release)
			settle(eng)
		}
		out := exposition(t, reg)
		for _, want := range c.want {
			if !strings.Contains(out, want+"\n") {
				t.Errorf("%s: exposition missing %q", c.stage, want)
			}
		}
	}
}
