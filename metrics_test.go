package kor

import (
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"kor/internal/metrics"
)

// metricsTestEngine builds the façade test city engine with a registry and a
// small cache attached.
func metricsTestEngine(t *testing.T) (*Engine, *metrics.Registry) {
	t.Helper()
	b := NewBuilder()
	hotel := b.AddNode("hotel")
	cafe := b.AddNode("cafe", "jazz")
	park := b.AddNode("park")
	if err := b.AddEdge(hotel, cafe, 0.7, 1.2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(cafe, park, 0.3, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(park, hotel, 0.5, 1.0); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	eng, err := NewEngine(b.MustBuild(), &EngineConfig{CacheSize: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return eng, reg
}

func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEngineMetrics drives Run through its outcome classes and checks the
// registry reflects each: per-algorithm/outcome totals, latency histogram
// counts, cache hit/miss, and the snapshot-generation gauge following Patch.
func TestEngineMetrics(t *testing.T) {
	eng, reg := metricsTestEngine(t)
	ctx := context.Background()

	ok := Request{From: 0, To: 0, Keywords: []string{"jazz"}, Budget: 4}
	if _, err := eng.Run(ctx, ok); err != nil {
		t.Fatal(err)
	}
	// Identical request again: a cache hit, still counted as an ok request.
	if resp, err := eng.Run(ctx, ok); err != nil || !resp.Cached {
		t.Fatalf("second run cached=%v err=%v, want cached hit", resp.Cached, err)
	}
	// Infeasible budget → no_route.
	if _, err := eng.Run(ctx, Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 0.01}); err == nil {
		t.Fatal("expected no_route error")
	}
	// Unknown keyword fails before the search but after algorithm resolution.
	if _, err := eng.Run(ctx, Request{From: 0, To: 2, Keywords: []string{"spa"}, Budget: 4}); err == nil {
		t.Fatal("expected unknown keyword error")
	}
	// Unknown algorithm fails before anything is resolved.
	if _, err := eng.Run(ctx, Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 4, Algorithm: "warp"}); err == nil {
		t.Fatal("expected unknown algorithm error")
	}

	out := exposition(t, reg)
	for _, want := range []string{
		`kor_engine_requests_total{algorithm="bucketbound",outcome="ok"} 2`,
		`kor_engine_requests_total{algorithm="bucketbound",outcome="no_route"} 1`,
		`kor_engine_requests_total{algorithm="bucketbound",outcome="unknown_keyword"} 1`,
		`kor_engine_requests_total{algorithm="invalid",outcome="bad_query"} 1`,
		`kor_engine_cache_requests_total{result="hit"} 1`,
		`kor_engine_cache_requests_total{result="miss"} 2`,
		`kor_engine_cache_size 2`,
		`kor_engine_snapshot_generation 1`,
		`kor_engine_request_seconds_count{algorithm="bucketbound"} 4`,
		// The auto-selected matrix oracle computes nothing on demand.
		`kor_engine_oracle_memo_hits_total 0`,
		`kor_engine_oracle_memo_misses_total 0`,
		`kor_engine_oracle_memo_evictions_total 0`,
		`kor_engine_oracle_memo_resident_bytes 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	// A patch advances the generation gauge and empties the cache gauge.
	if _, err := eng.Patch(Delta{AddKeywords: []KeywordPatch{{Node: 2, Keywords: []string{"view"}}}}); err != nil {
		t.Fatal(err)
	}
	out = exposition(t, reg)
	if !strings.Contains(out, "kor_engine_snapshot_generation 2\n") {
		t.Errorf("generation gauge did not follow the patch:\n%s", out)
	}
	if !strings.Contains(out, "kor_engine_cache_size 0\n") {
		t.Errorf("cache size gauge did not reflect the swap flush:\n%s", out)
	}
}

// gaugeValue extracts a plain (unlabelled) gauge's value from an exposition.
func gaugeValue(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("gauge %s carries unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("gauge %s missing from exposition:\n%s", name, out)
	return 0
}

// TestEngineMetricsOracleMemo: the lazy oracle keeps no memo, so on it the
// memo series read 0 while the plan-sweep counter grows with every search.
func TestEngineMetricsOracleMemo(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, err := NewEngine(swapCity(t, 0.7), &EngineConfig{Oracle: OracleLazy, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var sweeps []float64
	for i := 0; i < 2; i++ { // no result cache: the repeat searches again
		if _, err := eng.Run(context.Background(), swapRequest()); err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, gaugeValue(t, exposition(t, reg), "kor_engine_plan_sweeps_total"))
	}
	if sweeps[0] <= 0 || sweeps[1] <= sweeps[0] {
		t.Errorf("plan sweeps after one and two searches = %v, want a counter that grows with each", sweeps)
	}
	out := exposition(t, reg)
	for _, name := range []string{
		"kor_engine_oracle_memo_hits_total",
		"kor_engine_oracle_memo_misses_total",
		"kor_engine_oracle_memo_evictions_total",
		"kor_engine_oracle_memo_resident_bytes",
	} {
		if got := gaugeValue(t, out, name); got != 0 {
			t.Errorf("%s = %v on the lazy oracle, which keeps no memo", name, got)
		}
	}
}

// TestEngineMetricsSliceMemoResidentBytes: on the partitioned oracle loaded
// from a distance index the resident-bytes gauge counts what the slices have
// assembled — the cells one query's lookups reached — not entries × the worst
// case the capacity is derived from: it stays below even the 16 B per node a
// fully assembled slice holds in scores alone.
func TestEngineMetricsSliceMemoResidentBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	g := SyntheticRoadNetwork(2012, 600)
	path := filepath.Join(t.TempDir(), "dist.kori")
	if _, err := WriteDistIndex(path, g, 24); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// A query that reads τ into its target: σ is read first, and a query
	// whose σ tail rules every node out builds the σ slice alone.
	req := Request{From: 0, To: 5, Keywords: []string{g.Vocab().Name(0)}, Budget: 20}
	if _, err := eng.Run(context.Background(), req); err != nil && !errors.Is(err, ErrNoRoute) {
		t.Fatal(err)
	}
	out := exposition(t, reg)
	entries := gaugeValue(t, out, "kor_engine_oracle_memo_misses_total")
	if entries < 2 || gaugeValue(t, out, "kor_engine_oracle_memo_evictions_total") != 0 {
		t.Fatalf("want ≥ 2 resident slices and no eviction after one query:\n%s", out)
	}
	resident := gaugeValue(t, out, "kor_engine_oracle_memo_resident_bytes")
	if worst := entries * 16 * float64(g.NumNodes()); resident <= 0 || resident >= worst {
		t.Errorf("resident bytes = %v over %v slices, want in (0, %v)", resident, entries, worst)
	}
}

// TestOracleDegradedSecondsGauge: the episode-age gauge is 0 while the disk
// oracle serves, climbs once a patch degrades it, and resets on recovery.
func TestOracleDegradedSecondsGauge(t *testing.T) {
	g := swapCity(t, 0.7)
	path := buildDistIndex(t, g)
	reg := metrics.NewRegistry()
	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if v := gaugeValue(t, exposition(t, reg), "kor_engine_oracle_degraded_seconds"); v != 0 {
		t.Fatalf("healthy engine reports degraded for %vs", v)
	}

	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	out := exposition(t, reg)
	if !strings.Contains(out, "kor_engine_oracle_degraded 1\n") {
		t.Errorf("degraded flag gauge not set:\n%s", out)
	}
	if v := gaugeValue(t, out, "kor_engine_oracle_degraded_seconds"); v <= 0 {
		t.Errorf("degraded_seconds = %v after a degrading patch, want > 0", v)
	}

	if _, err := eng.Swap(swapCity(t, 0.7)); err != nil {
		t.Fatal(err)
	}
	if v := gaugeValue(t, exposition(t, reg), "kor_engine_oracle_degraded_seconds"); v != 0 {
		t.Errorf("degraded_seconds = %v after recovery, want 0", v)
	}
}

// TestEngineMetricsCoalesced: coalesced responses surface in the cache-lookup
// series under their own label — not as misses — and the plan-sweep counter
// reflects the single search the whole stampede paid for. Batch duplicates
// are counted the same way.
func TestEngineMetricsCoalesced(t *testing.T) {
	eng, reg := metricsTestEngine(t)
	req := Request{From: 0, To: 0, Keywords: []string{"jazz"}, Budget: 4}
	const followers = 3

	release := make(chan struct{})
	parked, searches := parkFirstSearch(eng, release)
	done := make(chan error, followers+1)
	run := func() {
		_, err := eng.Run(context.Background(), req)
		done <- err
	}
	go run()
	<-parked
	for i := 0; i < followers; i++ {
		go run()
	}
	awaitWaiters(t, eng, followers)
	close(release)
	for i := 0; i < followers+1; i++ {
		if err := <-done; err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if searches.Load() != 1 {
		t.Fatalf("%d searches executed, want 1", searches.Load())
	}

	// A batch of two identical requests: the representative hits the warm
	// cache, the duplicate is coalesced by the batch layer without ever
	// entering Run.
	if _, err := eng.SearchBatch(context.Background(), []Request{req, req}, 2); err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}

	out := exposition(t, reg)
	for _, want := range []string{
		`kor_engine_cache_requests_total{result="miss"} 1`,
		`kor_engine_cache_requests_total{result="coalesced"} 4`,
		`kor_engine_cache_requests_total{result="hit"} 1`,
		// Every request — stampede followers and the batch duplicate
		// included — still counts in the request totals.
		`kor_engine_requests_total{algorithm="bucketbound",outcome="ok"} 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	// Plan sweeps are counted once, for the leader's search — coalesced and
	// cached responses carry the leader's Metrics but must not re-add them.
	twin, twinReg := metricsTestEngine(t)
	if _, err := twin.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	got := gaugeValue(t, out, "kor_engine_plan_sweeps_total")
	want := gaugeValue(t, exposition(t, twinReg), "kor_engine_plan_sweeps_total")
	if got != want {
		t.Errorf("plan sweeps after stampede+batch = %v, want the single-search %v", got, want)
	}
}

// TestEngineMetricsDisabled: an engine without a registry must not touch any
// instrument (e.met stays nil on every path, including cache hits).
func TestEngineMetricsDisabled(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("a", "x")
	c := b.AddNode("c")
	if err := b.AddEdge(a, c, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(c, a, 1, 1); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(b.MustBuild(), &EngineConfig{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{From: 0, To: 1, Keywords: []string{"x"}, Budget: 5}
	for i := 0; i < 2; i++ { // second run exercises the cache-hit path
		if _, err := eng.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
}
