// Benchmarks regenerating the paper's evaluation, one family per figure.
// Each benchmark measures the per-query cost of one cell of the figure's
// parameter grid on the synthetic stand-in datasets; `korbench -all`
// produces the full tables. Serving wall time is measured by the benchmark
// under bench/ (see the Performance section of README.md).
//
// Run with:
//
//	go test -bench=. -benchmem
package kor

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kor/internal/core"
	"kor/internal/experiments"
)

var benchCfg = experiments.Config{Seed: 2012, Queries: 4}

var (
	flickrOnce sync.Once
	flickrDS   *experiments.Dataset
	flickrErr  error

	roadOnce sync.Once
	roadDS   map[int]*experiments.Dataset
)

func benchFlickr(b *testing.B) *experiments.Dataset {
	b.Helper()
	flickrOnce.Do(func() {
		flickrDS, flickrErr = experiments.NewFlickrDataset(benchCfg)
	})
	if flickrErr != nil {
		b.Fatalf("flickr dataset: %v", flickrErr)
	}
	return flickrDS
}

func benchRoad(b *testing.B, nodes int) *experiments.Dataset {
	b.Helper()
	roadOnce.Do(func() { roadDS = make(map[int]*experiments.Dataset) })
	ds, ok := roadDS[nodes]
	if !ok {
		ds = experiments.NewRoadDataset(benchCfg, nodes)
		roadDS[nodes] = ds
	}
	return ds
}

// runSet executes one measured pass over the query set per b.N iteration.
func runSet(b *testing.B, ds *experiments.Dataset, queries []core.Query, algo experiments.Algorithm) {
	b.Helper()
	if len(queries) == 0 {
		b.Skip("no queries generated for this cell")
	}
	// One untimed pass warms the oracle caches — the stand-in for the
	// paper's offline pre-processing.
	experiments.Measure(ds, queries, algo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			_, _ = invoke(ds, algo, q)
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}

func invoke(ds *experiments.Dataset, algo experiments.Algorithm, q core.Query) (core.Result, error) {
	switch algo.Kind {
	case experiments.KindOSScaling:
		return ds.Searcher.OSScaling(q, algo.Opts)
	case experiments.KindBucketBound:
		return ds.Searcher.BucketBound(q, algo.Opts)
	case experiments.KindGreedy:
		return ds.Searcher.Greedy(q, algo.Opts)
	case experiments.KindExact:
		return ds.Searcher.Exact(q, algo.Opts)
	case experiments.KindBruteForce:
		return ds.Searcher.BruteForce(q, 2_000_000)
	}
	panic("unknown kind")
}

func algoVariants(width2 bool) []experiments.Algorithm {
	oss := core.DefaultOptions()
	bb := core.DefaultOptions()
	g := core.DefaultOptions()
	variants := []experiments.Algorithm{
		{Name: "OSScaling", Opts: oss, Kind: experiments.KindOSScaling},
		{Name: "BucketBound", Opts: bb, Kind: experiments.KindBucketBound},
		{Name: "Greedy1", Opts: g, Kind: experiments.KindGreedy},
	}
	if width2 {
		g2 := core.DefaultOptions()
		g2.Width = 2
		variants = append(variants, experiments.Algorithm{Name: "Greedy2", Opts: g2, Kind: experiments.KindGreedy})
	}
	return variants
}

// BenchmarkFig04RuntimeVsKeywords — Figure 4: runtime as the keyword count
// grows, Flickr-like dataset, Δ=6.
func BenchmarkFig04RuntimeVsKeywords(b *testing.B) {
	ds := benchFlickr(b)
	for _, m := range []int{2, 6, 10} {
		queries := ds.Queries(benchCfg, m, 6)
		for _, algo := range algoVariants(true) {
			b.Run(fmt.Sprintf("%s/m=%d", algo.Name, m), func(b *testing.B) {
				runSet(b, ds, queries, algo)
			})
		}
	}
}

// BenchmarkFig05RuntimeVsDelta — Figure 5: runtime as Δ grows, m=6.
func BenchmarkFig05RuntimeVsDelta(b *testing.B) {
	ds := benchFlickr(b)
	for _, delta := range []float64{3, 9, 15} {
		queries := ds.Queries(benchCfg, 6, delta)
		for _, algo := range algoVariants(true) {
			b.Run(fmt.Sprintf("%s/delta=%v", algo.Name, delta), func(b *testing.B) {
				runSet(b, ds, queries, algo)
			})
		}
	}
}

// BenchmarkFig06EpsilonSweep — Figure 6: OSScaling runtime versus ε.
func BenchmarkFig06EpsilonSweep(b *testing.B) {
	ds := benchFlickr(b)
	queries := ds.Queries(benchCfg, 6, 6)
	for _, eps := range []float64{0.1, 0.5, 0.9} {
		opts := core.DefaultOptions()
		opts.Epsilon = eps
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: opts, Kind: experiments.KindOSScaling})
		})
	}
}

// BenchmarkFig08BetaSweep — Figure 8: BucketBound runtime versus β.
func BenchmarkFig08BetaSweep(b *testing.B) {
	ds := benchFlickr(b)
	queries := ds.Queries(benchCfg, 6, 6)
	for _, beta := range []float64{1.2, 1.6, 2.0} {
		opts := core.DefaultOptions()
		opts.Beta = beta
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: opts, Kind: experiments.KindBucketBound})
		})
	}
}

// BenchmarkFig14EqualBound — Figure 14: the two label algorithms at the
// same theoretical bound r (OSScaling ε=1−1/r, BucketBound ε=0.5, β=r/2).
func BenchmarkFig14EqualBound(b *testing.B) {
	ds := benchFlickr(b)
	queries := ds.Queries(benchCfg, 6, 6)
	for _, bound := range []float64{2, 6, 10} {
		ossOpts := core.DefaultOptions()
		ossOpts.Epsilon = 1 - 1/bound
		bbOpts := core.DefaultOptions()
		bbOpts.Beta = bound / 2
		if bbOpts.Beta <= 1 {
			bbOpts.Beta = 1.01
		}
		b.Run(fmt.Sprintf("OSScaling/bound=%v", bound), func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: ossOpts, Kind: experiments.KindOSScaling})
		})
		b.Run(fmt.Sprintf("BucketBound/bound=%v", bound), func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: bbOpts, Kind: experiments.KindBucketBound})
		})
	}
}

// BenchmarkFig16TopK — Figure 16: the KkR query as k grows.
func BenchmarkFig16TopK(b *testing.B) {
	ds := benchFlickr(b)
	queries := ds.Queries(benchCfg, 6, 6)
	for _, k := range []int{1, 3, 5} {
		opts := core.DefaultOptions()
		opts.K = k
		b.Run(fmt.Sprintf("OSScaling/k=%d", k), func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: opts, Kind: experiments.KindOSScaling})
		})
		b.Run(fmt.Sprintf("BucketBound/k=%d", k), func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: opts, Kind: experiments.KindBucketBound})
		})
	}
}

// BenchmarkFig17Scalability — Figure 17: road networks of growing size,
// m=6, Δ=30 km.
func BenchmarkFig17Scalability(b *testing.B) {
	for _, nodes := range []int{5000, 10000, 20000} {
		ds := benchRoad(b, nodes)
		queries := ds.Queries(benchCfg, 6, 30)
		for _, algo := range algoVariants(false) {
			b.Run(fmt.Sprintf("%s/n=%d", algo.Name, nodes), func(b *testing.B) {
				runSet(b, ds, queries, algo)
			})
		}
	}
}

// BenchmarkFig18RoadKeywords — Figure 18: keyword sweep on the 5k road
// network.
func BenchmarkFig18RoadKeywords(b *testing.B) {
	ds := benchRoad(b, 5000)
	for _, m := range []int{2, 6, 10} {
		queries := ds.Queries(benchCfg, m, 9)
		for _, algo := range algoVariants(false) {
			b.Run(fmt.Sprintf("%s/m=%d", algo.Name, m), func(b *testing.B) {
				runSet(b, ds, queries, algo)
			})
		}
	}
}

// BenchmarkFig19RoadDelta — Figure 19: Δ sweep on the 5k road network.
func BenchmarkFig19RoadDelta(b *testing.B) {
	ds := benchRoad(b, 5000)
	for _, delta := range []float64{3, 9, 15} {
		queries := ds.Queries(benchCfg, 6, delta)
		for _, algo := range algoVariants(false) {
			b.Run(fmt.Sprintf("%s/delta=%v", algo.Name, delta), func(b *testing.B) {
				runSet(b, ds, queries, algo)
			})
		}
	}
}

// BenchmarkExactBaseline — §4.1's brute-force gap: the exhaustive baseline
// against OSScaling on budgets small enough for it to finish.
func BenchmarkExactBaseline(b *testing.B) {
	ds := benchFlickr(b)
	queries := ds.Queries(benchCfg, 2, 2)
	b.Run("OSScaling", func(b *testing.B) {
		runSet(b, ds, queries, experiments.Algorithm{Opts: core.DefaultOptions(), Kind: experiments.KindOSScaling})
	})
	b.Run("BruteForce", func(b *testing.B) {
		runSet(b, ds, queries, experiments.Algorithm{Kind: experiments.KindBruteForce})
	})
	b.Run("Exact", func(b *testing.B) {
		runSet(b, ds, queries, experiments.Algorithm{Opts: core.DefaultOptions(), Kind: experiments.KindExact})
	})
}

// BenchmarkAblationStrategies — the §4.2.1 claim that the optimization
// strategies buy 3–5×: OSScaling with and without strategy 2, the one that
// is implemented.
func BenchmarkAblationStrategies(b *testing.B) {
	ds := benchFlickr(b)
	queries := ds.Queries(benchCfg, 6, 6)
	for _, v := range []struct {
		name     string
		disabled bool
	}{{"S2", false}, {"noS2", true}} {
		opts := core.DefaultOptions()
		opts.DisableStrategy2 = v.disabled
		b.Run(v.name, func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: opts, Kind: experiments.KindOSScaling})
		})
	}
}

// Shared fixture for the concurrency benchmarks: one Engine on the lazy
// oracle (the concurrent-contention configuration) over a 2k-node road
// network, plus a fixed query set.
var (
	parOnce sync.Once
	parEng  *Engine
	parErr  error
	parQs   []Request
)

func parallelFixture(b *testing.B) (*Engine, []Request) {
	b.Helper()
	parOnce.Do(func() {
		g := SyntheticRoadNetwork(2012, 2000)
		parEng, parErr = NewEngine(g, &EngineConfig{Oracle: OracleLazy})
		if parErr != nil {
			return // report via parErr so later benchmarks fail cleanly too
		}
		parQs = concurrencyQueries(b, parEng, 16)
		// Warm the sweep caches so the measured region reflects steady-state
		// serving, as the figure benchmarks do.
		for _, q := range parQs {
			_, _ = parEng.Run(context.Background(), q)
		}
	})
	if parErr != nil {
		b.Fatal(parErr)
	}
	return parEng, parQs
}

// BenchmarkThroughputSerial — baseline: one goroutine draining the query
// set against the shared engine. Compare with BenchmarkThroughputParallel
// to see the concurrency win on multi-core hardware.
func BenchmarkThroughputSerial(b *testing.B) {
	eng, queries := parallelFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.Run(ctx, queries[i%len(queries)])
	}
}

// BenchmarkThroughputParallel — GOMAXPROCS goroutines sharing one Engine
// and one lazy oracle, the korserve serving pattern.
func BenchmarkThroughputParallel(b *testing.B) {
	eng, queries := parallelFixture(b)
	ctx := context.Background()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_, _ = eng.Run(ctx, queries[int(next.Add(1))%len(queries)])
		}
	})
}

// BenchmarkThroughputParallelMixed — as above, but the goroutines mix the
// three approximation algorithms the way a live query stream would.
func BenchmarkThroughputParallelMixed(b *testing.B) {
	eng, queries := parallelFixture(b)
	ctx := context.Background()
	algos := []Algorithm{AlgorithmBucketBound, AlgorithmOSScaling, AlgorithmGreedy}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			q := queries[i%len(queries)]
			q.Algorithm = algos[i%len(algos)]
			_, _ = eng.Run(ctx, q)
		}
	})
}

// BenchmarkSearchBatch — the batch API end to end: one call answering the
// whole query set on a worker pool.
func BenchmarkSearchBatch(b *testing.B) {
	eng, requests := parallelFixture(b)
	ctx := context.Background()
	pars := []int{1, runtime.GOMAXPROCS(0)}
	if pars[1] == 1 {
		pars = pars[:1] // single-CPU host: one level, no duplicate sub-benchmark
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SearchBatch(ctx, requests, par); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(requests)), "queries/op")
		})
	}
}

// Result-cache benchmarks: the same request stream against one engine with
// the cache disabled and one with it enabled. The pair is the regression
// guard for Engine.Run's fast path: they keep the cached/uncached gap
// visible in `go test -bench`.
var (
	cacheOnce sync.Once
	cacheEng  *Engine // CacheSize > 0
	plainEng  *Engine // no cache
	cacheErr  error
	cacheQs   []Request
)

func cacheFixture(b *testing.B) (*Engine, *Engine, []Request) {
	b.Helper()
	cacheOnce.Do(func() {
		g := SyntheticRoadNetwork(2012, 2000)
		plainEng, cacheErr = NewEngine(g, &EngineConfig{Oracle: OracleLazy})
		if cacheErr != nil {
			return
		}
		cacheEng, cacheErr = NewEngine(g, &EngineConfig{Oracle: OracleLazy, CacheSize: 4096})
		if cacheErr != nil {
			return
		}
		cacheQs = concurrencyQueries(b, plainEng, 16)
		ctx := context.Background()
		for _, req := range cacheQs { // warm sweep caches and the result cache
			_, _ = plainEng.Run(ctx, req)
			_, _ = cacheEng.Run(ctx, req)
		}
	})
	if cacheErr != nil {
		b.Fatal(cacheErr)
	}
	return plainEng, cacheEng, cacheQs
}

// BenchmarkRunUncached — Engine.Run with caching disabled: every request
// pays for a full search.
func BenchmarkRunUncached(b *testing.B) {
	eng, _, requests := cacheFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, requests[i%len(requests)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCached — the same stream answered from the result cache.
func BenchmarkRunCached(b *testing.B) {
	_, eng, requests := cacheFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Run(ctx, requests[i%len(requests)])
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected a cache hit on a warmed key")
		}
	}
}

// BenchmarkRunCoalesced — a stampede of one identical request on the
// uncached engine: concurrent Runs fold into whatever search is in flight
// via the engine's single-flight, so most operations wait on a shared
// search instead of running their own. Contrast with BenchmarkRunUncached
// (serial, every request pays) and BenchmarkRunCached (warm result cache).
func BenchmarkRunCoalesced(b *testing.B) {
	eng, _, requests := cacheFixture(b)
	req := requests[0]
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOracles — the three τ/σ oracle implementations serving
// the same OSScaling workload: dense tables (the paper's pre-processing),
// lazy memoized sweeps, and the §6 partitioned design.
func BenchmarkAblationOracles(b *testing.B) {
	base := benchRoad(b, 1500)
	queries := base.Queries(benchCfg, 4, 12)
	for _, variant := range experiments.OracleVariants(base.Graph) {
		ds := &experiments.Dataset{
			Name:         base.Name,
			Graph:        base.Graph,
			Index:        base.Index,
			Searcher:     core.NewSearcher(base.Graph, variant.Oracle, base.Index),
			DeltaSweep:   base.DeltaSweep,
			DefaultDelta: base.DefaultDelta,
			Planar:       true,
		}
		b.Run("oracle="+variant.Name, func(b *testing.B) {
			runSet(b, ds, queries, experiments.Algorithm{Opts: core.DefaultOptions(), Kind: experiments.KindOSScaling})
		})
	}
}
