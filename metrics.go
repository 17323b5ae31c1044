package kor

import (
	"context"
	"errors"
	"time"

	"kor/internal/apsp"
	"kor/internal/metrics"
)

// Engine telemetry. When EngineConfig.Metrics carries a registry, the engine
// registers its operational metrics there and updates them on every Run:
//
//	kor_engine_requests_total{algorithm,outcome}  counter
//	kor_engine_request_seconds{algorithm}         histogram
//	kor_engine_cache_requests_total{result}       counter (cache enabled; hit/miss/coalesced)
//	kor_engine_cache_size                         gauge   (cache enabled)
//	kor_engine_cache_evictions_total              counter (cache enabled)
//	kor_engine_plan_sweeps_total                  counter
//	kor_engine_oracle_memo_hits_total             counter (current snapshot's slice memo; resets on swap; 0 off the partitioned oracle)
//	kor_engine_oracle_memo_misses_total           counter (likewise)
//	kor_engine_oracle_memo_evictions_total        counter (likewise)
//	kor_engine_oracle_memo_resident_bytes         gauge   (likewise)
//	kor_engine_oracle_table_bytes                 gauge   (process-wide: matrix tables mapped outside the Go heap)
//	kor_engine_oracle_kind{kind}                  gauge (1 for the active kind)
//	kor_engine_oracle_degraded                    gauge
//	kor_engine_index_load_seconds                 gauge
//	kor_engine_snapshot_generation                gauge
//
// Outcome labels are a closed set (see outcomeLabel); algorithm labels come
// from the algorithm registry plus "invalid" for requests that failed before
// an algorithm was resolved, so cardinality is bounded by construction.
// Updating a metric is a couple of atomic adds — cheap enough that there is
// no switch to turn instrumentation off beyond not passing a registry.

// engineMetrics bundles the per-engine instruments.
type engineMetrics struct {
	requests   *metrics.CounterVec
	latency    *metrics.HistogramVec
	planSweeps *metrics.Counter
	oracleKind *metrics.GaugeVec
}

// registerMetrics creates the engine's instruments on reg. Called once from
// NewEngine; the callback metrics read through the engine's atomic snapshot
// pointer, so they keep reporting the current graph across Swap and Patch.
func (e *Engine) registerMetrics(reg *metrics.Registry) {
	m := &engineMetrics{
		requests: reg.CounterVec("kor_engine_requests_total",
			"Engine.Run calls by algorithm and outcome.", "algorithm", "outcome"),
		latency: reg.HistogramVec("kor_engine_request_seconds",
			"Engine.Run wall time in seconds by algorithm.", nil, "algorithm"),
		planSweeps: reg.Counter("kor_engine_plan_sweeps_total",
			"Dijkstra runs that query plans started on the lazy oracle: bounded candidate sweeps (Δ for σ, U for τ) plus frontiers."),
	}
	m.oracleKind = reg.GaugeVec("kor_engine_oracle_kind",
		"Active τ/σ oracle implementation: 1 on the serving kind's series, 0 elsewhere.", "kind")
	reg.GaugeFunc("kor_engine_oracle_degraded",
		"1 when the live graph no longer has the edges a configured persistent distance index was built from and queries fall back to a lazy oracle.",
		func() float64 {
			if e.snap.Load().oracle.Degraded {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("kor_engine_oracle_degraded_seconds",
		"Seconds since the oracle entered the degraded fallback; 0 while serving from the index. Dates the start of the episode, not the latest patch.",
		func() float64 {
			ost := e.snap.Load().oracle
			if !ost.Degraded || ost.DegradedSince.IsZero() {
				return 0
			}
			return time.Since(ost.DegradedSince).Seconds()
		})
	reg.GaugeFunc("kor_engine_index_load_seconds",
		"Time spent loading the persistent distance index at engine construction (0 when none is configured).",
		func() float64 { return e.snap.Load().oracle.LoadTime.Seconds() })
	reg.GaugeFunc("kor_engine_snapshot_generation",
		"Generation of the graph snapshot currently serving queries.",
		func() float64 { return float64(e.Snapshot().Generation) })
	reg.CounterFunc("kor_engine_oracle_memo_hits_total",
		"Slice requests the current snapshot's partitioned oracle served from its memo (resets on swap; 0 for the matrix and lazy oracles, which keep none).",
		func() float64 { return float64(e.oracleMemo().Hits) })
	reg.CounterFunc("kor_engine_oracle_memo_misses_total",
		"Slices the current snapshot's partitioned oracle had to compute (0 for the matrix and lazy oracles).",
		func() float64 { return float64(e.oracleMemo().Misses) })
	reg.CounterFunc("kor_engine_oracle_memo_evictions_total",
		"Slices the partitioned oracle's memo dropped to stay inside its byte budget.",
		func() float64 { return float64(e.oracleMemo().Evictions) })
	reg.GaugeFunc("kor_engine_oracle_memo_resident_bytes",
		"Bytes the partitioned oracle's resident slices hold right now.",
		func() float64 { return float64(e.oracleMemo().ResidentBytes) })
	reg.GaugeFunc("kor_engine_oracle_table_bytes",
		"Bytes of matrix tables mapped outside the Go heap in this process: the serving matrix's, a build's, and a retired one's until the collector releases it (0 on the lazy and disk-index oracles). Go's memory statistics do not include them.",
		func() float64 { return float64(OracleTableBytes()) })
	if e.results.stores() {
		e.results.lookups = reg.CounterVec("kor_engine_cache_requests_total",
			"Result-cache lookups by result (hit, miss, or coalesced onto an identical in-flight request).", "result")
		reg.GaugeFunc("kor_engine_cache_size",
			"Entries currently held in the result cache.",
			func() float64 { return float64(e.results.size()) })
		reg.CounterFunc("kor_engine_cache_evictions_total",
			"Result-cache entries dropped by the LRU bound.",
			func() float64 { return float64(e.results.evictions.Load()) })
	}
	e.met = m
}

// oracleMemo reads the serving oracle's slice-memo counters; the matrix and
// lazy oracles keep no memo and report zeros.
func (e *Engine) oracleMemo() apsp.MemoStats {
	if o, ok := e.snap.Load().searcher.Oracle().(interface{ MemoStats() apsp.MemoStats }); ok {
		return o.MemoStats()
	}
	return apsp.MemoStats{}
}

// OracleTableBytes reports the bytes of matrix tables mapped in the process,
// 40 per node pair of each: the serving matrix of every engine, a background
// build's from its start, and a retired matrix's until the collector has
// released it. The tables live outside the Go heap, so runtime.MemStats
// does not count them.
func OracleTableBytes() int64 {
	_, bytes := apsp.TableMemory()
	return bytes
}

// publishOracleStatus flips the oracle-kind gauge series to the snapshot's
// serving kind. Called after every snapshot store; a no-op without metrics.
func (e *Engine) publishOracleStatus(st OracleStatus) {
	if e.met == nil {
		return
	}
	for _, kind := range []string{OracleKindLazy, OracleKindMatrix, OracleKindPartitionedDisk} {
		v := int64(0)
		if kind == st.Kind {
			v = 1
		}
		e.met.oracleKind.With(kind).Set(v)
	}
}

// observe records one Run outcome. algorithm falls back to "invalid" when
// the request failed before the algorithm was resolved. Cached and coalesced
// responses carry the originating search's counters, so their plan sweeps
// are skipped — that work already counted when the leader ran.
func (m *engineMetrics) observe(resp Response, err error, elapsed time.Duration) {
	algo := algorithmLabel(resp.Algorithm)
	m.requests.With(algo, outcomeLabel(err)).Inc()
	m.latency.With(algo).Observe(elapsed.Seconds())
	if n := resp.Metrics.PlanSweeps; n > 0 && !resp.Cached && !resp.Coalesced {
		m.planSweeps.Add(uint64(n))
	}
}

// The closed result-label set of kor_engine_cache_requests_total. Every
// cacheable Run records exactly one: "hit" for a cache hit, "miss" for the
// request that goes on to lead the search, "coalesced" for a single-flight
// follower (or batch duplicate) answered by someone else's search. Before
// coalescing existed, followers inflated the miss series and dashboards
// under-reported the effective hit rate.
const (
	cacheResultHit       = "hit"
	cacheResultMiss      = "miss"
	cacheResultCoalesced = "coalesced"
)

// algorithmLabel maps a response's algorithm onto the closed label set: the
// registry's canonical names plus "invalid" for requests that failed before
// an algorithm was resolved. Unregistered values also collapse to "invalid"
// so a raw request string can never mint a fresh time series.
//
// korvet:labels — results are drawn from core.Algorithms() ∪ {"invalid"}.
func algorithmLabel(a Algorithm) string {
	// The zero Algorithm canonicalizes to the default, but in a response it
	// means the request failed before resolution — that is "invalid" here,
	// not the default's series.
	if a == "" || !a.Valid() {
		return "invalid"
	}
	return string(a.Canonical())
}

// outcomeLabel maps a Run error onto its closed outcome label set. The
// ordering mirrors korapi.ErrorFrom so the engine's counters and the HTTP
// status classes line up.
//
// korvet:labels — every return below is a literal from the closed set.
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrNoRoute):
		return "no_route"
	case errors.Is(err, ErrUnknownKeyword):
		return "unknown_keyword"
	case errors.Is(err, ErrSearchLimit):
		return "search_limit"
	case errors.Is(err, ErrBadQuery):
		return "bad_query"
	default:
		return "error"
	}
}
