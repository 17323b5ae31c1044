// Package layers produces the per-layer numbers: it replays a fixed sample
// of a workload's queries in process, single-threaded, at two depths —
// core.Searcher.Run over wrappers that time the calls into apsp and graph,
// and kor.Engine.Run on an engine configured like korserve's — and times
// each module's public building blocks on the workload's own data. Nothing
// here feeds an end-to-end metric.
package layers

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kor"
	"kor/bench/internal/stat"
	"kor/bench/internal/stream"
	"kor/bench/internal/trace"
	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/graph"
	"kor/internal/metrics"
	"kor/internal/textindex"
	"kor/korapi"
)

// Oracle kinds a workload's server can run on.
const (
	OracleMatrix  = "matrix"
	OracleLazy    = "lazy"
	OracleIndexed = "indexed"
)

// MarkerKeyword is the keyword the churn workload flaps on MarkerNode. No
// stream ever asks for it, so every answer stays checkable against the base
// graph.
const (
	MarkerKeyword = "bench-marker"
	MarkerNode    = 0
)

// Config describes one workload's data to the probes.
type Config struct {
	// Workload names the requests in span identifiers.
	Workload string
	Graph    *graph.Graph
	// GraphPath is the saved graph, IndexPath the persistent distance index
	// (OracleIndexed only).
	GraphPath string
	IndexPath string
	// Oracle is the oracle kind the workload's server runs on; CacheSize its
	// result-cache capacity.
	Oracle    string
	CacheSize int
	// Budget is the stream's Δ.
	Budget float64
	// Sample is the fixed query sample to replay.
	Sample []stream.Query
	// Churn adds the live-update probes (Graph.Apply, Engine.Patch).
	Churn bool
	// Dir is a scratch directory.
	Dir string
}

// buildRepeats is how often a cheap build step is timed; the median is
// reported.
const buildRepeats = 3

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf times build n times and returns the median in seconds.
func medianOf(n int, build func() error) (float64, error) {
	var secs []float64
	for range n {
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return stat.Median(secs), nil
}

// resolved is one sample query lowered to core's terms.
type resolved struct {
	algo  core.Algorithm
	query core.Query
}

func resolve(g *graph.Graph, sample []stream.Query) ([]resolved, error) {
	out := make([]resolved, len(sample))
	for i, q := range sample {
		algo, err := core.ParseAlgorithm(q.Request.Algorithm)
		if err != nil {
			return nil, err
		}
		cq := core.Query{
			Source: graph.NodeID(q.Request.From),
			Target: graph.NodeID(q.Request.To),
			Budget: q.Request.BudgetLimit(),
		}
		for _, kw := range q.Request.Keywords {
			t, ok := g.Vocab().Lookup(kw)
			if !ok {
				return nil, fmt.Errorf("layers: sample keyword %q not in graph", kw)
			}
			cq.Keywords = append(cq.Keywords, t)
		}
		out[i] = resolved{algo, cq}
	}
	return out, nil
}

// searchFailed reports an outcome no stream query should produce. No route
// and a greedy budget overshoot are answers; anything else is a fault.
func searchFailed(err error) bool {
	return err != nil && !errors.Is(err, core.ErrNoRoute) && !errors.Is(err, core.ErrBudgetExceeded)
}

// oracleSet opens the workload's oracle afresh (each replay pass starts
// with cold oracle caches so that passes are comparable) and wraps it for a
// traced pass when p is non-nil.
type oracleSet struct {
	cfg    Config
	matrix *apsp.MatrixOracle // built once: it holds no query state
	out    map[string]float64
	opens  []float64 // index open times, seconds
}

func (s *oracleSet) open(p *probe) (oracle core.RouteOracle, lazy *apsp.LazyOracle, done func(), err error) {
	done = func() {}
	switch s.cfg.Oracle {
	case OracleMatrix:
		if s.matrix == nil {
			start := time.Now()
			s.matrix = apsp.NewMatrixOracle(s.cfg.Graph)
			s.out["apsp.matrix_build_s"] = time.Since(start).Seconds()
		}
		if p != nil {
			return tracedMatrix{s.matrix, p}, nil, done, nil
		}
		return s.matrix, nil, done, nil
	case OracleLazy:
		lazy = apsp.NewLazyOracle(s.cfg.Graph)
		if p != nil {
			return tracedLazy{lazy, p}, lazy, done, nil
		}
		return lazy, lazy, done, nil
	case OracleIndexed:
		start := time.Now()
		po, err := apsp.OpenIndex(s.cfg.IndexPath, s.cfg.Graph)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("layers: %w", err)
		}
		s.opens = append(s.opens, time.Since(start).Seconds())
		// Close fails only on munmap of a mapping this call created.
		done = func() { _ = po.Close() }
		if p != nil {
			return tracedPartitioned{po, p}, nil, done, nil
		}
		return po, nil, done, nil
	}
	return nil, nil, nil, fmt.Errorf("layers: unknown oracle kind %q", s.cfg.Oracle)
}

// Run executes every probe and returns the per-layer metrics it measured,
// keyed by metric name. Spans go to rec.
func Run(ctx context.Context, cfg Config, rec *trace.Recorder) (map[string]float64, error) {
	g := cfg.Graph
	out := map[string]float64{"trace.sample_queries": float64(len(cfg.Sample))}
	sample, err := resolve(g, cfg.Sample)
	if err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("layers: empty query sample")
	}
	opts := core.DefaultOptions()

	// graph: load, index build, footprint.
	if out["graph.load_s"], err = medianOf(buildRepeats, func() error {
		_, err := kor.LoadGraph(cfg.GraphPath)
		return err
	}); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	secs, _ := medianOf(buildRepeats, func() error { graph.NewMemIndex(g); return nil })
	out["graph.memindex_build_ms"] = secs * 1e3
	out["graph.bytes_per_node"] = g.MemFootprint().BytesPerNode()

	oracles := &oracleSet{cfg: cfg, out: out}

	// Depth 1, untraced: the reference timing of core.Searcher.Run.
	oracle, lazy, done, err := oracles.open(nil)
	if err != nil {
		return nil, err
	}
	searcher := core.NewSearcher(g, oracle, graph.NewMemIndex(g))
	plain := make([]time.Duration, len(sample))
	byAlgo := make(map[core.Algorithm][]float64)
	var work core.Metrics
	var sweeps0 int64
	if lazy != nil {
		sweeps0 = lazy.SweepCount()
	}
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	for i, q := range sample {
		start := time.Now()
		res, err := searcher.Run(ctx, q.algo, q.query, opts)
		plain[i] = time.Since(start)
		if searchFailed(err) {
			done()
			return nil, fmt.Errorf("layers: sample query %d: %w", i, err)
		}
		work.Add(res.Metrics)
		byAlgo[q.algo] = append(byAlgo[q.algo], ms(plain[i]))
	}
	runtime.ReadMemStats(&mem1)
	if lazy != nil {
		out["apsp.lazy_sweeps"] = float64(lazy.SweepCount()-sweeps0) / float64(len(sample))
	}
	done()
	n := float64(len(sample))
	plainMS := make([]float64, len(plain))
	for i, d := range plain {
		plainMS[i] = ms(d)
	}
	out["core.run_ms_p50"] = stat.Median(plainMS)
	out["core.run_ms_p95"], _ = stat.Percentile(plainMS, 95)
	out["core.bucketbound_ms_p50"] = stat.Median(byAlgo[core.AlgorithmBucketBound])
	out["core.osscaling_ms_p50"] = stat.Median(byAlgo[core.AlgorithmOSScaling])
	out["core.greedy_ms_p50"] = stat.Median(byAlgo[core.AlgorithmGreedy])
	out["core.labels_created"] = float64(work.LabelsCreated) / n
	out["core.labels_dequeued"] = float64(work.LabelsDequeued) / n
	if work.LabelsCreated > 0 {
		pruned := work.PrunedBudget + work.PrunedBound + work.PrunedStrategy2 + work.Dominated
		out["core.pruned_share"] = float64(pruned) / float64(work.LabelsCreated)
	}
	out["core.plan_sweeps"] = float64(work.PlanSweeps) / n
	out["core.shared_sweeps"] = float64(work.SharedSweeps) / n
	out["core.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / n
	out["core.bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / n

	// Depth 1, traced: the same replay over the observing wrappers.
	p := newProbe(rec)
	oracle, _, done, err = oracles.open(p)
	if err != nil {
		return nil, err
	}
	searcher = core.NewSearcher(g, oracle, tracedIndex{graph.NewMemIndex(g), p})
	tracedMS := make([]float64, len(sample))
	selfMS := make([]float64, len(sample))
	for i, q := range sample {
		p.request = fmt.Sprintf("%s/%d", cfg.Workload, i)
		p.childBusy = 0
		p.parent = rec.Start("core.Searcher.Run", p.request, -1)
		start := time.Now()
		_, err := searcher.Run(ctx, q.algo, q.query, opts)
		took := time.Since(start)
		rec.End(p.parent)
		if searchFailed(err) {
			done()
			return nil, fmt.Errorf("layers: traced sample query %d: %w", i, err)
		}
		tracedMS[i] = ms(took)
		selfMS[i] = ms(took - p.childBusy)
	}
	done()
	out["core.self_ms"] = stat.Median(selfMS)
	out["trace.overhead_share"] = (stat.Median(tracedMS) - out["core.run_ms_p50"]) / out["core.run_ms_p50"]
	out["apsp.pair_lookups"] = float64(p.pairLookups) / n
	out["apsp.slice_calls"] = float64(p.sliceCalls) / n
	out["apsp.slice_ms"] = ms(p.sliceBusy) / n
	if p.sliceCalls > 0 {
		out["apsp.slice_hit_share"] = float64(p.sliceHits) / float64(p.sliceCalls)
	}
	out["apsp.slice_working_set_mib"] = float64(len(p.slices)) * 16 * float64(g.NumNodes()) / (1 << 20)
	out["apsp.path_us"] = us(p.pathBusy) / n
	out["graph.postings_calls"] = float64(p.postingsCalls) / n
	if p.postingsCalls > 0 {
		out["graph.postings_us"] = us(p.postingsBusy) / float64(p.postingsCalls)
	}
	if len(oracles.opens) > 0 {
		out["apsp.index_open_ms"] = stat.Median(oracles.opens) * 1e3
		if st, err := os.Stat(cfg.IndexPath); err == nil {
			out["apsp.index_bytes"] = float64(st.Size())
		}
	}

	if err := pairAndSweepProbes(cfg, oracles, sample, out); err != nil {
		return nil, err
	}
	if err := postingsProbe(cfg, sample, out); err != nil {
		return nil, err
	}
	if err := engineProbes(ctx, cfg, plain, rec, out); err != nil {
		return nil, err
	}
	if cfg.Churn {
		delta := graph.Delta{AddKeywords: []graph.KeywordPatch{{Node: MarkerNode, Keywords: []string{MarkerKeyword}}}}
		secs, err := medianOf(buildRepeats, func() error {
			_, err := g.Apply(delta)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("layers: applying churn delta: %w", err)
		}
		out["graph.apply_ms"] = secs * 1e3
	}
	return out, nil
}

// pairAndSweepProbes times the two unit costs the search multiplies: one
// pair lookup on the workload's oracle (tight loop over the sample's
// source→target pairs, caches warm) and one Δ-bounded reverse sweep into a
// sample target.
func pairAndSweepProbes(cfg Config, oracles *oracleSet, sample []resolved, out map[string]float64) error {
	oracle, _, done, err := oracles.open(nil)
	if err != nil {
		return err
	}
	defer done()
	pairs := sample[:min(len(sample), 64)]
	for _, q := range pairs {
		apsp.PrefetchTarget(oracle, q.query.Target)
	}
	const lookups = 20000
	var sink float64
	start := time.Now()
	for i := range lookups {
		q := pairs[i%len(pairs)].query
		os, _, _ := oracle.MinObjective(q.Source, q.Target)
		sink += os
	}
	took := time.Since(start)
	if math.IsNaN(sink) {
		return fmt.Errorf("layers: pair lookups returned NaN")
	}
	out["apsp.pair_ns"] = float64(took.Nanoseconds()) / lookups

	var sweepMS []float64
	for _, q := range sample[:min(len(sample), 16)] {
		start := time.Now()
		apsp.ReverseBoundedSweep(cfg.Graph, q.query.Target, apsp.ByBudget, cfg.Budget)
		sweepMS = append(sweepMS, ms(time.Since(start)))
	}
	out["apsp.sweep_ms"] = stat.Median(sweepMS)
	return nil
}

// postingsProbe sends the sample's posting lookups through the disk
// B+-tree index, for comparison with graph.postings_us.
func postingsProbe(cfg Config, sample []resolved, out map[string]float64) error {
	gi, err := textindex.BuildForGraph(filepath.Join(cfg.Dir, "postings.idx"), cfg.Graph)
	if err != nil {
		return fmt.Errorf("layers: building inverted file: %w", err)
	}
	defer gi.Close()
	calls := 0
	start := time.Now()
	for _, q := range sample {
		for _, t := range q.query.Keywords {
			gi.Postings(t)
			calls++
		}
	}
	out["textindex.postings_us"] = us(time.Since(start)) / float64(calls)
	return nil
}

// engineProbes replays the sample through kor.Engine.Run on an engine
// configured like korserve's, then through the korapi conversions.
func engineProbes(ctx context.Context, cfg Config, plain []time.Duration, rec *trace.Recorder, out map[string]float64) error {
	engCfg := &kor.EngineConfig{CacheSize: cfg.CacheSize, Metrics: metrics.NewRegistry()}
	if cfg.Oracle == OracleIndexed {
		engCfg.DistIndexPath = cfg.IndexPath
	}
	start := time.Now()
	eng, err := kor.NewEngine(cfg.Graph, engCfg)
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	out["kor.engine_build_s"] = time.Since(start).Seconds()
	defer eng.Close()

	var decodeBusy, encodeBusy time.Duration
	var missMS, overheadUS, hitUS []float64
	for i, q := range cfg.Sample {
		start := time.Now()
		var wire korapi.Request
		if err := json.Unmarshal(q.Body, &wire); err != nil {
			return fmt.Errorf("layers: decoding sample request %d: %w", i, err)
		}
		req, err := wire.KorRequest()
		if err != nil {
			return fmt.Errorf("layers: sample request %d: %w", i, err)
		}
		decodeBusy += time.Since(start)

		request := fmt.Sprintf("%s/%d", cfg.Workload, i)
		id := rec.Start("kor.Engine.Run", request, -1)
		start = time.Now()
		resp, err := eng.Run(ctx, req)
		took := time.Since(start)
		rec.End(id)
		if searchFailed(err) {
			return fmt.Errorf("layers: engine sample query %d: %w", i, err)
		}
		missMS = append(missMS, ms(took))
		overheadUS = append(overheadUS, us(took-plain[i]))

		start = time.Now()
		if _, err := eng.Run(ctx, req); searchFailed(err) {
			return fmt.Errorf("layers: repeated sample query %d: %w", i, err)
		}
		hitUS = append(hitUS, us(time.Since(start)))

		if len(resp.Routes) > 0 {
			start = time.Now()
			if _, err := json.Marshal(korapi.ResponseFromKor(resp.Graph(), resp, false)); err != nil {
				return fmt.Errorf("layers: encoding sample response %d: %w", i, err)
			}
			encodeBusy += time.Since(start)
		}
	}
	n := float64(len(cfg.Sample))
	out["kor.run_ms_p50"] = stat.Median(missMS)
	out["kor.overhead_us"] = stat.Median(overheadUS)
	out["kor.hit_us"] = stat.Median(hitUS)
	out["korapi.decode_us"] = us(decodeBusy) / n
	out["korapi.encode_us"] = us(encodeBusy) / n

	if cfg.Churn {
		add := kor.Delta{AddKeywords: []kor.KeywordPatch{{Node: MarkerNode, Keywords: []string{MarkerKeyword}}}}
		remove := kor.Delta{RemoveKeywords: []kor.KeywordPatch{{Node: MarkerNode, Keywords: []string{MarkerKeyword}}}}
		var patchMS []float64
		for range 2 {
			for _, d := range []kor.Delta{add, remove} {
				start := time.Now()
				if _, err := eng.Patch(d); err != nil {
					return fmt.Errorf("layers: patching engine: %w", err)
				}
				patchMS = append(patchMS, ms(time.Since(start)))
			}
		}
		out["kor.patch_ms"] = stat.Median(patchMS)
	}
	return nil
}
