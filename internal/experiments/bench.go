package experiments

// Machine-readable benchmarking: unlike the figure runners, which render the
// paper's tables for humans, RunBench measures fixed serving workloads and
// emits a BenchReport meant to be committed as BENCH_<rev>.json. Every PR
// that touches the hot path records one, so the repository carries a
// performance trajectory instead of anecdotes. CompareBench is the CI
// regression gate over two such reports.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
)

// BenchOptions sizes one benchmark run.
type BenchOptions struct {
	// Seed drives the dataset and query generators.
	Seed int64
	// Queries per workload cell (0 = 16 full / 8 smoke).
	Queries int
	// Iters is how many measured passes run over each query set (0 = 3).
	Iters int
	// Smoke shrinks the datasets to CI size: the same workload names, far
	// smaller graphs, so a smoke report is only comparable to another smoke
	// report.
	Smoke bool
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Seed == 0 {
		o.Seed = 2012
	}
	if o.Queries <= 0 {
		if o.Smoke {
			o.Queries = 8
		} else {
			o.Queries = 16
		}
	}
	if o.Iters <= 0 {
		o.Iters = 3
	}
	return o
}

// BenchEntry is one (workload, algorithm) measurement. Per-op quantities are
// per query.
type BenchEntry struct {
	Workload    string  `json:"workload"`
	Algorithm   string  `json:"algorithm"`
	Queries     int     `json:"queries"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	LabelsPerOp float64 `json:"labels_per_op"`
	// SweepsPerOp counts every Dijkstra run the lazy oracle started;
	// PlanSweepsPerOp is the part of them query plans counted: bounded
	// candidate sweeps and frontiers.
	SweepsPerOp     float64 `json:"sweeps_per_op"`
	PlanSweepsPerOp float64 `json:"plan_sweeps_per_op,omitempty"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	// HeapAllocDeltaBytes and HeapSysDeltaBytes record the live-heap and
	// OS-reserved-heap growth across the measured region (negative when a
	// collection ran mid-measure). HeapSys growth approximates the
	// workload's peak-footprint cost and is what the regression gate reads;
	// within one process run the cells execute sequentially, so the numbers
	// are order-dependent and only large movements are meaningful.
	HeapAllocDeltaBytes int64 `json:"heap_alloc_delta_bytes,omitempty"`
	HeapSysDeltaBytes   int64 `json:"heap_sys_delta_bytes,omitempty"`
	Failures            int   `json:"failures,omitempty"`
	// FailureReason records why the first failed query failed (search error,
	// empty result, or an infeasible best route), so a failure count in a
	// committed report is diagnosable without rerunning the suite.
	FailureReason string `json:"failure_reason,omitempty"`
}

// BenchReport is the committed benchmark artifact.
type BenchReport struct {
	Schema    int          `json:"schema"`
	GoVersion string       `json:"go_version"`
	Smoke     bool         `json:"smoke,omitempty"`
	Seed      int64        `json:"seed"`
	Entries   []BenchEntry `json:"entries"`
}

// benchWorkload names one dataset+query cell of the bench suite.
type benchWorkload struct {
	name    string
	build   func(o BenchOptions) (*Dataset, error)
	m       int
	delta   float64
	lineup  []Algorithm
	descrip string
}

// sweepCount reads the Dijkstra-run counter of a sweep-backed oracle; 0 for
// the table-backed ones.
func sweepCount(o core.RouteOracle) int64 {
	if sc, ok := o.(interface{ SweepCount() int64 }); ok {
		return sc.SweepCount()
	}
	return 0
}

// countFailure records a query that was not answered with a feasible route,
// keeping the first one's reason.
func (e *BenchEntry) countFailure(res core.Result, err error) {
	if err == nil && len(res.Routes) > 0 && res.Routes[0].Feasible {
		return
	}
	e.Failures++
	if e.FailureReason != "" {
		return
	}
	switch {
	case err != nil:
		e.FailureReason = err.Error()
	case len(res.Routes) == 0:
		e.FailureReason = "no route returned"
	default:
		e.FailureReason = "best route infeasible (budget violated)"
	}
}

func benchLineup() []Algorithm {
	oss := core.DefaultOptions()
	bb := core.DefaultOptions()
	g := core.DefaultOptions()
	return []Algorithm{
		{Name: "OSScaling", Opts: oss, Kind: KindOSScaling},
		{Name: "BucketBound", Opts: bb, Kind: KindBucketBound},
		{Name: "Greedy1", Opts: g, Kind: KindGreedy},
	}
}

func benchWorkloads(o BenchOptions) []benchWorkload {
	flickr := func(bo BenchOptions) (*Dataset, error) {
		return NewFlickrDataset(Config{Seed: bo.Seed, Queries: bo.Queries, FastFlickr: bo.Smoke})
	}
	roadNodes := 5000
	if o.Smoke {
		roadNodes = 1500
	}
	road := func(bo BenchOptions) (*Dataset, error) {
		return NewRoadDataset(Config{Seed: bo.Seed, Queries: bo.Queries}, roadNodes), nil
	}
	roadIndexed := func(bo BenchOptions) (*Dataset, error) {
		return NewRoadIndexedDataset(Config{Seed: bo.Seed, Queries: bo.Queries}, roadNodes)
	}
	return []benchWorkload{
		{
			name:    "flickr-dense",
			build:   flickr,
			m:       6,
			delta:   6,
			lineup:  benchLineup(),
			descrip: "Flickr-like city graph, dense (matrix) oracle, m=6 Δ=6",
		},
		{
			name:    "road-lazy",
			build:   road,
			m:       6,
			delta:   9,
			lineup:  benchLineup(),
			descrip: "synthetic road network, lazy sweep oracle, m=6 Δ=9",
		},
		{
			name:    "road-indexed",
			build:   roadIndexed,
			m:       6,
			delta:   9,
			lineup:  benchLineup(),
			descrip: "same road network served from the disk-loaded partitioned index (mmap), m=6 Δ=9",
		},
	}
}

// RunBench measures the serving workloads and returns the report. log, when
// non-nil, receives progress lines.
func RunBench(o BenchOptions, log io.Writer) (*BenchReport, error) {
	o = o.withDefaults()
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	report := &BenchReport{Schema: 1, GoVersion: runtime.Version(), Smoke: o.Smoke, Seed: o.Seed}
	for _, w := range benchWorkloads(o) {
		ds, err := w.build(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench workload %s: %w", w.name, err)
		}
		queries := ds.Queries(Config{Seed: o.Seed, Queries: o.Queries}, w.m, w.delta)
		logf("bench %s (%s): %d queries", w.name, w.descrip, len(queries))
		for _, algo := range w.lineup {
			e, err := measureBench(ds, queries, algo, o.Iters)
			if err != nil {
				if ds.Cleanup != nil {
					ds.Cleanup()
				}
				return nil, fmt.Errorf("experiments: bench %s/%s: %w", w.name, algo.Name, err)
			}
			e.Workload = w.name
			report.Entries = append(report.Entries, e)
			logf("  %-12s %12.0f ns/op  %8.0f labels/op  %6.2f sweeps/op (%.2f plan)  %8.0f allocs/op",
				algo.Name, e.NsPerOp, e.LabelsPerOp, e.SweepsPerOp, e.PlanSweepsPerOp, e.AllocsPerOp)
		}
		if ds.Cleanup != nil {
			if err := ds.Cleanup(); err != nil {
				return nil, fmt.Errorf("experiments: bench workload %s cleanup: %w", w.name, err)
			}
		}
	}
	if err := runConcurrentMixed(o, report, logf); err != nil {
		return nil, err
	}
	return report, nil
}

// mixedOp is one operation of the concurrent-mixed workload: a query paired
// with the algorithm that answers it.
type mixedOp struct {
	q    core.Query
	algo Algorithm
}

// concurrentMixWorkers bounds the worker pool of the concurrent-mixed cell.
const concurrentMixWorkers = 8

// runConcurrentMixed measures concurrent serving on one lazy-oracle
// Searcher: a worker pool draining a shuffled mix in which every query
// appears several times under rotating algorithms. Plans share no sweeps, so
// the cell measures contention on the shared scratch pool and allocator, not
// reuse.
func runConcurrentMixed(o BenchOptions, report *BenchReport, logf func(string, ...any)) error {
	const name = "concurrent-mixed"
	roadNodes := 5000
	if o.Smoke {
		roadNodes = 1500
	}
	ds := NewRoadDataset(Config{Seed: o.Seed, Queries: o.Queries}, roadNodes)
	queries := ds.Queries(Config{Seed: o.Seed, Queries: o.Queries}, 6, 9)
	lineup := benchLineup()

	// Duplicate-heavy mix: every query appears once per lineup algorithm,
	// shuffled deterministically so duplicates arrive interleaved, not
	// back-to-back.
	mix := make([]mixedOp, 0, len(queries)*len(lineup))
	for _, algo := range lineup {
		for _, q := range queries {
			mix = append(mix, mixedOp{q: q, algo: algo})
		}
	}
	rng := rand.New(rand.NewSource(o.Seed + 17))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })

	logf("bench %s (duplicate-heavy worker-pool mix, lazy sweep oracle, %d workers): %d ops",
		name, concurrentMixWorkers, len(mix))
	e, err := measureConcurrentMixed(ds, mix, o.Iters)
	if err != nil {
		return fmt.Errorf("experiments: bench %s: %w", name, err)
	}
	e.Workload = name
	report.Entries = append(report.Entries, e)
	logf("  %-12s %12.0f ns/op  %8.0f labels/op  %6.2f sweeps/op (%.2f plan)  %8.0f allocs/op",
		e.Algorithm, e.NsPerOp, e.LabelsPerOp, e.SweepsPerOp, e.PlanSweepsPerOp, e.AllocsPerOp)
	return nil
}

// measureConcurrentMixed times iters worker-pool passes over the mix on one
// fresh oracle, as a real engine serves every request of a snapshot from
// one. The entry keeps its MixedShared name so reports stay comparable.
func measureConcurrentMixed(ds *Dataset, mix []mixedOp, iters int) (BenchEntry, error) {
	e := BenchEntry{Algorithm: "MixedShared", Queries: len(mix), Iters: iters}
	if len(mix) == 0 {
		return e, fmt.Errorf("no operations generated")
	}
	for _, op := range mix { // untimed pass: counts failures
		e.countFailure(op.algo.invoke(ds.Searcher, op.q))
	}
	oracle := apsp.NewLazyOracle(ds.Graph)
	searcher := core.NewSearcher(ds.Graph, oracle, ds.Index)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var labels, planSweeps int64
	start := time.Now()
	for it := 0; it < iters; it++ {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < concurrentMixWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var l, p int64
				for i := range next {
					res, _ := mix[i].algo.invoke(searcher, mix[i].q)
					l += int64(res.Metrics.LabelsCreated)
					p += int64(res.Metrics.PlanSweeps)
				}
				atomic.AddInt64(&labels, l)
				atomic.AddInt64(&planSweeps, p)
			}()
		}
		for i := range mix {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	ops := float64(iters * len(mix))
	e.NsPerOp = float64(elapsed.Nanoseconds()) / ops
	e.LabelsPerOp = float64(labels) / ops
	e.PlanSweepsPerOp = float64(planSweeps) / ops
	e.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / ops
	e.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	e.HeapAllocDeltaBytes = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	e.HeapSysDeltaBytes = int64(m1.HeapSys) - int64(m0.HeapSys)
	e.SweepsPerOp = float64(oracle.SweepCount()) / ops
	return e, nil
}

// measureBench times iters passes over the query set, reading allocation and
// sweep counters around the measured region. One untimed pass first warms
// what the oracle keeps between queries (a partitioned oracle's slices),
// standing in for the paper's offline pre-processing, and counts failures.
// The lazy oracle keeps nothing, so its timings include each query's own
// sweeps.
func measureBench(ds *Dataset, queries []core.Query, algo Algorithm, iters int) (BenchEntry, error) {
	e := BenchEntry{Algorithm: algo.Name, Queries: len(queries), Iters: iters}
	if len(queries) == 0 {
		return e, fmt.Errorf("no queries generated")
	}
	for _, q := range queries { // warm pass, also counts failures
		e.countFailure(algo.invoke(ds.Searcher, q))
	}
	sweeps0 := sweepCount(ds.Searcher.Oracle())

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	labels, planSweeps := 0, 0
	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, q := range queries {
			res, _ := algo.invoke(ds.Searcher, q)
			labels += res.Metrics.LabelsCreated
			planSweeps += res.Metrics.PlanSweeps
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	ops := float64(iters * len(queries))
	e.NsPerOp = float64(elapsed.Nanoseconds()) / ops
	e.LabelsPerOp = float64(labels) / ops
	e.PlanSweepsPerOp = float64(planSweeps) / ops
	e.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / ops
	e.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	e.HeapAllocDeltaBytes = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	e.HeapSysDeltaBytes = int64(m1.HeapSys) - int64(m0.HeapSys)
	e.SweepsPerOp = float64(sweepCount(ds.Searcher.Oracle())-sweeps0) / ops
	return e, nil
}

// WriteBenchReport writes the report as indented JSON to path ("-" = stdout).
func WriteBenchReport(r *BenchReport, path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ReadBenchReport loads a report written by WriteBenchReport.
func ReadBenchReport(path string) (*BenchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench report %s: %w", path, err)
	}
	return &r, nil
}

// Regression is one (workload, algorithm) cell that got worse between two
// reports: its ns/op grew past the allowed ratio, or its failure count
// increased. A cell that regressed both ways yields two entries.
type Regression struct {
	Workload  string
	Algorithm string
	BaseNs    float64
	CurNs     float64
	Ratio     float64
	// Failure-count regression (Ratio is 0 on these entries).
	BaseFailures int
	CurFailures  int
	// FailureReason is the current report's recorded reason, when any.
	FailureReason string
	// Heap-footprint regression (set only on heap entries).
	BaseHeapBytes int64
	CurHeapBytes  int64
}

func (r Regression) String() string {
	if r.CurFailures > r.BaseFailures {
		reason := ""
		if r.FailureReason != "" {
			reason = " (" + r.FailureReason + ")"
		}
		return fmt.Sprintf("%s/%s: failures %d -> %d%s",
			r.Workload, r.Algorithm, r.BaseFailures, r.CurFailures, reason)
	}
	if r.CurHeapBytes > r.BaseHeapBytes {
		return fmt.Sprintf("%s/%s: heap growth %.1f MiB -> %.1f MiB",
			r.Workload, r.Algorithm, float64(r.BaseHeapBytes)/(1<<20), float64(r.CurHeapBytes)/(1<<20))
	}
	return fmt.Sprintf("%s/%s: %.0f ns/op -> %.0f ns/op (%.2fx)",
		r.Workload, r.Algorithm, r.BaseNs, r.CurNs, r.Ratio)
}

// gateFloorNs is the minimum baseline measured-region wall time (ns/op ×
// queries × iters) for a cell to participate in regression gating. Cells
// below it complete in microseconds, where scheduler noise alone can exceed
// the regression ratio.
const gateFloorNs = 5e6

// heapGateFloorBytes is the minimum absolute HeapSys growth over baseline
// before the heap gate fires. Heap deltas of sequentially-run cells are
// order-dependent and the runtime grows HeapSys in multi-megabyte spans, so
// only movements a real layout regression would cause are gated.
const heapGateFloorBytes = 32 << 20

// CompareBench reports every cell present in both reports that regressed:
// current ns/op exceeding maxRatio times the base, a failure count that
// grew — failures are deterministic over the fixed query set, so any
// increase means a query that used to be answered no longer is, regardless
// of how fast the cell runs — or measured-region heap growth (HeapSys
// delta) past both maxRatio and an absolute heapGateFloorBytes over the
// baseline. Cells present in only one report are ignored
// (workload sets may evolve between revisions); the ns/op gate additionally
// skips cells whose baseline measured region is under gateFloorNs — too
// noisy to gate. Callers must compare like with like: a smoke report is
// only comparable to another smoke report (BenchReport.Smoke).
func CompareBench(base, cur *BenchReport, maxRatio float64) []Regression {
	index := make(map[string]BenchEntry, len(base.Entries))
	for _, e := range base.Entries {
		index[e.Workload+"/"+e.Algorithm] = e
	}
	var out []Regression
	for _, e := range cur.Entries {
		b, ok := index[e.Workload+"/"+e.Algorithm]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if e.Failures > b.Failures {
			out = append(out, Regression{
				Workload: e.Workload, Algorithm: e.Algorithm,
				BaseFailures: b.Failures, CurFailures: e.Failures,
				FailureReason: e.FailureReason,
			})
		}
		// Heap gate: fire only past both the absolute floor and the ratio —
		// either alone is noise (a tiny baseline doubles trivially; a big
		// workload growing 5% is within run-to-run variance).
		growth := e.HeapSysDeltaBytes - b.HeapSysDeltaBytes
		if growth > heapGateFloorBytes && float64(e.HeapSysDeltaBytes) > maxRatio*float64(max(b.HeapSysDeltaBytes, 1)) {
			out = append(out, Regression{
				Workload: e.Workload, Algorithm: e.Algorithm,
				BaseHeapBytes: b.HeapSysDeltaBytes, CurHeapBytes: e.HeapSysDeltaBytes,
			})
		}
		if b.NsPerOp*float64(b.Queries*b.Iters) < gateFloorNs {
			continue
		}
		ratio := e.NsPerOp / b.NsPerOp
		if ratio > maxRatio {
			out = append(out, Regression{
				Workload: e.Workload, Algorithm: e.Algorithm,
				BaseNs: b.NsPerOp, CurNs: e.NsPerOp, Ratio: ratio,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// BenchMarkdown renders the report as the Markdown table README embeds.
func BenchMarkdown(r *BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| Workload | Algorithm | ms/query | Labels/query | Sweeps/query | Plan sweeps/query | Allocs/query |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|\n")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "| %s | %s | %.2f | %.0f | %.2f | %.2f | %.0f |\n",
			e.Workload, e.Algorithm, e.NsPerOp/1e6, e.LabelsPerOp, e.SweepsPerOp, e.PlanSweepsPerOp, e.AllocsPerOp)
	}
	return b.String()
}
