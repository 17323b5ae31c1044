package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kor"
	"kor/bench/internal/layers"
	"kor/bench/internal/load"
	"kor/bench/internal/proc"
	"kor/bench/internal/stat"
	"kor/bench/internal/stream"
	"kor/bench/internal/trace"
	"kor/bench/internal/verify"
	"kor/korapi"
)

// ratioSample is how many answers objective_ratio is computed over: the
// first distinct feasible ones of the window, by stream index.
const ratioSample = 96

// noRouteChecks is how many of a window's no_route answers are re-derived in
// process; the rest are taken on trust. Unsharded servers produce a handful
// per window, the router up to a tenth of its answers.
const noRouteChecks = 25

// minSamples is the fewest window samples latency_p95_ms can be read from
// with ten samples beyond it.
const minSamples = 200

// env is where a run finds the binaries and keeps its files.
type env struct {
	binDir string // korserve and korrouter, built by run.sh
	tmpDir string // parent of each run's scratch directory
	outDir string // trace files
}

// result is one run of one workload.
type result struct {
	attempted int
	failed    int
	// firstFailure explains the first failed operation.
	firstFailure string
	endToEnd     map[string]float64
	// perLayer is nil for an untraced run.
	perLayer map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// statsOf fetches /v1/stats.
func statsOf(client *http.Client, url string) (korapi.Stats, error) {
	var st korapi.Stats
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// driven is what the load phase produced.
type driven struct {
	// origin is the instant sample and patch offsets count from.
	origin time.Time
	// measured are the window's samples, patches its admin patches.
	measured []load.Sample
	patches  []load.Patch
	// rssMiB is the servers' summed resident set, sampled at 10 Hz through
	// the window; peakRSSMiB their summed high-water mark when it closed.
	// Both stay empty where the platform does not expose them.
	rssMiB     []float64
	peakRSSMiB float64
	// warmUpS is how long the warm-up took.
	warmUpS float64

	// The rest is filled in only for a traced run: /v1/stats when the window
	// opened and closed, the 10 Hz poll of the oracle block in between, and
	// the open-loop phase's samples with the generator's lateness on each.
	before, after korapi.Stats
	polls         int
	degradedPolls int
	open          []load.Sample
	lag           []time.Duration
}

// runWorkload performs one complete run: dataset, set-up, warm-up, measured
// window, verification, and — when traced — the per-layer probes.
func runWorkload(ctx context.Context, e env, w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	dir, err := os.MkdirTemp(e.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	group := &proc.Group{}
	defer group.Close()

	began := time.Now()
	lap := func() float64 {
		s := time.Since(began).Seconds()
		began = time.Now()
		return s
	}
	fx, err := newFixture(w, dir)
	if err != nil {
		return nil, err
	}
	checker, err := verify.New(fx.g)
	if err != nil {
		return nil, err
	}
	st, err := stream.New(fx.g, w.streamSpec(fx.g), seed, "load")
	if err != nil {
		return nil, err
	}
	// Generate ahead what the load is expected to take — the warm-up is about
	// a second of traffic — so the clients spend the window sending, not
	// generating; a faster server just makes the stream extend itself.
	if _, err := st.At(w.warmQueries * (5 + int(window.Seconds()))); err != nil {
		return nil, err
	}
	admin := load.NewClient(2)
	dep, err := deploy(ctx, w, fx, e.binDir, dir, group, admin)
	if err != nil {
		return nil, err
	}

	setUpS := lap()

	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder()
	}
	drv, err := drive(ctx, w, dep, st, admin, window, traced)
	if err != nil {
		return nil, err
	}
	loadS := lap()

	res := &result{endToEnd: make(map[string]float64)}
	sort.Slice(drv.measured, func(i, j int) bool { return drv.measured[i].Index < drv.measured[j].Index })
	ev, err := newEvaluator(w, fx, checker, st)
	if err != nil {
		return nil, err
	}
	answers := ev.judge(ctx, res, drv.measured)
	for _, p := range drv.patches {
		res.attempted++
		if p.Err != nil || p.Status != http.StatusOK {
			res.fail("admin patch at %v: status %d, %v", p.At, p.Status, p.Err)
		}
	}

	var latencies []float64
	for _, a := range answers {
		latencies = append(latencies, ms(a.sample.Latency()))
	}
	res.endToEnd["throughput_qps"] = float64(len(answers)) / window.Seconds()
	res.endToEnd["latency_p50_ms"], _ = stat.Percentile(latencies, 50)
	p95, supported := stat.Percentile(latencies, 95)
	res.endToEnd["latency_p95_ms"] = p95
	if !supported {
		fmt.Fprintf(os.Stderr, "%s: %d verified samples, fewer than the %d latency_p95_ms needs for ten samples beyond it\n",
			w.name, len(answers), minSamples)
	}
	if len(drv.measured) > 0 {
		res.endToEnd["answered_share"] = float64(len(answers)) / float64(len(drv.measured))
	}
	if res.endToEnd["objective_ratio"], err = ev.objectiveRatio(ctx, answers); err != nil {
		return nil, err
	}
	if len(drv.rssMiB) > 0 {
		res.endToEnd["rss_mib"] = stat.Median(drv.rssMiB)
	}
	res.endToEnd["setup_s"] = fx.preprocessS() + dep.startS
	verifyS := lap()

	if traced {
		res.perLayer, err = tracedRun(ctx, e, dir, w, fx, dep, ev, seed, rec, drv, answers)
		if err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: data and set-up %.1fs, load %.1fs (warm-up %.1fs), verification %.1fs, tracing %.1fs; %d samples\n",
		w.name, seed, setUpS, loadS, drv.warmUpS, verifyS, lap(), len(drv.measured))
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// churnBodies are the two patches road-indexed-churn alternates: add, then
// remove, the marker keyword. Adding it moves the graph off the distance
// index's fingerprint (the server degrades to a lazy oracle); removing it
// restores the fingerprint and the index.
func churnBodies() [][]byte {
	kw := []korapi.DeltaKeywords{{Node: layers.MarkerNode, Keywords: []string{layers.MarkerKeyword}}}
	add, _ := json.Marshal(korapi.Delta{AddKeywords: kw})
	remove, _ := json.Marshal(korapi.Delta{RemoveKeywords: kw})
	return [][]byte{add, remove}
}

// drive runs the workload's warm-up and measured window against url: a
// closed loop of clients clients in which the first w.warmQueries requests
// warm up and the window opens when the next one starts. A churn workload's
// patches flow from the start, so the warm-up warms both oracle modes.
//
// A traced run of a workload with an open-loop rate appends an open-loop
// phase: the same stream and patch schedule at a fixed arrival rate, latency
// counted from each request's due time. Its first patch cycle is lead-in.
func drive(ctx context.Context, w workload, dep *deployment, st *stream.Stream, admin *http.Client, window time.Duration, traced bool) (*driven, error) {
	url := dep.url
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	drv := &driven{origin: time.Now()}
	windowOpen := make(chan struct{})
	loadDone := make(chan struct{})
	var side sync.WaitGroup
	var watchErr error
	if traced {
		side.Add(1)
		go func() {
			defer side.Done()
			watchErr = drv.watch(ctx, admin, url, windowOpen, loadDone)
		}()
	}
	side.Add(1)
	go func() {
		defer side.Done()
		drv.sampleRSS(ctx, dep, windowOpen, loadDone)
	}()
	var patches []load.Patch
	churnCtx, stopChurn := context.WithCancel(ctx)
	defer stopChurn()
	if w.churn {
		side.Add(1)
		go func() {
			defer side.Done()
			patches = load.Churn(churnCtx, admin, url, churnBodies(), []time.Duration{0, churnDegraded}, churnPeriod, drv.origin)
		}()
	}

	samples, next, windowStart, err := load.Closed(ctx, url, st, clients, w.warmQueries, drv.origin, window, func() { close(windowOpen) })
	windowEnd := time.Since(drv.origin)
	close(loadDone)
	if err != nil {
		return nil, err
	}
	drv.peakRSSMiB, _ = dep.rssMiB((*proc.Proc).PeakRSSMiB)
	for _, s := range samples {
		if s.Index >= w.warmQueries {
			drv.measured = append(drv.measured, s)
		}
	}
	drv.warmUpS = windowStart.Seconds()

	if traced && w.openRate > 0 {
		origin := time.Now()
		open, lag, err := load.Open(ctx, url, openConns, st, w.openRate, next, origin, churnPeriod+openWindow)
		if err != nil {
			return nil, err
		}
		offset := origin.Sub(drv.origin)
		for k, s := range open {
			if s.Due >= churnPeriod {
				s.Due, s.Start, s.End = s.Due+offset, s.Start+offset, s.End+offset
				drv.open = append(drv.open, s)
				drv.lag = append(drv.lag, lag[k])
			}
		}
	}
	stopChurn()
	side.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range patches {
		if p.At >= windowStart && p.At < windowEnd {
			drv.patches = append(drv.patches, p)
		}
	}
	return drv, watchErr
}

// opened waits for the window to open; it reports false when the run was
// cancelled or the load ended without opening one.
func opened(ctx context.Context, windowOpen, loadDone <-chan struct{}) bool {
	select {
	case <-ctx.Done():
		return false
	case <-loadDone:
		return false
	case <-windowOpen:
		return true
	}
}

// sampleRSS reads the servers' resident set every 100 ms while the window
// is open. The gated memory metric is the median of these readings: the
// high-water mark of a garbage-collected server is set by which allocation
// burst happened to precede a collection and varies by a fifth between
// identical runs.
func (drv *driven) sampleRSS(ctx context.Context, dep *deployment, windowOpen, loadDone <-chan struct{}) {
	if !opened(ctx, windowOpen, loadDone) {
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-loadDone:
			return
		case <-tick.C:
			if mib, ok := dep.rssMiB((*proc.Proc).RSSMiB); ok {
				drv.rssMiB = append(drv.rssMiB, mib)
			}
		}
	}
}

// watch snapshots /v1/stats when the window opens and when the load is done
// and polls the oracle block at 10 Hz in between.
func (drv *driven) watch(ctx context.Context, client *http.Client, url string, windowOpen, loadDone <-chan struct{}) error {
	if !opened(ctx, windowOpen, loadDone) {
		return nil
	}
	var err error
	if drv.before, err = statsOf(client, url); err != nil {
		return fmt.Errorf("stats at window start: %w", err)
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-loadDone:
			if drv.after, err = statsOf(client, url); err != nil {
				return fmt.Errorf("stats at window end: %w", err)
			}
			return nil
		case <-tick.C:
			st, err := statsOf(client, url)
			if err != nil {
				return fmt.Errorf("polling stats: %w", err)
			}
			drv.polls++
			if st.Oracle != nil && st.Oracle.Degraded {
				drv.degradedPolls++
			}
		}
	}
}

// answer is one verified 200 of the window.
type answer struct {
	sample load.Sample
	query  stream.Query
	resp   korapi.Response
}

// evaluator judges the window's samples off the clock.
type evaluator struct {
	w       workload
	fx      *fixture
	checker *verify.Checker
	st      *stream.Stream
	// full answers references on the whole graph; shards, one per shard
	// graph, re-derive a router's no_route the way its replicas would.
	full   *kor.Engine
	shards []*kor.Engine
}

func newEvaluator(w workload, fx *fixture, checker *verify.Checker, st *stream.Stream) (*evaluator, error) {
	// A lazy oracle builds in no time and answers exactly like the others.
	cfg := &kor.EngineConfig{Oracle: kor.OracleLazy}
	full, err := kor.NewEngine(fx.g, cfg)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{w: w, fx: fx, checker: checker, st: st, full: full}
	if fx.cut != nil {
		for _, sg := range fx.cut.Graphs {
			eng, err := kor.NewEngine(sg, cfg)
			if err != nil {
				return nil, err
			}
			ev.shards = append(ev.shards, eng)
		}
	}
	return ev, nil
}

// judge counts every sample as attempted, verifies it, records failures on
// res and returns the verified answers in stream order.
func (ev *evaluator) judge(ctx context.Context, res *result, measured []load.Sample) []answer {
	var answers []answer
	noRoutes := 0
	for _, s := range measured {
		res.attempted++
		q, err := ev.st.At(s.Index)
		switch {
		case err != nil:
			res.fail("request %d: %v", s.Index, err)
		case s.Err != nil:
			res.fail("request %d: %v", s.Index, s.Err)
		case s.Status == http.StatusOK:
			var resp korapi.Response
			if err := json.Unmarshal(s.Body, &resp); err != nil {
				res.fail("request %d: undecodable 200: %v", s.Index, err)
			} else if err := ev.checker.Check(q.Request, resp); err != nil {
				res.fail("request %d %s: %v", s.Index, q.Body, err)
			} else {
				answers = append(answers, answer{s, q, resp})
			}
		case isNoRouteReply(s.Status, s.Body):
			// An honest "no route" is an answer, not a failure — unless the
			// benchmark's own engine finds the route the server denied.
			if noRoutes++; noRoutes <= noRouteChecks {
				if found, err := ev.routeExists(ctx, q.Request); err != nil {
					res.fail("request %d: reference: %v", s.Index, err)
				} else if found {
					res.fail("request %d %s: server says no_route, reference finds one", s.Index, q.Body)
				}
			}
		default:
			res.fail("request %d: status %d: %s", s.Index, s.Status, s.Body)
		}
	}
	return answers
}

func errorCode(body []byte) korapi.ErrorCode {
	var env korapi.ErrorEnvelope
	if json.Unmarshal(body, &env) != nil {
		return ""
	}
	return env.Error.Code
}

// routeExists re-derives a no_route in process: on the full graph for a
// single server, on each shard graph of the scatter set for the router
// (which can only find routes its shards hold; what sharding loses shows in
// answered_share and korrouter.lost_route_share, not as a failure).
func (ev *evaluator) routeExists(ctx context.Context, wire korapi.Request) (bool, error) {
	req, err := wire.KorRequest()
	if err != nil {
		return false, err
	}
	engines := []*kor.Engine{ev.full}
	if ev.shards != nil {
		engines = nil
		for _, id := range ev.fx.cut.Map.ScatterSet(wire.From, wire.To, wire.Keywords) {
			engines = append(engines, ev.shards[id])
		}
	}
	for _, eng := range engines {
		resp, err := eng.Run(ctx, req)
		if err == nil || len(resp.Routes) > 0 {
			return true, nil
		}
		if !isNoRoute(err) {
			return false, err
		}
	}
	return false, nil
}

// objectiveRatio is the paper's relative ratio: the mean, over the first
// ratioSample distinct feasible answers, of the served objective score
// divided by that of OSScaling at ε=0.1 run in process on the same query.
// The references run on every core: the servers are idle by now.
func (ev *evaluator) objectiveRatio(ctx context.Context, answers []answer) (float64, error) {
	opts := kor.DefaultOptions()
	opts.Epsilon = 0.1
	seen := make(map[string]bool)
	var picked []answer
	for _, a := range answers {
		if len(picked) == ratioSample {
			break
		}
		if a.resp.Routes[0].Feasible && !seen[string(a.query.Body)] {
			seen[string(a.query.Body)] = true
			picked = append(picked, a)
		}
	}
	ratios := make([]float64, len(picked))
	errs := make([]error, len(picked))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(picked); i = int(next.Add(1) - 1) {
				a := picked[i]
				req, err := a.query.Request.KorRequest()
				if err == nil {
					req.Algorithm, req.Options = kor.AlgorithmOSScaling, &opts
					var ref kor.Response
					if ref, err = ev.full.Run(ctx, req); err == nil {
						ratios[i] = a.resp.Routes[0].Objective / ref.Best().Objective
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("reference for request %d: %w", a.sample.Index, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return stat.Mean(ratios), nil
}
