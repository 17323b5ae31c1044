package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kor/korapi"
)

// config is everything one load run needs. Flags in main.go map onto it
// one-to-one; tests construct it directly.
type config struct {
	URL         string        // korserve base URL
	Targets     string        // comma-separated base URLs for multi-target runs; overrides URL
	Duration    time.Duration // how long to drive load
	QPS         float64       // fixed arrival rate; 0 = closed loop
	Concurrency int           // worker count
	Timeout     time.Duration // per-request client timeout
	Seed        int64         // workload RNG seed

	// Synthesized workload shape.
	Mix         string        // algorithm blend, e.g. "bucketbound=0.7,greedy=0.3"
	KeywordsMin int           // smallest keyword-set size
	KeywordsMax int           // largest keyword-set size
	BudgetMin   float64       // budget draw lower bound; 0 = auto from /v1/stats
	BudgetMax   float64       // budget draw upper bound; 0 = auto from /v1/stats
	K           int           // K for topk requests
	Locality    int           // draw To within ±Locality node IDs of From; 0 = uniform
	DupFraction float64       // fraction of requests re-issued verbatim from the recent pool
	WithMetrics bool          // ask the server to attach search metrics
	ReplayPath  string        // JSON file of korapi.Requests to replay instead of synthesizing
	ChurnEvery  time.Duration // POST an admin keyword patch this often; 0 = off

	// SLO gates; the zero value of each disables it.
	SLOP50          time.Duration
	SLOP99          time.Duration
	SLOMaxErrorRate float64 // -1 disables; 0 means "no errors allowed"
	SLOMinQPS       float64
	Require429      bool // fail unless at least one request was shed (oversaturation runs)
}

// Outcomes buckets every response by its operational class. The classes are
// what an operator alarms on, not raw status codes: a no_route 404 is a
// correct answer to an infeasible query, a 429 is deliberate load shedding,
// and only the error class means something is wrong.
type Outcomes struct {
	// OK counts 2xx responses.
	OK int `json:"ok"`
	// NoRoute counts 404s — the server proved no feasible route exists.
	NoRoute int `json:"no_route"`
	// Rejected counts 429s from admission control.
	Rejected int `json:"rejected"`
	// ClientError counts 400/422 — malformed synthesis, a driver bug.
	ClientError int `json:"client_error"`
	// Error counts everything else: 5xx, 504 deadlines, transport failures.
	Error int `json:"error"`
}

func (o *Outcomes) total() int {
	return o.OK + o.NoRoute + o.Rejected + o.ClientError + o.Error
}

// Latency summarizes the latency distribution in milliseconds. Percentiles
// are computed over every request that got an HTTP response (including
// rejections — shedding fast is part of the contract).
type Latency struct {
	MeanMS float64 `json:"mean"`
	P50MS  float64 `json:"p50"`
	P95MS  float64 `json:"p95"`
	P99MS  float64 `json:"p99"`
	MaxMS  float64 `json:"max"`
}

// Report is korload's JSON output — the artifact CI archives and gates on.
type Report struct {
	Target          string   `json:"target"`
	DurationSeconds float64  `json:"duration_seconds"`
	Requests        int      `json:"requests"`
	ThroughputQPS   float64  `json:"throughput_qps"`
	Latency         Latency  `json:"latency_ms"`
	Outcomes        Outcomes `json:"outcomes"`
	ErrorRate       float64  `json:"error_rate"`
	RejectedRate    float64  `json:"rejected_rate"`
	AdminPatches    int      `json:"admin_patches,omitempty"`
	AdminErrors     int      `json:"admin_errors,omitempty"`
	// Targets is the per-target breakdown of a -targets run, request order
	// round-robin; absent on single-target runs.
	Targets       []TargetReport `json:"targets,omitempty"`
	SLOViolations []string       `json:"slo_violations"`
	Pass          bool           `json:"pass"`
}

// TargetReport is one target's slice of a multi-target run. The latency
// and error gates apply to every target individually — a cluster run
// passing only because the fast router target drowns out a sick shard
// replica defeats the point of driving them together.
type TargetReport struct {
	URL           string   `json:"url"`
	Requests      int      `json:"requests"`
	ThroughputQPS float64  `json:"throughput_qps"`
	Latency       Latency  `json:"latency_ms"`
	Outcomes      Outcomes `json:"outcomes"`
	ErrorRate     float64  `json:"error_rate"`
	RejectedRate  float64  `json:"rejected_rate"`
}

// parseTargets splits and normalizes the -targets list.
func parseTargets(spec string) ([]string, error) {
	var targets []string
	for _, t := range strings.Split(spec, ",") {
		t = strings.TrimRight(strings.TrimSpace(t), "/")
		if t == "" {
			continue
		}
		u, err := url.Parse(t)
		if err != nil || u.Scheme == "" {
			return nil, fmt.Errorf("bad target URL %q", t)
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("empty -targets list %q", spec)
	}
	return targets, nil
}

// mixEntry is one algorithm with its sampling weight.
type mixEntry struct {
	algo   string
	weight float64
}

// parseMix parses "bucketbound=0.7,greedy=0.2,topk=0.1"; a bare name gets
// weight 1. Weights need not sum to 1 — sampling normalizes.
func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1.0
		if found {
			var err error
			w, err = strconv.ParseFloat(wstr, 64)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
		}
		if name == "" {
			return nil, fmt.Errorf("bad mix entry %q", part)
		}
		mix = append(mix, mixEntry{algo: name, weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty algorithm mix %q", s)
	}
	return mix, nil
}

// sample draws one algorithm proportionally to the weights.
func sampleMix(mix []mixEntry, rng *rand.Rand) string {
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	if total <= 0 {
		return mix[0].algo
	}
	x := rng.Float64() * total
	for _, m := range mix {
		if x < m.weight {
			return m.algo
		}
		x -= m.weight
	}
	return mix[len(mix)-1].algo
}

// workload produces the request stream: either synthesized against the
// target graph's shape, or replayed from a file.
type workload struct {
	replay []korapi.Request
	next   atomic.Int64 // replay cursor

	mix          []mixEntry
	nodes        int
	vocab        []string
	kwMin, kwMax int
	budgetMin    float64
	budgetMax    float64
	k            int
	locality     int
	metrics      bool

	// Duplicate-heavy traffic: with probability dupFraction a worker
	// re-issues a verbatim recent request instead of synthesizing a fresh
	// one — the shape that exercises the server's result cache and request
	// coalescing. The pool is a small ring shared across
	// workers (each worker owns its rng, but duplicates must cross workers
	// to collide in-flight).
	dupFraction float64
	dupMu       sync.Mutex
	recent      []korapi.Request
	recentAt    int
}

// dupPoolSize bounds the recent-request ring duplicates are drawn from. Small
// on purpose: a tight pool keeps re-issue probability per distinct request
// high enough to collide with itself in flight.
const dupPoolSize = 32

// newWorkload probes the server for the graph's shape (node count, budget
// extrema, vocabulary) and prepares the generator, or loads the replay file.
func newWorkload(cfg config, client *http.Client) (*workload, error) {
	if cfg.ReplayPath != "" {
		reqs, err := loadReplay(cfg.ReplayPath)
		if err != nil {
			return nil, err
		}
		return &workload{replay: reqs}, nil
	}

	var st korapi.Stats
	if err := getJSON(client, cfg.URL+"/v1/stats", &st); err != nil {
		return nil, fmt.Errorf("probing /v1/stats: %w", err)
	}
	if st.Nodes == 0 {
		return nil, fmt.Errorf("target graph has no nodes")
	}
	var kws korapi.KeywordsResponse
	if err := getJSON(client, cfg.URL+"/v1/keywords?limit=200&prefix=", &kws); err != nil {
		return nil, fmt.Errorf("probing /v1/keywords: %w", err)
	}
	if len(kws.Keywords) == 0 {
		return nil, fmt.Errorf("target graph has no keywords to query")
	}
	vocab := make([]string, len(kws.Keywords))
	for i, k := range kws.Keywords {
		vocab[i] = k.Keyword
	}

	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	w := &workload{
		mix:         mix,
		nodes:       st.Nodes,
		vocab:       vocab,
		kwMin:       cfg.KeywordsMin,
		kwMax:       cfg.KeywordsMax,
		budgetMin:   cfg.BudgetMin,
		budgetMax:   cfg.BudgetMax,
		k:           cfg.K,
		locality:    cfg.Locality,
		dupFraction: cfg.DupFraction,
		metrics:     cfg.WithMetrics,
	}
	if w.kwMin < 1 {
		w.kwMin = 1
	}
	if w.kwMax < w.kwMin {
		w.kwMax = w.kwMin
	}
	if n := len(w.vocab); w.kwMax > n {
		w.kwMax = n
		if w.kwMin > n {
			w.kwMin = n
		}
	}
	// Auto budget range: between the longest single edge and a handful of
	// them, so the stream mixes feasible routes with proved-infeasible ones
	// — both are realistic traffic. Each bound is auto-filled independently
	// when the operator left it unset.
	base := st.MaxBudget
	if base <= 0 {
		base = 10
	}
	if w.budgetMax <= 0 {
		w.budgetMax = 8 * base
	}
	if w.budgetMin <= 0 {
		w.budgetMin = base
	}
	if w.budgetMin > w.budgetMax {
		w.budgetMin = w.budgetMax
	}
	return w, nil
}

// loadReplay reads korapi.Requests from a JSON array or JSON-lines file.
func loadReplay(path string) ([]korapi.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("replay file %s is empty", path)
	}
	var reqs []korapi.Request
	if head[0] == '[' {
		if err := json.NewDecoder(br).Decode(&reqs); err != nil {
			return nil, fmt.Errorf("decoding replay array: %w", err)
		}
	} else {
		dec := json.NewDecoder(br)
		for {
			var r korapi.Request
			if err := dec.Decode(&r); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, fmt.Errorf("decoding replay line %d: %w", len(reqs)+1, err)
			}
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("replay file %s holds no requests", path)
	}
	return reqs, nil
}

// generate returns the next request: the replay cursor's entry, or a fresh
// synthesis from rng.
func (w *workload) generate(rng *rand.Rand) korapi.Request {
	if len(w.replay) > 0 {
		i := int(w.next.Add(1)-1) % len(w.replay)
		return w.replay[i]
	}
	if w.dupFraction > 0 && rng.Float64() < w.dupFraction {
		w.dupMu.Lock()
		if len(w.recent) > 0 {
			req := w.recent[rng.Intn(len(w.recent))]
			w.dupMu.Unlock()
			return req
		}
		w.dupMu.Unlock()
	}
	nk := w.kwMin
	if w.kwMax > w.kwMin {
		nk += rng.Intn(w.kwMax - w.kwMin + 1)
	}
	// Sample keywords without replacement via a partial shuffle over index
	// draws; the vocabulary is small (≤200), duplicates just retry.
	seen := make(map[int]bool, nk)
	kws := make([]string, 0, nk)
	for len(kws) < nk {
		i := rng.Intn(len(w.vocab))
		if !seen[i] {
			seen[i] = true
			kws = append(kws, w.vocab[i])
		}
	}
	from := rng.Intn(w.nodes)
	req := korapi.Request{
		From:      int64(from),
		To:        int64(w.pickTo(rng, from)),
		Keywords:  kws,
		Budget:    w.budgetMin + rng.Float64()*(w.budgetMax-w.budgetMin),
		Algorithm: sampleMix(w.mix, rng),
		Metrics:   w.metrics,
	}
	if req.Algorithm == "topk" {
		req.K = w.k
		if req.K < 2 {
			req.K = 3
		}
	}
	if w.dupFraction > 0 {
		w.dupMu.Lock()
		if len(w.recent) < dupPoolSize {
			w.recent = append(w.recent, req)
		} else {
			w.recent[w.recentAt] = req
			w.recentAt = (w.recentAt + 1) % dupPoolSize
		}
		w.dupMu.Unlock()
	}
	return req
}

// pickTo draws the destination node. Uniform by default; with -locality N
// it lands within ±N node IDs of from, clamped to the graph. On
// million-node graphs uniform endpoint pairs are almost always farther
// apart than any sane budget, so every query is proved infeasible before
// the interesting search paths run; locality keeps a realistic share of
// the stream feasible. (Generator node IDs are spatially coherent: grid
// IDs are row-major, road IDs cluster by construction order.)
func (w *workload) pickTo(rng *rand.Rand, from int) int {
	if w.locality <= 0 || w.locality >= w.nodes {
		return rng.Intn(w.nodes)
	}
	lo := from - w.locality
	if lo < 0 {
		lo = 0
	}
	hi := from + w.locality
	if hi > w.nodes-1 {
		hi = w.nodes - 1
	}
	return lo + rng.Intn(hi-lo+1)
}

// classify buckets one response. err covers transport-level failures.
func classify(status int, err error) func(*Outcomes) {
	switch {
	case err != nil:
		return func(o *Outcomes) { o.Error++ }
	case status >= 200 && status < 300:
		return func(o *Outcomes) { o.OK++ }
	case status == http.StatusNotFound:
		return func(o *Outcomes) { o.NoRoute++ }
	case status == http.StatusTooManyRequests:
		return func(o *Outcomes) { o.Rejected++ }
	case status == http.StatusBadRequest || status == http.StatusUnprocessableEntity:
		return func(o *Outcomes) { o.ClientError++ }
	default:
		return func(o *Outcomes) { o.Error++ }
	}
}

// run drives the load and builds the report. It returns an error only for
// setup failures; SLO violations land in the report, not the error.
func run(cfg config) (*Report, error) {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	spec := cfg.Targets
	if spec == "" {
		spec = cfg.URL
	}
	targets, err := parseTargets(spec)
	if err != nil {
		return nil, err
	}
	// The first target anchors the probe and the admin churn: in a cluster
	// run that is the router, which replicates patches to every shard.
	cfg.URL = targets[0]

	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}
	w, err := newWorkload(cfg, client)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	// Open-loop pacing: a pacer feeds tokens at the target rate; tokens the
	// workers cannot absorb pile into the buffer and are delivered late —
	// the classic coordinated-omission-resistant shape without unbounded
	// goroutine growth.
	var tokens chan struct{}
	if cfg.QPS > 0 {
		tokens = make(chan struct{}, 4*cfg.Concurrency)
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default: // workers saturated and buffer full: shed the tick
					}
				}
			}
		}()
	}

	// Optional admin churn: a keyword flaps on node 0 at the configured
	// period, exercising snapshot swaps under load.
	var patches, patchErrs atomic.Int64
	churnDone := make(chan struct{})
	if cfg.ChurnEvery > 0 {
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(cfg.ChurnEvery)
			defer tick.Stop()
			add := true
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if churn(client, cfg.URL, add) == nil {
						patches.Add(1)
					} else {
						patchErrs.Add(1)
					}
					add = !add
				}
			}
		}()
	} else {
		close(churnDone)
	}

	// Per-worker, per-target accumulation: no locks on the hot path.
	type workerResult struct {
		latencies [][]float64 // per target, milliseconds
		outcomes  []Outcomes  // per target
	}
	results := make([]workerResult, cfg.Concurrency)
	for i := range results {
		results[i].latencies = make([][]float64, len(targets))
		results[i].outcomes = make([]Outcomes, len(targets))
	}
	// Targets rotate per request across all workers, so every target sees
	// an equal slice of the identical workload stream.
	var rr atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			res := &results[i]
			for {
				if tokens != nil {
					select {
					case <-ctx.Done():
						return
					case <-tokens:
					}
				} else if ctx.Err() != nil {
					return
				}
				req := w.generate(rng)
				ti := int(rr.Add(1)-1) % len(targets)
				t0 := time.Now()
				status, err := fire(ctx, client, targets[ti], req)
				if ctx.Err() != nil && err != nil {
					// The run deadline cut this request off mid-flight; it
					// says nothing about the server.
					return
				}
				classify(status, err)(&res.outcomes[ti])
				if err == nil {
					res.latencies[ti] = append(res.latencies[ti], float64(time.Since(t0).Microseconds())/1e3)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// A patch in flight at the deadline still lands on the server: wait for
	// it, so the report counts every patch the server saw.
	<-churnDone

	// Merge per target, then aggregate.
	perTarget := make([]TargetReport, len(targets))
	perLats := make([][]float64, len(targets))
	var all []float64
	var out Outcomes
	for ti, target := range targets {
		tr := &perTarget[ti]
		tr.URL = target
		for i := range results {
			perLats[ti] = append(perLats[ti], results[i].latencies[ti]...)
			addOutcomes(&tr.Outcomes, results[i].outcomes[ti])
		}
		tr.Requests = tr.Outcomes.total()
		if elapsed > 0 {
			tr.ThroughputQPS = float64(tr.Requests) / elapsed.Seconds()
		}
		if tr.Requests > 0 {
			tr.ErrorRate = float64(tr.Outcomes.Error) / float64(tr.Requests)
			tr.RejectedRate = float64(tr.Outcomes.Rejected) / float64(tr.Requests)
		}
		tr.Latency = summarize(perLats[ti])
		all = append(all, perLats[ti]...)
		addOutcomes(&out, tr.Outcomes)
	}

	rep := &Report{
		Target:          strings.Join(targets, ","),
		DurationSeconds: elapsed.Seconds(),
		Requests:        out.total(),
		Outcomes:        out,
		AdminPatches:    int(patches.Load()),
		AdminErrors:     int(patchErrs.Load()),
		SLOViolations:   []string{},
	}
	if len(targets) > 1 {
		rep.Targets = perTarget
	}
	if elapsed > 0 {
		rep.ThroughputQPS = float64(out.total()) / elapsed.Seconds()
	}
	if n := out.total(); n > 0 {
		rep.ErrorRate = float64(out.Error) / float64(n)
		rep.RejectedRate = float64(out.Rejected) / float64(n)
	}
	rep.Latency = summarize(all)
	rep.evalSLO(cfg)
	return rep, nil
}

// addOutcomes accumulates src into dst.
func addOutcomes(dst *Outcomes, src Outcomes) {
	dst.OK += src.OK
	dst.NoRoute += src.NoRoute
	dst.Rejected += src.Rejected
	dst.ClientError += src.ClientError
	dst.Error += src.Error
}

// summarize computes the latency block over samples (sorted in place).
func summarize(lats []float64) Latency {
	if len(lats) == 0 {
		return Latency{}
	}
	sort.Float64s(lats)
	sum := 0.0
	for _, v := range lats {
		sum += v
	}
	return Latency{
		MeanMS: sum / float64(len(lats)),
		P50MS:  percentile(lats, 0.50),
		P95MS:  percentile(lats, 0.95),
		P99MS:  percentile(lats, 0.99),
		MaxMS:  lats[len(lats)-1],
	}
}

// evalSLO fills SLOViolations and Pass against the configured gates.
func (r *Report) evalSLO(cfg config) {
	violate := func(format string, args ...any) {
		r.SLOViolations = append(r.SLOViolations, fmt.Sprintf(format, args...))
	}
	if r.Requests == 0 {
		violate("no requests completed")
	}
	// Thresholds in fractional milliseconds: Duration.Milliseconds would
	// truncate a 500µs or 1.5ms SLO.
	if cfg.SLOP50 > 0 && r.Latency.P50MS > cfg.SLOP50.Seconds()*1000 {
		violate("p50 %.1fms exceeds SLO %s", r.Latency.P50MS, cfg.SLOP50)
	}
	if cfg.SLOP99 > 0 && r.Latency.P99MS > cfg.SLOP99.Seconds()*1000 {
		violate("p99 %.1fms exceeds SLO %s", r.Latency.P99MS, cfg.SLOP99)
	}
	if cfg.SLOMaxErrorRate >= 0 && r.ErrorRate > cfg.SLOMaxErrorRate {
		violate("error rate %.4f exceeds SLO %.4f (%d errors)", r.ErrorRate, cfg.SLOMaxErrorRate, r.Outcomes.Error)
	}
	if cfg.SLOMinQPS > 0 && r.ThroughputQPS < cfg.SLOMinQPS {
		violate("throughput %.1f qps below SLO %.1f", r.ThroughputQPS, cfg.SLOMinQPS)
	}
	if cfg.Require429 && r.Outcomes.Rejected == 0 {
		violate("expected 429 rejections under oversaturation, saw none")
	}
	// Per-target gates: each target of a -targets run must clear the latency
	// and error SLOs on its own, and must have seen traffic at all.
	for i := range r.Targets {
		tr := &r.Targets[i]
		if tr.Requests == 0 {
			violate("target %s received no requests", tr.URL)
			continue
		}
		if cfg.SLOP50 > 0 && tr.Latency.P50MS > cfg.SLOP50.Seconds()*1000 {
			violate("target %s p50 %.1fms exceeds SLO %s", tr.URL, tr.Latency.P50MS, cfg.SLOP50)
		}
		if cfg.SLOP99 > 0 && tr.Latency.P99MS > cfg.SLOP99.Seconds()*1000 {
			violate("target %s p99 %.1fms exceeds SLO %s", tr.URL, tr.Latency.P99MS, cfg.SLOP99)
		}
		if cfg.SLOMaxErrorRate >= 0 && tr.ErrorRate > cfg.SLOMaxErrorRate {
			violate("target %s error rate %.4f exceeds SLO %.4f (%d errors)", tr.URL, tr.ErrorRate, cfg.SLOMaxErrorRate, tr.Outcomes.Error)
		}
	}
	if r.Outcomes.ClientError > 0 {
		violate("%d client_error responses: the driver sent malformed requests", r.Outcomes.ClientError)
	}
	r.Pass = len(r.SLOViolations) == 0
}

// percentile reads the q-quantile from sorted (ascending) samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// fire POSTs one route request and returns the HTTP status.
func fire(ctx context.Context, client *http.Client, base string, req korapi.Request) (int, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/route", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// churn flaps a marker keyword on node 0 through the admin patch endpoint.
func churn(client *http.Client, base string, add bool) error {
	d := korapi.Delta{}
	patch := []korapi.DeltaKeywords{{Node: 0, Keywords: []string{"korload_churn_marker"}}}
	if add {
		d.AddKeywords = patch
	} else {
		d.RemoveKeywords = patch
	}
	buf, err := json.Marshal(d)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/admin/patch", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admin patch: status %d", resp.StatusCode)
	}
	return nil
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d (%s)", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
