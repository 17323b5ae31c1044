package kor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/metrics"
)

// The engine conformance table. Every serving configuration of the engine
// answers one contract, and this file holds each of them to it:
//
//   - configurations (confConfigs): the lazy oracle; a matrix build held
//     pending; the built matrix; a disk index; a disk index after an edge
//     patch, which falls back to the lazy oracle. Each runs with the result
//     cache off and with CacheSize 64;
//   - generators (confGens): the hand-built city, whose requests carry their
//     expected outcomes, and a seeded road network with a random stream;
//   - ops: Run with every algorithm, keyword and edge Patch, Swap to a graph
//     with the same edges and to one with new edges, cancellation before and
//     during a search, SearchBatch and Close;
//   - properties (check): every answer, rendered, is byte for byte that of a
//     fresh engine on the current graph in the configuration OracleStatus
//     names (lazy while a build is pending); Response.Snapshot and Graph name
//     the snapshot that computed it; a cached answer equals a fresh one; a
//     patched engine equals a rebuilt one; a cancelled run returns ctx.Err();
//     OracleStatus and the kor_engine_oracle_* gauges follow the oracle kind.
//
// A row is a function over one cell (confCase): the update rows apply their
// ops in turn and check every property after each; the other rows drive
// concurrency, cancellation, batches and Close. Each Test function at the end
// of the file is an entry point that runs one row over the cells its selector
// names (conform), every cell as a subtest.

// cityQuery is the hand city's reference query: jazz on the way from the
// hotel to the park.
var cityQuery = Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6}

// handCity is the hand-built city: a hotel (named Grand Hotel), a cafe and a
// museum that both offer jazz, and a park, with obj the hotel→cafe
// objective. cityBest is cityQuery's optimum on it.
func handCity(t testing.TB, obj float64) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("hotel")
	b.AddNode("cafe", "jazz")
	b.AddNode("park")
	b.AddNode("museum", "jazz")
	for _, e := range [][4]float64{
		{0, 1, obj, 1.2}, {1, 2, 0.3, 0.8}, {2, 0, 0.5, 1.0}, {0, 3, 0.9, 0.9},
		{3, 2, 0.4, 1.1}, {2, 3, 0.4, 1.1}, {1, 3, 0.6, 0.7}, {3, 1, 0.6, 0.7},
	} {
		if err := b.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2], e[3]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetName(0, "Grand Hotel"); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

// cityBest is cityQuery's optimum on the hand city: 0→1→2 while the cafe
// offers jazz, else the cheaper of 0→3→2 and 0→1→3→2.
func cityBest(obj float64, jazz bool) float64 {
	if jazz {
		return obj + 0.3
	}
	return min(0.9+0.4, obj+0.6+0.4)
}

// confRequest is one request a check replays. On the hand city it carries
// the outcome class it must end in and the least number of routes it finds.
type confRequest struct {
	req    Request
	err    error
	routes int
}

// cityRequests are the hand city's requests: cityQuery with the default
// algorithm and under every registered one, variants of it that must each
// have a key of their own, and one request per outcome class.
func cityRequests() []confRequest {
	q := func(edit func(*Request)) Request {
		r := cityQuery
		edit(&r)
		return r
	}
	algo := func(a Algorithm) Request { return q(func(r *Request) { r.Algorithm = a }) }
	opts := func(edit func(*Options)) *Options {
		o := DefaultOptions()
		edit(&o)
		return &o
	}
	out := []confRequest{{cityQuery, nil, 1}} // BucketBound, the default: one key
	for _, a := range Algorithms() {
		if a == AlgorithmBucketBound {
			continue
		}
		if a == AlgorithmTopK {
			out = append(out, confRequest{q(func(r *Request) { r.Algorithm, r.K = a, 3 }), nil, 2})
		} else {
			out = append(out, confRequest{algo(a), nil, 1})
		}
	}
	return append(out, []confRequest{
		{q(func(r *Request) { r.K = 2 }), nil, 2},
		{q(func(r *Request) { r.Budget = 7 }), nil, 1},
		{q(func(r *Request) { r.Options = opts(func(o *Options) { o.Epsilon = 0.25 }) }), nil, 1},
		{q(func(r *Request) { r.Options = opts(func(o *Options) { o.Tracer = countingTracer{new(atomic.Int32)} }) }), nil, 1},
		{Request{From: 0, To: 0, Keywords: []string{"jazz", "park"}, Budget: 4}, nil, 1},
		{q(func(r *Request) { r.Budget = 0.1 }), ErrNoRoute, 0},
		{q(func(r *Request) { r.Budget, r.Algorithm = 1, AlgorithmGreedy }), ErrBudgetExceeded, 1},
		{q(func(r *Request) {
			r.Keywords = []string{"jazz", "park"}
			r.Options = opts(func(o *Options) { o.MaxExpansions = 1 })
		}), ErrSearchLimit, 0},
		{q(func(r *Request) { r.Keywords = []string{"spa"} }), ErrUnknownKeyword, 0},
		{algo("warp"), ErrUnknownAlgorithm, 0},
		{q(func(r *Request) { r.Options = opts(func(o *Options) { o.Epsilon = 1.5 }) }), ErrBadQuery, 0},
		{q(func(r *Request) { r.Options = opts(func(o *Options) { o.K = 0 }) }), ErrBadQuery, 0},
		{q(func(r *Request) { r.K = -3 }), ErrBadQuery, 0},
	}...)
}

// roadKeywords are the keywords of the road stream: five frequent tags and
// one the keyword patches bring in.
var roadKeywords = []string{"tag0000", "tag0001", "tag0002", "tag0003", "tag0005", "patch-a"}

// roadRequests is the road generator's seeded stream, cycling through the
// label algorithms and Greedy.
func roadRequests(g *Graph) []confRequest {
	rng := rand.New(rand.NewSource(48))
	algorithms := []Algorithm{AlgorithmBucketBound, AlgorithmOSScaling, AlgorithmGreedy, AlgorithmTopK}
	out := make([]confRequest, 32)
	for i := range out {
		req := randomRequest(rng, g, roadKeywords)
		req.Algorithm = algorithms[i%len(algorithms)]
		if req.Algorithm == AlgorithmTopK {
			req.K = 3
		}
		out[i].req = req
	}
	return out
}

// confGen is one generator of the table: its base graph, the requests every
// check replays, the cell size of the disk index written for it, the
// keyword-only and edge deltas its updates apply, and the edge the topology
// updates add and remove.
type confGen struct {
	name     string
	hand     bool // requests carry their expected outcomes; cityBest holds
	cellSize int
	rounds   int // keyword patches per keyword update, with queries between
	base     func(t testing.TB) *Graph
	requests func(g *Graph) []confRequest
	keywords func(c *confCase) Delta
	edges    func(c *confCase) Delta
	newEdge  EdgePatch
}

var confGens = map[string]*confGen{
	"city": {
		name: "city", hand: true, cellSize: 3, rounds: 1,
		base:     func(t testing.TB) *Graph { return handCity(t, 0.7) },
		requests: func(*Graph) []confRequest { return cityRequests() },
		// The cafe's jazz, toggled.
		keywords: func(c *confCase) Delta {
			c.jazz = !c.jazz
			kw := []KeywordPatch{{Node: 1, Keywords: []string{"jazz"}}}
			if c.jazz {
				return Delta{AddKeywords: kw}
			}
			return Delta{RemoveKeywords: kw}
		},
		// The hotel→cafe objective, 0.1 and 0.2 in turn.
		edges: func(c *confCase) Delta {
			c.obj = map[bool]float64{true: 0.2, false: 0.1}[c.obj == 0.1]
			return Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: c.obj, Budget: 1.2}}}
		},
		// Park→cafe, too dear to move cityBest.
		newEdge: EdgePatch{From: 2, To: 1, Objective: 0.9, Budget: 1},
	},
	"road": {
		name: "road", cellSize: 24, rounds: 8, // seven cells
		base:     func(testing.TB) *Graph { return SyntheticRoadNetwork(5, 150) },
		requests: roadRequests,
		keywords: func(c *confCase) Delta {
			return randomKeywordDelta(c.rng, c.Graph(), []string{"patch-a", "tag0000", "tag0001", "tag0002", "tag0005", "tag0010"})
		},
		// Node 0's first edge at 3, 4 and 2 times its objective in turn.
		edges: func(c *confCase) Delta {
			e := c.base.Out(0)[0]
			c.edits++
			return Delta{UpdateEdges: []EdgePatch{{From: 0, To: e.To, Objective: e.Objective * float64(2+c.edits%3), Budget: e.Budget}}}
		},
		newEdge: EdgePatch{From: 0, To: 149, Objective: 1, Budget: 4},
	},
}

// confConfigs are the serving configurations, in the order "all" runs them.
var confConfigs = []string{"lazy", "pending", "matrix", "disk", "disk-patched"}

// requestClasses name classes of the hand city's requests, for entry points
// that replay one class only.
var requestClasses = map[string]func(confRequest) bool{
	"default": func(r confRequest) bool {
		return r.req.Algorithm == "" && r.req.K == 0 && r.req.Options == nil && r.err == nil
	},
	"algorithms": func(r confRequest) bool { return r.req.Algorithm != "" && r.err == nil },
	"topk":       func(r confRequest) bool { return r.req.K > 0 },
	"noroute":    func(r confRequest) bool { return r.err == ErrNoRoute },
	"overbudget": func(r confRequest) bool { return r.err == ErrBudgetExceeded },
	"limit":      func(r confRequest) bool { return r.err == ErrSearchLimit },
	"unknown":    func(r confRequest) bool { return r.err == ErrUnknownKeyword },
	"invalid":    func(r confRequest) bool { return r.err == ErrBadQuery },
}

// confCase is one cell of the table: an engine in one configuration over one
// generator, with the cache on or off, the class of requests it replays (nil
// for all), and what the checks need to know of the updates applied to it so
// far.
type confCase struct {
	*Engine
	gen        *confGen
	config     string
	cacheSize  int
	reg        *metrics.Registry // nil on a bare cell
	held       *heldBuilds       // the pending configuration's builds, until released
	refs       *confRefs
	base       *Graph
	reqs       []confRequest
	class      func(confRequest) bool
	index      *Graph    // the graph the disk index was written for
	since      time.Time // the degraded episode's onset
	obj        float64   // the hand city's hotel→cafe objective
	jazz       bool      // whether the hand city's cafe offers jazz
	edits      int       // the road's edge patches so far
	rng        *rand.Rand
	goroutines int // running before the engine started
}

// conform runs row over the cells sel names: configuration names or "all",
// "city" and "road" (city when neither), "cache" and "nocache" (both when
// neither), "bare" for engines without a metrics registry, and a request
// class (requestClasses) for the update rows to replay. An axis with
// more than one value nests a level of subtests. The row runs in parallel
// with the other entry points' unless sel says "serial": a row that counts
// the process's table mappings or goroutines, or keeps every CPU busy while
// it runs, runs alone.
func conform(t *testing.T, sel string, row func(*testing.T, *confCase)) {
	var configs, gens []string
	var caches []int
	var class func(confRequest) bool
	bare := false
	if !strings.Contains(sel, "serial") {
		t.Parallel()
	}
	for _, tok := range strings.Fields(sel) {
		switch {
		case tok == "serial":
		case tok == "all":
			configs = append(configs, confConfigs...)
		case slices.Contains(confConfigs, tok):
			configs = append(configs, tok)
		case confGens[tok] != nil:
			gens = append(gens, tok)
		case tok == "cache" || tok == "nocache":
			caches = append(caches, map[string]int{"cache": 64, "nocache": 0}[tok])
		case tok == "bare":
			bare = true
		case requestClasses[tok] != nil:
			class = requestClasses[tok]
		default:
			t.Fatalf("conform: unknown selector %q", tok)
		}
	}
	if len(gens) == 0 {
		gens = []string{"city"}
	}
	if len(caches) == 0 {
		caches = []int{0, 64}
	}
	refs := &confRefs{engines: map[string]*Engine{}, answers: map[string]string{}, dir: t.TempDir()}
	t.Cleanup(refs.close)
	level := func(t *testing.T, nest bool, name string, f func(*testing.T)) {
		if nest {
			t.Run(name, f)
		} else {
			f(t)
		}
	}
	for _, gen := range gens {
		level(t, len(gens) > 1, gen, func(t *testing.T) {
			for _, config := range configs {
				level(t, len(configs) > 1, config, func(t *testing.T) {
					for _, size := range caches {
						level(t, len(caches) > 1, map[int]string{0: "nocache", 64: "cache"}[size], func(t *testing.T) {
							c := &confCase{gen: confGens[gen], config: config, cacheSize: size, class: class, refs: refs, obj: 0.7, jazz: true, rng: rand.New(rand.NewSource(43))}
							if !bare {
								c.reg = metrics.NewRegistry()
							}
							c.open(t)
							row(t, c)
						})
					}
				})
			}
		})
	}
}

// open starts the cell's engine on the generator's base graph, closed when
// the test ends.
func (c *confCase) open(t *testing.T) {
	t.Helper()
	c.goroutines = runtime.NumGoroutine()
	c.base = c.gen.base(t)
	c.reqs = c.gen.requests(c.base)
	if c.class != nil {
		c.reqs = slices.DeleteFunc(c.reqs, func(r confRequest) bool { return !c.class(r) })
		if len(c.reqs) == 0 {
			t.Fatal("no request of the selected class")
		}
	}
	cfg := EngineConfig{CacheSize: c.cacheSize, Metrics: c.reg}
	var hook func(*tableBuild)
	switch c.config {
	case "lazy":
		cfg.Oracle = OracleLazy
	case "pending":
		c.held = &heldBuilds{release: make(chan struct{})}
		cfg.Oracle, hook = OracleDense, c.held.hook
	case "matrix": // OracleAuto: the graphs are below denseOracleLimit
	default:
		c.index = c.base
		cfg.DistIndexPath = writeIndex(t, t.TempDir(), c.base, c.gen.cellSize)
	}
	eng, err := newEngine(c.base, &cfg, hook)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	c.Engine = eng
	c.settle()
	if c.config == "disk-patched" {
		if _, err := c.Patch(c.gen.edges(c)); err != nil {
			t.Fatal(err)
		}
	}
}

// writeIndex writes g's distance index at the given cell size into dir.
func writeIndex(t *testing.T, dir string, g *Graph, cellSize int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%x.kori", g.Fingerprint()))
	info, err := WriteDistIndex(path, g, cellSize)
	if err != nil {
		t.Fatalf("WriteDistIndex: %v", err)
	}
	if info.Fingerprint != g.Fingerprint() || info.Bytes <= 0 {
		t.Fatalf("WriteDistIndex info = %+v", info)
	}
	return path
}

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

// settle lets a matrix build finish; the pending configuration's builds
// stay held.
func (c *confCase) settle() {
	if c.held == nil {
		settle(c.Engine)
	}
}

// heldBuilds is a build hook that holds every table build at the start of
// its fill until released or cancelled. It records the builds it saw, and
// whether one entered while an earlier one had not ended.
type heldBuilds struct {
	release chan struct{}

	mu      sync.Mutex
	seen    []*tableBuild
	overlap bool
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
	select {
	case <-h.release:
	case <-b.stop:
	}
}

// heldBuild waits until the engine's latest build is held in the hook, and
// returns it.
func (c *confCase) heldBuild(t *testing.T) *tableBuild {
	t.Helper()
	c.swapMu.Lock()
	b := c.build
	c.swapMu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.held.mu.Lock()
		in := slices.Contains(c.held.seen, b)
		c.held.mu.Unlock()
		if in {
			return b
		}
		if time.Now().After(deadline) {
			t.Fatal("the latest build never reached the hook")
		}
		time.Sleep(time.Millisecond)
	}
}

// release publishes the pending configuration's tables: once the latest
// build is held, and every build before it has ended without two ever
// filling at once, it lets the build run and waits for it. The cell is the
// matrix configuration from then on.
func (c *confCase) release(t *testing.T) {
	t.Helper()
	c.heldBuild(t)
	h := c.held
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
		t.Fatalf("%d builds not ended while the latest is held (overlap %v), want 1", live, overlap)
	}
	close(h.release)
	c.held = nil
	c.settle()
}

// confRefs holds the fresh engines a conform call compares against, by
// oracle kind and graph fingerprint, their rendered answers, and the
// directory of their disk indexes.
type confRefs struct {
	engines map[string]*Engine
	answers map[string]string
	dir     string
}

func (r *confRefs) close() {
	for _, e := range r.engines {
		e.Close()
	}
}

// refKey names the fresh engine of the cell's current state.
func (c *confCase) refKey() string {
	return fmt.Sprintf("%s %s %x", c.gen.name, c.OracleStatus().Kind, c.Graph().Fingerprint())
}

// fresh returns a fresh engine on the cell's current graph, in the
// configuration of the kind OracleStatus names: lazy while a build is
// pending, the matrix, or a disk index written for that graph.
func (c *confCase) fresh(t *testing.T) *Engine {
	t.Helper()
	g, kind, key := c.Graph(), c.OracleStatus().Kind, c.refKey()
	if e := c.refs.engines[key]; e != nil {
		return e
	}
	var cfg EngineConfig
	switch kind {
	case OracleKindLazy:
		cfg.Oracle = OracleLazy
	case OracleKindMatrix:
		cfg.Oracle = OracleDense
	case OracleKindPartitionedDisk:
		cfg.DistIndexPath = writeIndex(t, c.refs.dir, g, c.gen.cellSize)
	}
	e, err := NewEngine(g, &cfg)
	if err != nil {
		t.Fatalf("fresh %s engine: %v", kind, err)
	}
	settle(e)
	c.refs.engines[key] = e
	return e
}

// want renders the fresh engine's answer to request i.
func (c *confCase) want(t *testing.T, i int) string {
	t.Helper()
	key := c.refKey() + " " + strconv.Itoa(i)
	if a, ok := c.refs.answers[key]; ok {
		return a
	}
	a := answer(c.fresh(t), c.reqs[i].req)
	c.refs.answers[key] = a
	return a
}

// answer renders what a query returns — routes with their scores, and the
// error — for a byte-wise comparison.
func answer(eng *Engine, req Request) string { return render(eng.Run(context.Background(), req)) }

func render(resp Response, err error) string {
	return fmt.Sprintf("algorithm=%s bound=%v routes=%+v err=%v", resp.Algorithm, resp.Bound, resp.Routes, err)
}

// oracle is the oracle the cell's current snapshot answers from.
func (c *confCase) oracle() core.RouteOracle { return c.snap.Load().searcher.Oracle() }

func (c *confCase) disk() bool { return c.index != nil }

// degraded reports that the live graph no longer has the disk index's edges.
func (c *confCase) degraded() bool {
	return c.disk() && c.Graph().DistanceFingerprint() != c.index.DistanceFingerprint()
}

// kind is the oracle kind, and the pending build, the cell must report.
func (c *confCase) kind() (kind, pending string) {
	switch {
	case c.held != nil:
		return OracleKindLazy, OracleKindMatrix
	case c.config == "pending" || c.config == "matrix":
		return OracleKindMatrix, ""
	case c.disk() && !c.degraded():
		return OracleKindPartitionedDisk, ""
	}
	return OracleKindLazy, ""
}

// check holds the cell to every property in its current state.
func (c *confCase) check(t *testing.T) {
	t.Helper()
	c.checkAnswers(t)
	c.checkStatus(t)
}

// checkAnswers replays every request, twice when the cache is on, and holds
// each answer to the fresh engine's, a keyed request's first to the
// snapshot's core searcher on the prepared request, the snapshot it was
// computed on to the current one, the repeat to a cache hit when the answer
// is definitive, and on the hand city the outcome class, the route count and
// the approximation bound to the exact optimum. It scribbles over every
// answer it reads: a later answer, cached or not, must not show it. It
// returns the outcomes, in order.
func (c *confCase) checkAnswers(t *testing.T) []outcome {
	t.Helper()
	snap := c.snap.Load()
	sn, g := snap.info, snap.g
	if _, ok := c.CacheStats(); ok != (c.cacheSize > 0) {
		t.Fatalf("CacheStats enabled = %v with CacheSize %d", ok, c.cacheSize)
	}
	var outs []outcome
	feasible := 0
	for i, r := range c.reqs {
		want := c.want(t, i)
		for run := 0; run < 1+min(c.cacheSize, 1); run++ {
			resp, err := c.Run(context.Background(), r.req)
			outs = append(outs, outcome{resp, err})
			where := fmt.Sprintf("%s, %+v, run %d", c.state(), r.req, run+1)
			if got := render(resp, err); got != want {
				t.Fatalf("%s:\nengine %s\nfresh  %s", where, got, want)
			}
			if p, perr := snap.prepare(r.req); run == 0 && perr == nil && p.opts.Tracer == nil {
				res, cerr := snap.searcher.Run(context.Background(), p.algo, p.q, p.opts)
				if got, want := fmt.Sprintf("%+v %v", resp.Routes, err), fmt.Sprintf("%+v %v", res.Routes, cerr); got != want {
					t.Fatalf("%s:\nengine %s\ncore   %s", where, got, want)
				}
			}
			searched := definitiveOutcome(err)
			if resp.Cached != (run == 1 && searched && c.keyed(r.req)) {
				t.Fatalf("%s: Cached = %v", where, resp.Cached)
			}
			if err == nil && resp.Algorithm != r.req.Algorithm.Canonical() {
				t.Fatalf("%s: ran %s", where, resp.Algorithm)
			}
			if searched && (resp.Snapshot != sn || resp.Graph() != g || resp.Elapsed <= 0) {
				t.Fatalf("%s: answered on %+v (graph %p, elapsed %v), the engine is on %+v (graph %p)", where, resp.Snapshot, resp.Graph(), resp.Elapsed, sn, g)
			}
			for j, rt := range resp.Routes {
				if rt.Nodes[0] != r.req.From || rt.Nodes[len(rt.Nodes)-1] != r.req.To || j > 0 && rt.Objective < resp.Routes[j-1].Objective {
					t.Fatalf("%s: route %d of %v is not a route between the endpoints, best first", where, j, resp.Routes)
				}
			}
			if err == nil {
				feasible++
			}
			if c.gen.hand {
				if !errors.Is(err, r.err) || errors.Is(err, ErrUnknownAlgorithm) && !errors.Is(err, ErrBadQuery) || len(resp.Routes) < r.routes {
					t.Fatalf("%s: %d routes, err %v; want at least %d, err %v", where, len(resp.Routes), err, r.routes, r.err)
				}
				if r.req.Algorithm == "" && r.req.Options == nil && r.req.K == 0 && err == nil && resp.Bound != 2.4 {
					t.Fatalf("%s: the default request's bound is %v, want BucketBound's β/(1−ε) = 2.4", where, resp.Bound)
				}
				// No answer to cityQuery beats its optimum, and none exceeds
				// the bound its algorithm states (1 for the exact ones).
				if opt := cityBest(c.obj, c.jazz); err == nil && slices.Equal(r.req.Keywords, cityQuery.Keywords) && r.req.Budget == cityQuery.Budget && r.req.To == cityQuery.To {
					if best := resp.Best().Objective; best < opt-1e-9 || resp.Bound > 0 && best > resp.Bound*opt+1e-9 {
						t.Fatalf("%s: best %v against the optimum %v breaks the bound %v", where, best, opt, resp.Bound)
					}
				}
			}
			for j := range resp.Routes {
				resp.Routes[j].Objective = math.NaN()
				for k := range resp.Routes[j].Nodes {
					resp.Routes[j].Nodes[k] = -1
				}
			}
		}
	}
	if !c.gen.hand && feasible < len(outs)/3 {
		t.Fatalf("%s: %d of %d answers feasible: the requests no longer exercise routes", c.state(), feasible, len(outs))
	}
	if got, want := fmt.Sprint(c.Suggest("", 1<<20)), fmt.Sprint(c.fresh(t).Suggest("", 1<<20)); got != want {
		t.Fatalf("%s: Suggest = %s, fresh %s", c.state(), got, want)
	}
	if lazy, ok := c.oracle().(*apsp.LazyOracle); ok && lazy.SweepCount() == 0 && c.cacheSize == 0 && feasible > 0 {
		t.Fatalf("%s: the lazy oracle answered without a sweep", c.state())
	}
	return outs
}

// state names the cell's configuration and graph for a failure message.
func (c *confCase) state() string {
	ost := c.OracleStatus()
	return fmt.Sprintf("%s on %s (kind %s, pending %q, generation %d)", c.config, c.gen.name, ost.Kind, ost.Pending, c.Snapshot().Generation)
}

// checkStatus holds OracleStatus, the oracle the snapshot answers from, the
// engine's stats and the kor_engine_oracle_* gauges to the oracle kind the
// cell must be on.
func (c *confCase) checkStatus(t *testing.T) {
	t.Helper()
	ost := c.OracleStatus()
	kind, pending := c.kind()
	degraded := c.degraded()
	var indexFP uint64
	if c.disk() {
		indexFP = c.index.Fingerprint()
	}
	if ost.Kind != kind || ost.Pending != pending || ost.Degraded != degraded || ost.DegradedSince.IsZero() == degraded ||
		ost.Since.IsZero() || ost.IndexFingerprint != indexFP || (ost.IndexBytes > 0) != c.disk() || (ost.LoadTime > 0) != c.disk() {
		t.Fatalf("%s: OracleStatus = %+v, want kind %q pending %q degraded %v index %x", c.state(), ost, kind, pending, degraded, indexFP)
	}
	// A degraded episode keeps its onset until the index's edges return.
	if degraded && !c.since.IsZero() && !ost.DegradedSince.Equal(c.since) {
		t.Fatalf("%s: the degraded episode's onset moved from %v to %v", c.state(), c.since, ost.DegradedSince)
	}
	c.since = ost.DegradedSince
	var got string
	switch c.oracle().(type) {
	case *apsp.LazyOracle:
		got = OracleKindLazy
	case *apsp.MatrixOracle:
		got = OracleKindMatrix
	case *apsp.PartitionedOracle:
		got = OracleKindPartitionedDisk
	}
	memo := c.oracleMemo()
	if got != kind || kind != OracleKindPartitionedDisk && memo != (apsp.MemoStats{}) {
		t.Fatalf("%s: the snapshot answers from %T with memo %+v", c.state(), c.oracle(), memo)
	}
	if st, info := c.Stats(); info != c.Snapshot() || st != c.Graph().ComputeStats() {
		t.Fatalf("%s: Stats = %+v on %+v, not the current snapshot's", c.state(), st, info)
	}
	if c.reg == nil {
		return
	}
	out := exposition(t, c.reg)
	want := map[string]float64{
		"kor_engine_oracle_degraded":             b2f(degraded),
		"kor_engine_snapshot_generation":         float64(c.Snapshot().Generation),
		"kor_engine_oracle_memo_hits_total":      float64(memo.Hits),
		"kor_engine_oracle_memo_misses_total":    float64(memo.Misses),
		"kor_engine_oracle_memo_evictions_total": float64(memo.Evictions),
		"kor_engine_oracle_memo_resident_bytes":  float64(memo.ResidentBytes),
	}
	for _, k := range []string{OracleKindLazy, OracleKindMatrix, OracleKindPartitionedDisk} {
		want[`kor_engine_oracle_kind{kind="`+k+`"}`] = b2f(k == kind)
	}
	for name, v := range want {
		if got := gaugeValue(t, out, name); got != v {
			t.Errorf("%s: %s = %v, want %v", c.state(), name, got, v)
		}
	}
	if secs := gaugeValue(t, out, "kor_engine_oracle_degraded_seconds"); (secs > 0) != degraded {
		t.Errorf("%s: kor_engine_oracle_degraded_seconds = %v with degraded %v", c.state(), secs, degraded)
	}
	if secs := gaugeValue(t, out, "kor_engine_index_load_seconds"); (secs > 0) != c.disk() {
		t.Errorf("%s: kor_engine_index_load_seconds = %v", c.state(), secs)
	}
}

// seriesSum adds up every series of an exposition whose line starts with
// prefix.
func seriesSum(out, prefix string) float64 {
	sum := 0.0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// exposition renders reg in the Prometheus text format.
func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// gaugeValue extracts one series' value, labels included in name, from an
// exposition.
func gaugeValue(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s carries unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition:\n%s", name, out)
	return 0
}

// confUpdate is one live update of the update rows.
type confUpdate struct {
	name   string
	edges  bool // it changes an edge, so the oracle is replaced
	rounds bool // it runs the generator's rounds, with queries between
	apply  func(c *confCase) (SnapshotInfo, error)
}

var (
	// keywordPatch patches keywords only: once on the city; on the road
	// eight times, with queries between that warm the kept oracle.
	keywordPatch = confUpdate{"keyword patch", false, true, func(c *confCase) (SnapshotInfo, error) {
		return c.Patch(c.gen.keywords(c))
	}}
	// sameEdgeSwap swaps in the current graph with its keywords patched.
	sameEdgeSwap = confUpdate{"same-edge swap", false, false, func(c *confCase) (SnapshotInfo, error) {
		return c.swapApplied(c.gen.keywords(c))
	}}
	// edgePatch re-weights node 0's first edge.
	edgePatch = confUpdate{"edge patch", true, false, func(c *confCase) (SnapshotInfo, error) { return c.Patch(c.gen.edges(c)) }}
	// edgeAdded adds the generator's new edge; edgeRemoved removes it again.
	edgeAdded = confUpdate{"edge added", true, false, func(c *confCase) (SnapshotInfo, error) {
		return c.patchTopology(Delta{AddEdges: []EdgePatch{c.gen.newEdge}}, 1)
	}}
	edgeRemoved = confUpdate{"edge removed", true, false, func(c *confCase) (SnapshotInfo, error) {
		return c.patchTopology(Delta{RemoveEdges: []EdgeRef{{From: c.gen.newEdge.From, To: c.gen.newEdge.To}}}, -1)
	}}
	// newEdgeSwap swaps in the current graph with node 0's first edge back at
	// the base graph's weights, its keywords as they are: on a disk index,
	// the index's own edges.
	newEdgeSwap = confUpdate{"new-edge swap", true, false, func(c *confCase) (SnapshotInfo, error) {
		e := c.base.Out(0)[0]
		c.obj = e.Objective
		return c.swapApplied(Delta{UpdateEdges: []EdgePatch{{From: 0, To: e.To, Objective: e.Objective, Budget: e.Budget}}})
	}}
)

// patchTopology patches d and fails unless the graph then has delta edges
// more.
func (c *confCase) patchTopology(d Delta, delta int) (SnapshotInfo, error) {
	m := c.Graph().NumEdges()
	info, err := c.Patch(d)
	if got := c.Graph().NumEdges(); err == nil && got != m+delta {
		err = fmt.Errorf("%d edges after the patch, had %d", got, m)
	}
	return info, err
}

// swapApplied swaps in the current graph with d applied, and fails unless
// the engine then holds that very graph.
func (c *confCase) swapApplied(d Delta) (SnapshotInfo, error) {
	g, err := c.Graph().Apply(d)
	if err != nil {
		return SnapshotInfo{}, err
	}
	info, err := c.Swap(g)
	if err == nil && c.Graph() != g {
		err = errors.New("Graph() is not the graph swapped in")
	}
	return info, err
}

// updates is the row that checks the cell, applies each update in turn and
// checks it again after each; a pending cell's tables are then released and
// checked once more. An update publishes one snapshot per round, of the next
// generation, clears the cache without counting evictions, keeps the oracle
// and its status unless it changes an edge and replaces it when it does; a
// built table moves the generation once more. An empty delta is a no-op and a
// bad one leaves the snapshot in place.
func updates(us ...confUpdate) func(*testing.T, *confCase) {
	return func(t *testing.T, c *confCase) {
		c.check(t)
		for _, u := range us {
			before, oracle, status := c.Snapshot(), c.oracle(), c.OracleStatus()
			st, _ := c.CacheStats()
			rounds := 1
			if u.rounds {
				rounds = c.gen.rounds
			}
			var info SnapshotInfo
			for r := 0; r < rounds; r++ {
				for j := 0; j < 4 && rounds > 1; j++ {
					c.Run(context.Background(), c.reqs[c.rng.Intn(len(c.reqs))].req)
				}
				var err error
				if info, err = u.apply(c); err != nil {
					t.Fatalf("%s: %v", u.name, err)
				}
			}
			if info != c.Snapshot() || info.Generation != before.Generation+uint64(rounds) || info.Fingerprint != c.Graph().Fingerprint() {
				t.Fatalf("%s published %+v after %+v; the engine is on %+v", u.name, info, before, c.Snapshot())
			}
			if after, _ := c.CacheStats(); after.Size != 0 || after.Evictions != st.Evictions {
				t.Fatalf("%s left the cache at %+v (before %+v)", u.name, after, st)
			}
			if kept := c.oracle() == oracle; kept == u.edges || !u.edges && c.OracleStatus() != status {
				t.Fatalf("%s: oracle kept %v, status %+v → %+v", u.name, kept, status, c.OracleStatus())
			}
			c.settle()
			if u.edges && c.held == nil && (c.config == "pending" || c.config == "matrix") {
				info.Generation++ // the table swap
			}
			if c.Snapshot().Generation != info.Generation {
				t.Fatalf("%s: generation %d after the build, published %d", u.name, c.Snapshot().Generation, info.Generation)
			}
			c.check(t)
		}
		info := c.Snapshot()
		if same, err := c.Patch(Delta{}); err != nil || same != info {
			t.Fatalf("empty patch = %+v, %v; want %+v", same, err, info)
		}
		if _, err := c.Patch(Delta{RemoveEdges: []EdgeRef{{From: 0, To: 0}}}); !errors.Is(err, ErrBadDelta) || c.Snapshot() != info {
			t.Fatalf("bad patch: err %v, snapshot %+v; want ErrBadDelta on %+v", err, c.Snapshot(), info)
		}
		if c.held != nil {
			c.release(t)
			c.check(t)
		}
	}
}

// goRun runs req on the cell in a goroutine; its outcome arrives on the
// channel.
func (c *confCase) goRun(ctx context.Context, req Request) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		resp, err := c.Run(ctx, req)
		out <- outcome{resp, err}
	}()
	return out
}

// parkFirstSearch installs a hook on eng that blocks the first leader right
// before its search until release closes; later searches pass straight
// through. The returned channel closes when the first leader is parked, and
// the counter reports how many searches actually executed.
func parkFirstSearch(eng *Engine, release <-chan struct{}) (parked chan struct{}, searches *atomic.Int32) {
	parked = make(chan struct{})
	searches = new(atomic.Int32)
	eng.results.searchHook = func() {
		if searches.Add(1) == 1 {
			close(parked)
			<-release
		}
	}
	return parked, searches
}

// awaitWaiters polls until n followers are queued on the engine's live
// flights.
func awaitWaiters(t *testing.T, eng *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.results.waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d followers queued, want %d", eng.results.waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waiters sums the followers attached to live flights.
func (r *results) waiters() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.flights {
		n += int(f.followers.Load())
	}
	return n
}

// countingTracer counts label events; its presence makes a request
// uncacheable.
type countingTracer struct{ n *atomic.Int32 }

func (c countingTracer) Trace(core.TraceEvent) { c.n.Add(1) }

// rowInFlight parks a search and its follower, moves the engine on under
// them — the pending cell publishes its tables, the others patch an edge —
// and checks that both answer as the snapshot they started on, and that
// everything after answers as the new one, searched afresh. On the matrix
// cell the parked search holds the boot matrix, so after one more edge patch
// the build waits for it (awaitRetired), and a further patch cancels the
// waiting build; the last build is published once the search ends.
func rowInFlight(t *testing.T, c *confCase) {
	req := c.searchable()
	before, g := c.Snapshot(), c.Graph()
	want := answer(c.fresh(t), req)
	release := make(chan struct{})
	parked, searches := parkFirstSearch(c.Engine, release)
	leader := c.goRun(context.Background(), req)
	<-parked
	follower := c.goRun(context.Background(), req)
	awaitWaiters(t, c.Engine, 1)
	if c.held != nil {
		c.release(t)
	} else {
		if _, err := edgePatch.apply(c); err != nil {
			t.Fatal(err)
		}
		c.settle()
	}
	if c.config == "matrix" {
		if _, err := edgePatch.apply(c); err != nil {
			t.Fatal(err)
		}
		c.swapMu.Lock()
		waiting := c.build
		c.swapMu.Unlock()
		select {
		case <-waiting.done:
			t.Fatal("a build mapped its tables while a query held a matrix two builds old")
		case <-time.After(100 * time.Millisecond):
		}
		if _, err := edgePatch.apply(c); err != nil {
			t.Fatal(err)
		}
		<-waiting.done // cancelled while it waits
	}
	close(release)
	for _, o := range []outcome{<-leader, <-follower} {
		if got := render(o.resp, o.err); got != want || o.resp.Snapshot != before || o.resp.Graph() != g {
			t.Fatalf("in flight across the update: %s on %+v, want %s on %+v", got, o.resp.Snapshot, want, before)
		}
	}
	if searches.Load() != 1 {
		t.Fatalf("%d searches for a leader and its follower, want 1", searches.Load())
	}
	c.settle()
	c.check(t)
}

// rowCancel: a run on a dead context returns the context's error for every
// request that resolves — a stored answer, negative or not, included — and
// a batch fails every item and itself the same way. A follower cancelled
// while parked returns its error and leaves the leader's search alone; a
// leader cancelled while parked returns its own.
func rowCancel(t *testing.T, c *confCase) {
	c.checkAnswers(t) // with the cache on, every definitive answer is stored now
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range c.reqs {
		if _, err := c.snap.Load().prepare(r.req); err != nil {
			continue
		}
		if _, err := c.Run(dead, r.req); !errors.Is(err, dead.Err()) || errors.Is(err, ErrNoRoute) {
			t.Fatalf("%+v on a dead context: err %v", r.req, err)
		}
	}
	batch := []Request{c.searchable(), c.reqs[1].req, c.searchable()}
	results, err := c.SearchBatch(dead, batch, 2)
	if !errors.Is(err, dead.Err()) || len(results) != len(batch) {
		t.Fatalf("batch on a dead context: %d results, err %v", len(results), err)
	}
	for i, br := range results {
		if !errors.Is(br.Err, dead.Err()) {
			t.Fatalf("batch item %d on a dead context: err %v", i, br.Err)
		}
	}

	req := c.searchable()
	req.Budget += 0.25 // a key no answer is stored under
	for _, leaderCancels := range []bool{false, true} {
		release := make(chan struct{})
		parked, searches := parkFirstSearch(c.Engine, release)
		lctx, lcancel := context.WithCancel(context.Background())
		leader := c.goRun(lctx, req)
		<-parked
		fctx, fcancel := context.WithCancel(context.Background())
		follower := c.goRun(fctx, req)
		awaitWaiters(t, c.Engine, 1)
		fcancel()
		if o := <-follower; !errors.Is(o.err, fctx.Err()) || o.resp.Coalesced {
			t.Fatalf("cancelled follower: err %v, coalesced %v", o.err, o.resp.Coalesced)
		}
		if leaderCancels {
			lcancel()
		}
		close(release)
		o := <-leader
		if leaderCancels != errors.Is(o.err, context.Canceled) || !leaderCancels && render(o.resp, o.err) != answer(c.fresh(t), req) {
			t.Fatalf("leader (cancelled %v): %s", leaderCancels, render(o.resp, o.err))
		}
		lcancel()
		if searches.Load() != 1 {
			t.Fatalf("%d searches, want 1", searches.Load())
		}
		req.Budget += 0.25
	}
	c.results.searchHook = nil
}

// rowStampede, on the hand city: identical requests arriving while the
// first is parked share its one search: every follower holds a Coalesced
// copy of the leader's answer and counters, cache or no cache, and the
// answer is stored when the cache is on. A search that ends without a
// definitive outcome is shared with no one: every request runs its own. The
// lookup, request and plan-sweep metrics count each request once and the
// one search once.
func rowStampede(t *testing.T, c *confCase) {
	const followers = 3
	for _, i := range []int{0, slices.IndexFunc(c.reqs, func(r confRequest) bool { return r.err == ErrSearchLimit })} {
		req, definitive := c.reqs[i].req, c.reqs[i].err == nil
		release := make(chan struct{})
		parked, searches := parkFirstSearch(c.Engine, release)
		outs := []<-chan outcome{c.goRun(context.Background(), req)}
		<-parked
		for j := 0; j < followers; j++ {
			outs = append(outs, c.goRun(context.Background(), req))
		}
		awaitWaiters(t, c.Engine, followers)
		close(release)
		want := c.want(t, i)
		var leader Metrics
		var shared []Metrics
		for _, ch := range outs {
			o := <-ch
			if got := render(o.resp, o.err); got != want || o.resp.Cached {
				t.Fatalf("stampede on %+v: %s (cached %v), want %s", req, got, o.resp.Cached, want)
			}
			if o.resp.Coalesced {
				shared = append(shared, o.resp.Metrics)
			} else {
				leader = o.resp.Metrics
			}
		}
		for _, m := range shared {
			if m != leader {
				t.Fatalf("a follower's counters %+v differ from the leader's %+v", m, leader)
			}
		}
		coalesced := len(shared)
		wantSearches, wantCoalesced := 1, followers
		if !definitive {
			wantSearches, wantCoalesced = followers+1, 0
		}
		if int(searches.Load()) != wantSearches || coalesced != wantCoalesced {
			t.Fatalf("%+v: %d searches and %d coalesced, want %d and %d", req, searches.Load(), coalesced, wantSearches, wantCoalesced)
		}
		if definitive {
			if c.reg != nil {
				if got := gaugeValue(t, exposition(t, c.reg), "kor_engine_plan_sweeps_total"); got != float64(leader.PlanSweeps) {
					t.Fatalf("plan sweeps after the stampede = %v, want the one search's %d", got, leader.PlanSweeps)
				}
			}
			st, _ := c.CacheStats()
			if c.cacheSize > 0 && (st.Hits != 0 || st.Misses != 1 || st.Coalesced != followers || st.Size != 1) {
				t.Fatalf("after the stampede: %+v", st)
			}
			if resp, err := c.Run(context.Background(), req); err != nil || resp.Cached != (c.cacheSize > 0) {
				t.Fatalf("after the stampede: cached %v, err %v", resp.Cached, err)
			}
		}
	}
	c.results.searchHook = nil
	if c.reg == nil {
		return
	}
	out := exposition(t, c.reg)
	want := map[string]float64{
		`kor_engine_requests_total{algorithm="bucketbound",outcome="ok"}`:           followers + 2,
		`kor_engine_requests_total{algorithm="bucketbound",outcome="search_limit"}`: followers + 1,
	}
	if c.cacheSize > 0 {
		want[`kor_engine_cache_requests_total{result="coalesced"}`] = followers
		want[`kor_engine_cache_requests_total{result="hit"}`] = 1
		want[`kor_engine_cache_requests_total{result="miss"}`] = followers + 2
	}
	for name, v := range want {
		if got := gaugeValue(t, out, name); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// keyed reports whether a request has a result key: it resolves, and no
// Tracer observes it.
func (c *confCase) keyed(req Request) bool {
	p, err := c.snap.Load().prepare(req)
	return err == nil && p.opts.Tracer == nil
}

// searchable returns the cell's first keyed request: cityQuery on the city.
func (c *confCase) searchable() Request {
	i := slices.IndexFunc(c.reqs, func(r confRequest) bool { return c.keyed(r.req) })
	return c.reqs[i].req
}

// rowBatch: a SearchBatch of every request twice answers each slot as Run
// does, in request order, at every parallelism; the second copy of each
// keyed request is a Coalesced duplicate, and each keyed request searches
// once per batch unless its stored answer serves it. Two concurrent batches
// of one request, arriving while its first search is parked, search once.
func rowBatch(t *testing.T, c *confCase) {
	n := len(c.reqs)
	reqs := make([]Request, 2*n)
	keyed, stored := 0, 0
	for i, r := range c.reqs {
		reqs[i], reqs[n+i] = r.req, r.req
		if c.keyed(r.req) {
			keyed++
			if _, err := c.fresh(t).Run(context.Background(), r.req); definitiveOutcome(err) {
				stored++
			}
		}
	}
	var searches atomic.Int32
	c.results.searchHook = func() { searches.Add(1) }
	for k, par := range []int{0, 4} {
		searches.Store(0)
		results, err := c.SearchBatch(context.Background(), reqs, par)
		if err != nil || len(results) != len(reqs) {
			t.Fatalf("SearchBatch(par=%d): %d results, err %v", par, len(results), err)
		}
		for i, br := range results {
			if got, want := render(br.Response, br.Err), c.want(t, i%n); got != want || (len(br.Response.Routes) > 0) != (br.Route().Nodes != nil) {
				t.Fatalf("batch (par=%d) slot %d:\nbatch %s (route %v)\nfresh %s", par, i, got, br.Route(), want)
			}
			if dup := i >= n && c.keyed(reqs[i]); br.Response.Coalesced != dup {
				t.Fatalf("batch (par=%d) slot %d: Coalesced = %v", par, i, br.Response.Coalesced)
			}
		}
		wantSearches := keyed
		if k > 0 && c.cacheSize > 0 {
			wantSearches = keyed - stored
		}
		if int(searches.Load()) != wantSearches {
			t.Fatalf("batch (par=%d): %d searches, want %d", par, searches.Load(), wantSearches)
		}
		// Each duplicate counts as coalesced, and as a request, without
		// entering Run.
		if st, ok := c.CacheStats(); ok && k == 0 && (st.Coalesced != int64(keyed) || st.Misses != int64(keyed) || st.Hits != 0) {
			t.Fatalf("after the first batch: %+v, want %d coalesced and %d misses", st, keyed, keyed)
		}
		if c.reg != nil {
			if got := seriesSum(exposition(t, c.reg), "kor_engine_requests_total{"); got != float64((k+1)*len(reqs)) {
				t.Fatalf("kor_engine_requests_total sums to %v after %d batches of %d", got, k+1, len(reqs))
			}
		}
	}

	req := c.searchable()
	req.Budget += 0.25 // a key no answer is stored under
	want := answer(c.fresh(t), req)
	release := make(chan struct{})
	parked, parkedSearches := parkFirstSearch(c.Engine, release)
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := c.SearchBatch(context.Background(), []Request{req, req, req}, 2)
			for i, br := range results {
				if got := render(br.Response, br.Err); err != nil || got != want {
					t.Errorf("concurrent batch slot %d: %s, err %v; want %s", i, got, err, want)
				}
			}
		}()
	}
	<-parked
	awaitWaiters(t, c.Engine, 1)
	close(release)
	wg.Wait()
	if parkedSearches.Load() != 1 {
		t.Fatalf("%d searches across two concurrent batches of one request, want 1", parkedSearches.Load())
	}
	c.results.searchHook = nil
}

// rowConcurrent: four goroutines replay every request at once, each in its
// own order, beside Suggest calls; every answer is the fresh engine's. With
// the cache on and warm, every lookup of a definitive answer is a hit.
func rowConcurrent(t *testing.T, c *confCase) {
	outs := c.checkAnswers(t)
	runs := len(outs) / len(c.reqs)
	want := make([]string, len(c.reqs))
	hits := 0
	for i, r := range c.reqs {
		want[i] = c.want(t, i)
		if c.keyed(r.req) && definitiveOutcome(outs[i*runs].err) {
			hits++
		}
	}
	warm, _ := c.CacheStats()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range c.reqs {
				j := (i + w*len(c.reqs)/4) % len(c.reqs)
				if got := answer(c.Engine, c.reqs[j].req); got != want[j] {
					t.Errorf("%+v under concurrency:\n got %s\nwant %s", c.reqs[j].req, got, want[j])
				}
			}
			if len(c.Suggest("", 5)) == 0 {
				t.Error("concurrent Suggest returned nothing")
			}
		}()
	}
	wg.Wait()
	if st, _ := c.CacheStats(); c.cacheSize > 0 && st.Hits-warm.Hits != int64(4*hits) {
		t.Fatalf("%d hits over four warm passes, want %d", st.Hits-warm.Hits, 4*hits)
	}
}

// rowUnderLoad races readers of cityQuery against edge patches and swaps
// (run with -race): every answer, searched or cached, is the optimum of the
// graph whose fingerprint it reports — none crosses a snapshot.
func rowUnderLoad(t *testing.T, c *confCase) {
	want := map[uint64]float64{}
	for _, obj := range []float64{0.7, 0.1, 0.2} {
		want[handCity(t, obj).Fingerprint()] = cityBest(obj, true)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Run(context.Background(), cityQuery)
				if best, ok := want[resp.Snapshot.Fingerprint]; err != nil || !ok || math.Abs(resp.Best().Objective-best) > 1e-9 {
					t.Errorf("%s (cached %v) on %x: want %v", render(resp, err), resp.Cached, resp.Snapshot.Fingerprint, best)
					return
				}
			}
		}()
	}
	for i := 0; i < 30 && !t.Failed(); i++ {
		if _, err := []confUpdate{edgePatch, newEdgeSwap}[i%2].apply(c); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if gen := c.Snapshot().Generation; gen < 31 {
		t.Errorf("generation = %d after 30 updates", gen)
	}
}

// rowClose: Close returns once the build in flight has ended — the pending
// cell's held build is cancelled — a table engine starts no build after it,
// and none of the engine's goroutines outlives it.
func rowClose(t *testing.T, c *confCase) {
	var held *tableBuild
	if c.held != nil {
		held = c.heldBuild(t)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if held != nil {
		select {
		case <-held.done:
		default:
			t.Fatal("Close returned before the build ended")
		}
	}
	if c.config == "pending" || c.config == "matrix" {
		c.swapMu.Lock()
		prev := c.build
		c.swapMu.Unlock()
		if _, err := edgePatch.apply(c); err != nil {
			t.Fatal(err)
		}
		c.swapMu.Lock()
		started := c.build != prev
		c.swapMu.Unlock()
		if started {
			t.Fatal("a patch after Close started a build")
		}
	}
	// A goroutine that closed done may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > c.goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the engine", runtime.NumGoroutine(), c.goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// rowMetrics: after a replay of every request, the request, latency, cache
// and plan-sweep metrics count every Run once, by algorithm and outcome, the
// lookups as CacheStats does, and each search's plan sweeps once; the lazy
// oracle sweeps and a disk index's slice memo fills. On the road, the slices
// of a disk index's first query hold the cells its lookups reached, less
// than the 16 B per node a full slice holds in scores alone.
func rowMetrics(t *testing.T, c *confCase) {
	var outs []outcome
	if kind, _ := c.kind(); kind == OracleKindPartitionedDisk && !c.gen.hand {
		resp, err := c.Run(context.Background(), c.searchable())
		outs = append(outs, outcome{resp, err})
		if m, n := c.oracleMemo(), int64(c.Graph().NumNodes()); m.Misses < 2 || m.ResidentBytes <= 0 || m.ResidentBytes >= m.Misses*16*n {
			t.Errorf("%s: one query's slice memo %+v over %d nodes", c.state(), m, n)
		}
	}
	outs = append(outs, c.checkAnswers(t)...)
	want := map[string]float64{"kor_engine_plan_sweeps_total": 0}
	for _, o := range outs {
		a := algorithmLabel(o.resp.Algorithm)
		want[fmt.Sprintf(`kor_engine_requests_total{algorithm=%q,outcome=%q}`, a, outcomeLabel(o.err))]++
		want[fmt.Sprintf(`kor_engine_request_seconds_count{algorithm=%q}`, a)]++
		if !o.resp.Cached {
			want["kor_engine_plan_sweeps_total"] += float64(o.resp.Metrics.PlanSweeps)
		}
	}
	if st, ok := c.CacheStats(); ok {
		want[`kor_engine_cache_requests_total{result="hit"}`] = float64(st.Hits)
		want[`kor_engine_cache_requests_total{result="miss"}`] = float64(st.Misses)
		want["kor_engine_cache_size"] = float64(st.Size)
		want["kor_engine_cache_evictions_total"] = float64(st.Evictions)
	}
	out := exposition(t, c.reg)
	for name, v := range want {
		if got := gaugeValue(t, out, name); got != v {
			t.Errorf("%s: %s = %v, want %v", c.state(), name, got, v)
		}
	}
	switch kind, _ := c.kind(); kind {
	case OracleKindLazy:
		if want["kor_engine_plan_sweeps_total"] == 0 {
			t.Errorf("%s: no plan sweep counted", c.state())
		}
	case OracleKindPartitionedDisk:
		if m := c.oracleMemo(); m.Misses < 2 || m.Evictions != 0 || m.ResidentBytes <= 0 {
			t.Errorf("%s: slice memo %+v", c.state(), m)
		}
	}
}

// waitTables collects until the process holds count matrix table mappings
// of bytes, failing at a deadline. A retired matrix is unmapped by a cleanup
// after the collection that found it unreachable, on a goroutine of its own.
func waitTables(t *testing.T, count int, bytes int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if c, b := apsp.TableMemory(); c == count && b == bytes {
			return
		}
		if time.Now().After(deadline) {
			c, b := apsp.TableMemory()
			t.Fatalf("%d table mappings of %d bytes live, want %d of %d", c, b, count, bytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// rowTableBytes: kor_engine_oracle_table_bytes and OracleTableBytes read the
// matrix's 40 B per node pair once its tables are built, and 0 on the lazy
// and disk-index oracles.
func rowTableBytes(t *testing.T, c *confCase) {
	count, want := 0, int64(0)
	if kind, _ := c.kind(); kind == OracleKindMatrix {
		n := c.Graph().NumNodes()
		count, want = 1, int64(40*n*n)
	}
	waitTables(t, count, want)
	if got := gaugeValue(t, exposition(t, c.reg), "kor_engine_oracle_table_bytes"); got != float64(want) {
		t.Errorf("kor_engine_oracle_table_bytes = %v, want %d", got, want)
	}
	if got := OracleTableBytes(); got != want {
		t.Errorf("OracleTableBytes = %d, want %d", got, want)
	}
}

// rowTableMappings: over eight edge patches, each built and queried, the
// process never holds more than two matrix table mappings — the one
// answering and the one being filled — and once the last is built and the
// collector has run, exactly one.
func rowTableMappings(t *testing.T, c *confCase) {
	n := c.Graph().NumNodes()
	waitTables(t, 1, int64(40*n*n))
	peak := 0
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n, _ := apsp.TableMemory(); n > peak {
				peak = n
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if _, err := edgePatch.apply(c); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.reqs[:10] {
			c.Run(context.Background(), r.req)
		}
		c.settle()
		c.checkStatus(t)
		for _, r := range c.reqs[10:20] {
			c.Run(context.Background(), r.req)
		}
	}
	close(stop)
	<-sampled
	if peak > 2 {
		t.Errorf("%d matrix table mappings live at once over the patches, want at most 2", peak)
	}
	waitTables(t, 1, int64(40*n*n))
}

// The entry points. Each runs one row over the cells its selector names;
// the names are those of the tests the table absorbed, so -run selectors
// pick the same checks.

// Answers in every configuration, no update.

func TestEngineSearch(t *testing.T)                { conform(t, "all nocache", updates()) }
func TestCacheHitReturnsSameAnswer(t *testing.T)   { conform(t, "all cache", updates()) }
func TestTableBuildAnswers(t *testing.T)           { conform(t, "pending matrix city road nocache", updates()) }
func TestOracleMetricsFollowBuild(t *testing.T)    { conform(t, "pending cache", updates()) }
func TestEngineServesFromDistIndex(t *testing.T)   { conform(t, "disk", updates()) }
func TestDegradedOracleIsByteBounded(t *testing.T) { conform(t, "disk-patched", updates()) }
func TestOracleStatusWithoutDistIndex(t *testing.T) {
	conform(t, "lazy matrix nocache default", updates())
}
func TestRunMatchesCoreSearch(t *testing.T) { conform(t, "lazy nocache algorithms", updates()) }
func TestEngineAlgorithmsAgreeOnEasyQuery(t *testing.T) {
	conform(t, "matrix nocache algorithms", updates())
}
func TestEngineTopK(t *testing.T) { conform(t, "disk nocache topk", updates()) }
func TestRunTopK(t *testing.T)    { conform(t, "pending nocache topk", updates()) }
func TestRunDefaultAlgorithmAndBound(t *testing.T) {
	conform(t, "disk-patched nocache default", updates())
}
func TestEngineUnknownKeyword(t *testing.T)          { conform(t, "lazy nocache unknown", updates()) }
func TestEngineNoRoute(t *testing.T)                 { conform(t, "matrix nocache noroute", updates()) }
func TestRunValidatesOptions(t *testing.T)           { conform(t, "lazy nocache invalid", updates()) }
func TestCacheDisabledByDefault(t *testing.T)        { conform(t, "matrix nocache default", updates()) }
func TestCachedRoutesImmune(t *testing.T)            { conform(t, "lazy cache", updates()) }
func TestCacheKeyDistinguishesRequests(t *testing.T) { conform(t, "matrix cache", updates()) }
func TestCacheNegativeResult(t *testing.T)           { conform(t, "disk cache noroute", updates()) }
func TestCacheBudgetExceededResult(t *testing.T) {
	conform(t, "disk-patched cache overbudget", updates())
}
func TestCacheSkipsNonDefinitiveErrors(t *testing.T) { conform(t, "pending cache limit", updates()) }
func TestEngineMetricsDisabled(t *testing.T)         { conform(t, "lazy matrix cache bare", updates()) }

// Live updates: keyword and edge patches, swaps to the same and to new
// edges, during a pending build and in a degraded episode.

var allUpdates = updates(keywordPatch, sameEdgeSwap, edgeAdded, edgeRemoved, edgePatch, newEdgeSwap)

func TestSwapEvictsCache(t *testing.T)        { conform(t, "all cache", allUpdates) }
func TestEngineStatsPerSnapshot(t *testing.T) { conform(t, "all nocache", allUpdates) }
func TestKeywordPatchKeepsOracle(t *testing.T) {
	conform(t, "disk matrix lazy nocache", updates(keywordPatch, sameEdgeSwap, edgePatch))
}
func TestKeywordPatchesMatchRebuild(t *testing.T) {
	conform(t, "disk matrix lazy road nocache", updates(keywordPatch))
}
func TestKeywordPatchKeepsDegradedEpisode(t *testing.T) {
	conform(t, "disk-patched", updates(keywordPatch, edgePatch, newEdgeSwap))
}
func TestSwapServesNewGraph(t *testing.T) {
	conform(t, "lazy pending nocache", updates(edgePatch, newEdgeSwap))
}
func TestPatchAppliesDelta(t *testing.T) {
	conform(t, "lazy matrix disk city road nocache", updates(edgePatch, edgeAdded, edgeRemoved))
}
func TestEngineDegradesAfterGraphChange(t *testing.T) {
	conform(t, "disk", updates(edgePatch, newEdgeSwap))
}
func TestDegradedSinceLifecycle(t *testing.T) {
	conform(t, "disk nocache", updates(edgePatch, edgePatch, newEdgeSwap))
}
func TestOracleDegradedSecondsGauge(t *testing.T) { conform(t, "disk-patched nocache", allUpdates) }
func TestEdgePatchDuringBuild(t *testing.T)       { conform(t, "pending", updates(edgePatch)) }
func TestEdgePatchesSupersedeBuild(t *testing.T) {
	conform(t, "pending", updates(edgePatch, edgePatch))
}
func TestKeywordPatchDuringBuild(t *testing.T) { conform(t, "pending", updates(keywordPatch)) }

// In flight across an update, concurrency, cancellation, batches, Close.

func TestInFlightQueryFinishesOnOldSnapshot(t *testing.T) {
	conform(t, "lazy matrix disk nocache", rowInFlight)
}
func TestSingleFlightFollowerAcrossSwap(t *testing.T)     { conform(t, "disk-patched cache", rowInFlight) }
func TestLazyAnswerNotServedAfterSwap(t *testing.T)       { conform(t, "pending", rowInFlight) }
func TestSingleFlightStampede(t *testing.T)               { conform(t, "all cache", rowStampede) }
func TestSingleFlightWithoutCache(t *testing.T)           { conform(t, "all nocache", rowStampede) }
func TestSingleFlightNonDefinitiveNotShared(t *testing.T) { conform(t, "lazy", rowStampede) }
func TestEngineMetricsCoalesced(t *testing.T)             { conform(t, "matrix", rowStampede) }
func TestSingleFlightFollowerCancel(t *testing.T)         { conform(t, "all", rowCancel) }
func TestSearchCtxCancelled(t *testing.T)                 { conform(t, "lazy road nocache", rowCancel) }
func TestSearchBatchCancelled(t *testing.T)               { conform(t, "matrix nocache", rowCancel) }
func TestRunErrors(t *testing.T)                          { conform(t, "lazy nocache", rowCancel) }
func TestCacheHitRespectsCancelledContext(t *testing.T)   { conform(t, "disk cache", rowCancel) }
func TestCacheNegativeRespectsCancelledContext(t *testing.T) {
	conform(t, "disk-patched cache", rowCancel)
}
func TestSearchBatch(t *testing.T)                      { conform(t, "lazy road nocache", rowBatch) }
func TestSearchBatchHeterogeneous(t *testing.T)         { conform(t, "all", rowBatch) }
func TestSearchBatchDedup(t *testing.T)                 { conform(t, "matrix cache", rowBatch) }
func TestSearchBatchDedupUncacheable(t *testing.T)      { conform(t, "lazy nocache", rowBatch) }
func TestBatchDedupConcurrentWithStampede(t *testing.T) { conform(t, "pending", rowBatch) }
func TestConcurrentSearches(t *testing.T)               { conform(t, "lazy road nocache", rowConcurrent) }
func TestCacheConcurrentConsistency(t *testing.T)       { conform(t, "all cache", rowConcurrent) }
func TestSwapUnderLoad(t *testing.T)                    { conform(t, "matrix disk cache serial", rowUnderLoad) }
func TestCloseDuringBuild(t *testing.T)                 { conform(t, "all serial", rowClose) }

// Metrics and table memory.

func TestEngineMetrics(t *testing.T)           { conform(t, "all", rowMetrics) }
func TestEngineMetricsOracleMemo(t *testing.T) { conform(t, "lazy disk nocache", rowMetrics) }
func TestEngineMetricsSliceMemoResidentBytes(t *testing.T) {
	conform(t, "disk road nocache", rowMetrics)
}
func TestTableBytesGauge(t *testing.T) { conform(t, "lazy disk matrix nocache serial", rowTableBytes) }
func TestEdgePatchesKeepTwoTableMappings(t *testing.T) {
	conform(t, "matrix road cache serial", rowTableMappings)
}
