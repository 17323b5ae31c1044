// Package kor implements keyword-aware optimal route search: given a
// directed graph whose nodes carry keywords and whose edges carry an
// objective value (minimized) and a budget value (constrained), a KOR query
// asks for the route from a source to a target that covers a set of
// keywords, keeps its summed budget within a limit Δ, and minimizes its
// summed objective.
//
// The problem is NP-hard; the package provides the approximation algorithms
// of Cao, Chen, Cong and Xiao, "Keyword-aware Optimal Route Search", PVLDB
// 5(11), 2012:
//
//   - OSScaling — approximation bound 1/(1−ε) on the objective score;
//   - BucketBound — bound β/(1−ε), usually much faster;
//   - Greedy — beam-greedy heuristic, fastest, no guarantee;
//   - top-k (KkR) variants of the two label algorithms;
//   - an exact branch-and-bound and a brute-force baseline for validation.
//
// # Quick start
//
//	b := kor.NewBuilder()
//	hotel := b.AddNode("hotel")
//	cafe := b.AddNode("cafe", "jazz")
//	park := b.AddNode("park")
//	b.AddEdge(hotel, cafe, 0.7, 1.2) // objective, budget
//	b.AddEdge(cafe, park, 0.3, 0.8)
//	b.AddEdge(park, hotel, 0.5, 1.0)
//	g := b.MustBuild()
//
//	eng, _ := kor.NewEngine(g, nil)
//	resp, _ := eng.Run(context.Background(), kor.Request{
//		From: hotel, To: hotel,
//		Keywords: []string{"jazz", "park"},
//		Budget:   4,
//	})
//	fmt.Println(resp.Best())
//
// Run is the single entry point: the Request names the algorithm (the zero
// value picks BucketBound) and optionally overrides the tuning Options, and
// the Response carries the routes with the algorithm's approximation bound,
// work metrics and wall time.
//
// Node keywords, edge attributes and the two pre-processing path families
// (τ: minimum objective, σ: minimum budget) follow the paper's definitions;
// see DESIGN.md in the repository for the fidelity notes.
package kor

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/gen"
	"kor/internal/graph"
	"kor/internal/metrics"
)

// Re-exported fundamental types. The façade keeps the internal packages'
// types rather than wrapping them: they are already the public shape.
type (
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// Term is an interned keyword.
	Term = graph.Term
	// Graph is the immutable KOR graph.
	Graph = graph.Graph
	// Builder assembles a Graph.
	Builder = graph.Builder
	// Route is a search result.
	Route = core.Route
	// Options tunes the algorithms (ε, β, α, beam width, k, strategy 2).
	Options = core.Options
	// Metrics counts the work a search performed.
	Metrics = core.Metrics
	// Delta describes an incremental graph change for Engine.Patch and
	// Graph.Apply: keyword churn, edge-attribute drift, edges appearing and
	// disappearing.
	Delta = graph.Delta
	// KeywordPatch names a node and keywords to add or remove in a Delta.
	KeywordPatch = graph.KeywordPatch
	// EdgePatch addresses an edge and its new attributes in a Delta.
	EdgePatch = graph.EdgePatch
	// EdgeRef addresses an edge for removal in a Delta.
	EdgeRef = graph.EdgeRef
	// GraphStats is the graph summary ComputeStats and Engine.Stats return.
	GraphStats = graph.Stats
)

// Errors surfaced by the engine, re-exported from the core package.
var (
	// ErrNoRoute reports that no feasible route exists.
	ErrNoRoute = core.ErrNoRoute
	// ErrBadQuery reports a malformed query.
	ErrBadQuery = core.ErrBadQuery
	// ErrBudgetExceeded reports a greedy route that covers the keywords but
	// violates the budget; the route is still returned.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrSearchLimit reports that the expansion cap fired before the search
	// concluded.
	ErrSearchLimit = core.ErrSearchLimit
	// ErrUnknownAlgorithm reports a Request.Algorithm missing from the
	// registry; errors carrying it also match ErrBadQuery.
	ErrUnknownAlgorithm = core.ErrUnknownAlgorithm
	// ErrUnknownKeyword reports a query keyword absent from the graph's
	// vocabulary.
	ErrUnknownKeyword = errors.New("kor: unknown keyword")
)

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// DefaultOptions returns the paper's experimental defaults: ε=0.5, β=1.2,
// α=0.5, beam width 1, k=1, optimization strategy 2 enabled (strategy 1 is
// not implemented).
func DefaultOptions() Options { return core.DefaultOptions() }

// OracleKind selects the τ/σ pre-processing implementation.
type OracleKind int

const (
	// OracleAuto picks dense tables for small graphs and lazy sweeps for
	// large ones.
	OracleAuto OracleKind = iota
	// OracleDense materializes the full |V|² score tables (the paper's
	// pre-processing), in the background.
	OracleDense
	// OracleLazy runs Dijkstra sweeps on demand, each query its own, and
	// keeps none between queries.
	OracleLazy
)

// denseOracleLimit is the node count up to which OracleAuto chooses dense
// tables (5·n²·8 bytes ≈ 1.5 GiB at the limit, score and parent tables).
const denseOracleLimit = 6000

// EngineConfig customizes engine construction. The zero value is valid.
type EngineConfig struct {
	// Oracle selects the pre-processing implementation. A table oracle
	// (OracleDense, or OracleAuto up to denseOracleLimit nodes) is built in
	// the background: the engine answers at once from the exact lazy
	// oracle, and the tables take over when they are filled
	// (OracleStatus.Pending). Each Swap or Patch that changes an edge starts
	// over for the new edges.
	Oracle OracleKind
	// DistIndexPath, when non-empty, loads a persistent distance oracle
	// built by WriteDistIndex (kordata -build-index) instead of running the
	// τ/σ pre-processing at startup; Oracle is then ignored for the
	// construction graph. The file is bound to one graph:
	// NewEngine fails with apsp.ErrIndexFingerprint when it does not match.
	// It keeps serving after a Swap or Patch that changes only keywords;
	// after one that changes an edge the engine falls back to a lazy oracle
	// and reports OracleStatus.Degraded until a graph with the same edges is
	// installed again.
	DistIndexPath string
	// CacheSize, when positive, bounds a shard-locked LRU cache of query
	// responses keyed by the request's canonical form and the snapshot's
	// generation. Repeated identical requests — the hot fraction of any
	// live query stream — are answered from the cache without a search;
	// hits are flagged on the Response and counted in CacheStats. 0
	// disables caching.
	CacheSize int
	// Metrics, when non-nil, receives the engine's operational metrics
	// (request totals by algorithm/outcome, latency histograms, cache
	// hit/miss, snapshot generation, oracle memo counters; see metrics.go). The
	// registry must not already hold metrics with the kor_engine_ names —
	// in particular, do not share one registry between two engines.
	Metrics *metrics.Registry
}

// Engine answers KOR queries over a graph. It answers from the moment
// NewEngine returns: a table oracle's pre-processing runs in the background
// meanwhile (EngineConfig.Oracle), and queries are independent.
//
// An Engine is safe for concurrent use: the shared substrates (graph,
// oracle, keyword index) are immutable or internally synchronized, and all
// per-query state lives on the query's own stack. Serve every request from
// one Engine — the result layer then answers repeated requests once, and a
// partitioned oracle's slice memo amortizes slices across concurrent
// queries, with duplicate computations single-flighted. Run answers
// one Request with per-request deadlines and cancellation through its
// context; SearchBatch runs a whole Request set on a worker pool.
//
// The graph is not fixed for the engine's lifetime: Swap installs a new
// graph and Patch applies an incremental Delta, both atomically — in-flight
// queries finish on the snapshot they started with, later queries see the
// new graph (see snapshot.go).
type Engine struct {
	// snap is the current graph snapshot: the graph plus everything derived
	// from it. Queries load it once at entry and never look again.
	snap atomic.Pointer[snapshot]
	// cfg is retained so Swap and Patch rebuild oracles with the same
	// configuration the engine was constructed with.
	cfg EngineConfig

	// distOracle is the disk-loaded distance oracle (DistIndexPath), shared
	// by every snapshot whose graph has the edges it was opened with, which
	// distFP digests (Graph.DistanceFingerprint); distLoad is how long
	// OpenIndex took. All three are set once at construction.
	distOracle *apsp.PartitionedOracle
	distFP     uint64
	distLoad   time.Duration

	// results answers duplicate requests without a search: the optional
	// result cache (EngineConfig.CacheSize), single-flight and batch dedup,
	// all under one canonical key (see results.go).
	results *results

	// swapMu serializes Swap and Patch so concurrent patches compose;
	// generation is guarded by it.
	swapMu     sync.Mutex
	generation uint64
	// degradedSince dates the start of the current degraded-oracle episode
	// (persistent distance index configured but the live graph diverged);
	// zero while serving from the index. Written only by pickOracle — at
	// construction or under swapMu — and read through the snapshot's
	// OracleStatus, so repeated patches keep the original onset rather than
	// restarting the clock.
	degradedSince time.Time

	// build is the latest background table build (snapshot.go), nil before
	// the first; closed, set by Close, keeps later installs from starting
	// one. Both are guarded by swapMu. buildHook, when set, runs at the
	// start of every build's fill: tests hold a build there.
	build     *tableBuild
	closed    bool
	buildHook func(*tableBuild)

	// met holds the engine's instruments when EngineConfig.Metrics was set;
	// nil otherwise (every update site nil-checks).
	met *engineMetrics
}

// Suggestion pairs a keyword with the number of nodes carrying it.
type Suggestion struct {
	Keyword string
	Nodes   int
}

// Suggest returns up to limit keywords starting with prefix, in ascending
// order, each with its node count — the autocomplete primitive for a search
// box. It scans the current snapshot's vocabulary.
func (e *Engine) Suggest(prefix string, limit int) []Suggestion {
	if limit <= 0 {
		limit = 10
	}
	var out []Suggestion
	sn := e.snap.Load()
	idx := sn.searcher.Index()
	for term, name := range sn.g.Vocab().Names() {
		if strings.HasPrefix(name, prefix) {
			out = append(out, Suggestion{Keyword: name, Nodes: idx.DocFrequency(Term(term))})
		}
	}
	slices.SortFunc(out, func(a, b Suggestion) int { return strings.Compare(a.Keyword, b.Keyword) })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// NewEngine returns an engine over g, ready to answer. A nil config uses
// OracleAuto. When the configured oracle is a table, the engine answers from
// the exact lazy oracle while one background build fills the tables, which
// then take over (OracleStatus reports which oracle answers); a persistent
// distance index is opened before NewEngine returns.
func NewEngine(g *Graph, cfg *EngineConfig) (*Engine, error) { return newEngine(g, cfg, nil) }

// newEngine is NewEngine with a build hook (Engine.buildHook).
func newEngine(g *Graph, cfg *EngineConfig, buildHook func(*tableBuild)) (*Engine, error) {
	if g == nil {
		return nil, errors.New("kor: nil graph")
	}
	if cfg == nil {
		cfg = &EngineConfig{}
	}
	eng := &Engine{cfg: *cfg, results: newResults(cfg.CacheSize), buildHook: buildHook}
	if cfg.Metrics != nil {
		// After the results so the cache instruments register too; before the
		// first snapshot store is fine — the callback metrics only run at
		// exposition time, when the snapshot pointer is set.
		eng.registerMetrics(cfg.Metrics)
	}
	if cfg.DistIndexPath != "" {
		start := time.Now()
		po, err := apsp.OpenIndex(cfg.DistIndexPath, g)
		if err != nil {
			return nil, fmt.Errorf("kor: loading distance index %s: %w", cfg.DistIndexPath, err)
		}
		eng.distOracle = po
		eng.distLoad = time.Since(start)
		eng.distFP = g.DistanceFingerprint()
	}
	sn, err := eng.newSnapshot(g, 1, nil)
	if err != nil {
		eng.Close()
		return nil, err
	}
	eng.swapMu.Lock()
	eng.publishLocked(sn)
	if sn.oracle.Pending != "" {
		eng.buildLocked(g)
	}
	eng.swapMu.Unlock()
	return eng, nil
}

// WriteDistIndex runs the partitioned τ/σ pre-processing for g and persists
// it to path in the KORI format, ready for EngineConfig.DistIndexPath /
// korserve -dist-index. cellSize ≤ 0 uses apsp.DefaultCellSize. The file is
// bound to g's fingerprint.
func WriteDistIndex(path string, g *Graph, cellSize int) (apsp.IndexInfo, error) {
	if cellSize <= 0 {
		cellSize = apsp.DefaultCellSize
	}
	o := apsp.NewPartitionedOracle(g, cellSize)
	if err := o.WriteIndexFile(path); err != nil {
		return apsp.IndexInfo{}, err
	}
	info := o.IndexInfo()
	if st, err := os.Stat(path); err == nil {
		info.Bytes = st.Size()
	}
	return info, nil
}

// CacheStats is a point-in-time snapshot of the response cache's counters.
type CacheStats struct {
	// Hits and Misses count Run lookups over the engine's lifetime; only
	// cacheable requests (no tracer) are counted.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Coalesced counts requests answered by sharing another request's
	// search instead of running their own: single-flight followers of an
	// identical in-flight request and duplicates inside a SearchBatch.
	// Such requests are not counted in Misses.
	Coalesced int64
	// Size is the current entry count; Capacity the bound on it:
	// EngineConfig.CacheSize rounded up to a multiple of the shard count.
	Size     int
	Capacity int
}

// CacheStats snapshots the response cache. ok is false when caching is
// disabled (EngineConfig.CacheSize was 0).
func (e *Engine) CacheStats() (stats CacheStats, ok bool) {
	if !e.results.stores() {
		return CacheStats{}, false
	}
	return e.results.stats(), true
}

// Close stops the background table build, if one is running, and waits for
// it to end; then it releases the mmap behind a persistent distance oracle,
// when configured. The engine must not be used afterwards.
func (e *Engine) Close() error {
	e.swapMu.Lock()
	e.closed = true
	b := e.build
	if b != nil {
		b.cancelLocked()
	}
	e.swapMu.Unlock()
	if b != nil {
		<-b.done
	}
	if e.distOracle == nil {
		return nil
	}
	return e.distOracle.Close()
}

// Graph returns the engine's current graph. After a Swap or Patch it
// returns the new graph; a Response identifies the exact snapshot its
// routes were computed on via Response.Snapshot.
func (e *Engine) Graph() *Graph { return e.snap.Load().g }

// Describe renders a route using node names where available, resolved
// against the current snapshot's graph. Node IDs the current graph does
// not know (a route computed before a Swap shrank the graph — prefer
// Response.Graph for rendering in that case) fall back to their numeric
// form rather than faulting.
func (e *Engine) Describe(r Route) string {
	g := e.snap.Load().g
	out := ""
	for i, v := range r.Nodes {
		if i > 0 {
			out += " → "
		}
		name := ""
		if g.Valid(v) {
			name = g.Name(v)
		}
		if name != "" {
			out += name
		} else {
			out += fmt.Sprintf("#%d", v)
		}
	}
	return fmt.Sprintf("%s  (objective %.4g, budget %.4g)", out, r.Objective, r.Budget)
}

// SaveGraph writes g to path in the binary graph format.
func SaveGraph(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Load(f)
}

// SyntheticCity generates the Flickr-like city dataset used throughout the
// examples and benchmarks: simulated photographers whose trips induce a
// popularity-weighted location graph (objective = −log popularity, budget =
// kilometres). Deterministic in seed.
func SyntheticCity(seed int64) (*Graph, error) {
	g, _, err := gen.FlickrGraph(gen.FlickrConfig{Seed: seed})
	return g, err
}

// SyntheticRoadNetwork generates a strongly connected road-network graph
// with the given node count: Euclidean budgets (km), uniform (0,1)
// objectives, Zipf keywords. Deterministic in seed.
func SyntheticRoadNetwork(seed int64, nodes int) *Graph {
	return gen.RoadNetwork(gen.RoadConfig{Seed: seed, Nodes: nodes})
}

// SyntheticGrid generates the grid road network used for real-world-scale
// testing: near-square lattice, jittered positions, power-law keywords.
// Unlike SyntheticRoadNetwork it builds through the streaming CSR path in
// bounded memory, so million-node graphs are practical. Deterministic in
// seed.
func SyntheticGrid(seed int64, nodes int) *Graph {
	return gen.GridRoad(gen.GridConfig{Seed: seed, Nodes: nodes})
}

// LoadGraphCSV ingests the two-file CSV text shape (node records
// "id,x,y[,keywords]", edge records "from,to,objective,budget") through the
// streaming two-pass builder. Parse failures carry file:line locations.
func LoadGraphCSV(nodesPath, edgesPath string) (*Graph, error) {
	nf, err := os.Open(nodesPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	return graph.LoadCSV(nf, nodesPath, ef, edgesPath)
}

// LoadGraphOSM ingests the single-file OSM-extract TSV shape
// ("node<TAB>id<TAB>lat<TAB>lon[<TAB>keywords]",
// "edge<TAB>from<TAB>to<TAB>length[<TAB>objective]").
func LoadGraphOSM(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.LoadOSMTSV(f, path)
}
