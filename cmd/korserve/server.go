package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"kor"
	"kor/internal/metrics"
	"kor/korapi"
)

// server holds the shared engine and the request policy. Handlers marshal
// straight to and from the korapi wire types; the engine's Run entrypoint
// does the dispatching.
type server struct {
	eng       *kor.Engine
	graphPath string        // graph file for /v1/admin/reload, "" = reload disabled
	timeout   time.Duration // per-request search deadline, 0 = none
	maxPar    int           // worker-pool cap for /v1/batch

	role    string // serving role reported in /v1/stats, "" = standalone
	shardID string // shard this replica serves, "" = unsharded

	lim *limiter          // admission gate for query endpoints, nil = unlimited
	reg *metrics.Registry // exposed at GET /metrics, nil = endpoint disabled
	met *serverMetrics    // nil exactly when reg is nil
}

// serverConfig is the request policy newServer wires into the handler set.
type serverConfig struct {
	graphPath string        // graph file for /v1/admin/reload, "" = reload disabled
	timeout   time.Duration // per-request search deadline, 0 = none
	maxPar    int           // worker-pool cap for /v1/batch, 0 = GOMAXPROCS

	// maxInFlight bounds concurrently running query requests (/v1/route,
	// /v1/batch); 0 disables admission control.
	maxInFlight int
	// maxQueue bounds requests waiting for admission once the in-flight
	// limit is reached; beyond it requests are shed immediately.
	maxQueue int
	// queueWait bounds how long a queued request waits before it is shed.
	queueWait time.Duration

	// role and shardID identify this process inside a cluster: role
	// "replica" plus the shard name from the shard map. Both surface in
	// /v1/stats so a korrouter can verify it is talking to the backend it
	// thinks it is. Empty = standalone.
	role    string
	shardID string

	// registry, when non-nil, is served at GET /metrics; the server
	// registers its own korserve_ metrics there (the caller typically also
	// passed it to the engine for the kor_engine_ set).
	registry *metrics.Registry
}

// serverMetrics are the HTTP- and admission-level instruments.
type serverMetrics struct {
	requests  *metrics.CounterVec   // korserve_http_requests_total{endpoint,code}
	latency   *metrics.HistogramVec // korserve_http_request_seconds{endpoint}
	admission *metrics.CounterVec   // korserve_admission_total{outcome}
}

func newServer(eng *kor.Engine, cfg serverConfig) *server {
	s := &server{
		eng:       eng,
		graphPath: cfg.graphPath,
		timeout:   cfg.timeout,
		maxPar:    cfg.maxPar,
		role:      cfg.role,
		shardID:   cfg.shardID,
		reg:       cfg.registry,
	}
	if cfg.maxInFlight > 0 {
		s.lim = newLimiter(cfg.maxInFlight, cfg.maxQueue, cfg.queueWait)
	}
	if s.reg != nil {
		s.met = &serverMetrics{
			requests: s.reg.CounterVec("korserve_http_requests_total",
				"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
			latency: s.reg.HistogramVec("korserve_http_request_seconds",
				"HTTP request wall time in seconds, by endpoint.", nil, "endpoint"),
			admission: s.reg.CounterVec("korserve_admission_total",
				"Admission decisions on query endpoints (admitted, rejected, canceled).", "outcome"),
		}
		if s.lim != nil {
			s.reg.GaugeFunc("korserve_inflight_requests",
				"Query requests currently admitted and running.",
				func() float64 { return float64(s.lim.inFlight()) })
			s.reg.GaugeFunc("korserve_queue_depth",
				"Query requests currently waiting for admission.",
				func() float64 { return float64(s.lim.queued()) })
		}
	}
	return s
}

// routes builds the HTTP surface: the versioned /v1 endpoints. Query
// endpoints (route, batch) pass the admission gate; cheap reads and admin
// calls do not — an operator must be able to see /v1/stats and /metrics on
// a saturated server, that being exactly when they are needed.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/route", s.instrument("route", s.limited(s.handleRouteGet)))
	mux.HandleFunc("POST /v1/route", s.instrument("route", s.limited(s.handleRoutePost)))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.limited(s.handleBatch)))
	mux.HandleFunc("GET /v1/nodes/{id}", s.instrument("nodes", s.handleNode))
	mux.HandleFunc("GET /v1/keywords", s.instrument("keywords", s.handleKeywords))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /v1/admin/patch", s.instrument("admin", s.handleAdminPatch))
	mux.HandleFunc("POST /v1/admin/reload", s.instrument("admin", s.handleAdminReload))
	if s.reg != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	return mux
}

// limited wraps a query handler behind the admission gate. A shed request
// is answered with the 429 overloaded envelope and a Retry-After hint; a
// client that disconnected while queued gets the 499 envelope (never read,
// but it keeps the access log honest).
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	if s.lim == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.lim.acquire(r.Context()); err != nil {
			if errors.Is(err, errSaturated) {
				s.countAdmission("rejected")
				w.Header().Set("Retry-After", strconv.Itoa(s.lim.retryAfterSeconds()))
				writeError(w, &korapi.Error{
					Code:    korapi.CodeOverloaded,
					Message: "server is at its in-flight limit; retry after backoff",
				})
				return
			}
			s.countAdmission("canceled")
			writeError(w, &korapi.Error{Code: korapi.CodeCanceled, Message: "client went away while queued"})
			return
		}
		defer s.lim.release()
		s.countAdmission("admitted")
		h(w, r)
	}
}

// countAdmission records one admission-gate decision.
//
// korvet:labels — callers pass "admitted", "rejected" or "canceled".
func (s *server) countAdmission(outcome string) {
	if s.met != nil {
		s.met.admission.With(outcome).Inc()
	}
}

// statusWriter captures the status code a handler wrote, for the request
// counter's code label.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument counts and times requests per endpoint. The endpoint label is
// the coarse handler name, never the raw path — paths carry user input and
// would blow up the label cardinality. The endpoint is fixed per wrapped
// handler, so its histogram child is resolved once here; the request
// counter's code label varies and is looked up per request.
//
// korvet:labels — endpoint is a handler-name literal at every call site.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.met == nil {
		return h
	}
	latency := s.met.latency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.met.requests.With(endpoint, korapi.StatusLabel(sw.status)).Inc()
		latency.Observe(time.Since(start).Seconds())
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		log.Printf("korserve: writing metrics: %v", err)
	}
}

// queryCtx derives the search context for one request: the client's context
// (so a dropped connection aborts the search) plus the configured deadline.
func (s *server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// requestFromParams decodes a korapi.Request from URL query parameters.
// The parsing lives in korapi.RequestFromParams so korrouter accepts the
// exact same GET spelling.
func requestFromParams(qv map[string][]string) (korapi.Request, *korapi.Error) {
	return korapi.RequestFromParams(qv)
}

func (s *server) handleRouteGet(w http.ResponseWriter, r *http.Request) {
	req, apiErr := requestFromParams(r.URL.Query())
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	s.serveRoute(w, r, req)
}

// decodeBody decodes a JSON request body of at most 1 MiB into v. A field v
// does not have is an error, as it is at korrouter: a misspelt option must
// not be silently ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *server) handleRoutePost(w http.ResponseWriter, r *http.Request) {
	var req korapi.Request
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "bad request body: " + err.Error()})
		return
	}
	s.serveRoute(w, r, req)
}

// serveRoute answers one route request, shared by the GET and POST forms.
// format=geojson renders the best route as a GeoJSON FeatureCollection
// instead of the korapi response.
func (s *server) serveRoute(w http.ResponseWriter, r *http.Request, req korapi.Request) {
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "geojson" {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "unknown format " + format})
		return
	}
	korReq, err := req.KorRequest()
	if err != nil {
		writeError(w, korapi.ErrorFrom(err))
		return
	}

	ctx, cancel := s.queryCtx(r)
	defer cancel()
	resp, err := s.eng.Run(ctx, korReq)
	if apiErr := korapi.ErrorFrom(err); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// A greedy budget overshoot is a 200 with the violating routes
	// (Feasible=false) and a warning — not an error envelope: the caller
	// asked a heuristic and gets its best effort plus the reason it is
	// imperfect.
	warning := korapi.WarningFrom(err)

	// Render against the graph that computed the routes, not the engine's
	// current one: a concurrent swap may have installed a different (even
	// smaller) graph, whose names/positions would mislabel — or
	// out-of-range — the route's node IDs.
	g := resp.Graph()
	if format == "geojson" {
		if !g.HasPositions() {
			writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "graph carries no coordinates for GeoJSON"})
			return
		}
		buf, err := kor.RouteGeoJSON(g, resp.Best())
		if err != nil {
			writeError(w, &korapi.Error{Code: korapi.CodeInternal, Message: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/geo+json")
		if _, err := w.Write(buf); err != nil {
			log.Printf("korserve: writing geojson: %v", err)
		}
		return
	}
	out := korapi.ResponseFromKor(g, resp, req.Metrics)
	out.Warning = warning
	writeJSON(w, out)
}

// handleBatch answers many requests in one call via the engine's worker
// pool. Per-request failures come back inline so one infeasible query does
// not fail the batch.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch korapi.BatchRequest
	// The body is bounded before decoding: the request-count limit below
	// cannot protect memory if the decoder has already swallowed the payload.
	if err := decodeBody(w, r, &batch); err != nil {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "bad batch body: " + err.Error()})
		return
	}
	wireReqs := batch.Requests
	if len(wireReqs) == 0 || len(wireReqs) > 1024 {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "batch must contain 1..1024 requests"})
		return
	}
	// Bound the client-requested parallelism: the configured cap, or
	// GOMAXPROCS when none was set — never let a request pick its own
	// unbounded worker count.
	maxPar := s.maxPar
	if maxPar <= 0 {
		maxPar = runtime.GOMAXPROCS(0)
	}
	par := batch.Parallelism
	if par < 1 || par > maxPar {
		par = maxPar
	}
	if par > len(wireReqs) {
		// SearchBatch never runs more workers than requests; taking slots
		// for workers that would not exist would starve /v1/route for
		// nothing.
		par = len(wireReqs)
	}
	// Under admission control a batch is worth its worker count, not one
	// slot: widen the pool only by slots that are free right now, so the
	// total number of concurrent searches (single routes + all batch
	// workers) never exceeds the in-flight limit. The slot this request was
	// admitted on guarantees par ≥ 1.
	if s.lim != nil {
		extra := s.lim.tryAcquireExtra(par - 1)
		defer s.lim.releaseExtra(extra)
		par = 1 + extra
	}
	requests := make([]kor.Request, len(wireReqs))
	for i, wr := range wireReqs {
		kr, err := wr.KorRequest()
		if err != nil {
			writeError(w, korapi.ErrorFrom(fmt.Errorf("request %d: %w", i, err)))
			return
		}
		requests[i] = kr
	}

	ctx, cancel := s.queryCtx(r)
	defer cancel()
	// A deadline firing mid-batch must not discard the requests that did
	// finish: SearchBatch fills every slot either way, so always return the
	// per-request results — entries cut short carry their error inline —
	// and flag the batch as incomplete.
	results, batchErr := s.eng.SearchBatch(ctx, requests, par)

	out := korapi.BatchResponse{Results: make([]korapi.BatchResult, len(results)), Incomplete: batchErr != nil}
	for i, br := range results {
		if apiErr := korapi.ErrorFrom(br.Err); apiErr != nil {
			out.Results[i] = korapi.BatchResult{Error: apiErr}
			continue
		}
		// Same as serveRoute: render each slot against the snapshot graph
		// that answered it, immune to concurrent swaps.
		resp := korapi.ResponseFromKor(br.Response.Graph(), br.Response, wireReqs[i].Metrics)
		resp.Warning = korapi.WarningFrom(br.Err)
		out.Results[i] = korapi.BatchResult{Response: &resp}
	}
	writeJSON(w, out)
}

func (s *server) handleNode(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	g := s.eng.Graph()
	if err != nil || !g.Valid(kor.NodeID(id)) {
		writeError(w, &korapi.Error{Code: korapi.CodeNotFound, Message: "no such node"})
		return
	}
	v := kor.NodeID(id)
	keywords := make([]string, 0, len(g.Terms(v)))
	for _, t := range g.Terms(v) {
		keywords = append(keywords, g.Vocab().Name(t))
	}
	pos := g.Position(v)
	writeJSON(w, korapi.Node{
		ID:       id,
		Name:     g.Name(v),
		Keywords: keywords,
		X:        pos.X,
		Y:        pos.Y,
		Degree:   g.OutDegree(v),
	})
}

// handleAdminPatch applies a JSON delta to the serving graph: in-flight
// queries finish on the old snapshot, subsequent queries see the patched
// graph, and the result cache is flushed (stale entries were already
// unreachable through the fingerprint in every cache key).
func (s *server) handleAdminPatch(w http.ResponseWriter, r *http.Request) {
	var wire korapi.Delta
	if err := decodeBody(w, r, &wire); err != nil {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "bad delta body: " + err.Error()})
		return
	}
	if wire.Empty() {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "delta contains no changes"})
		return
	}
	d, err := wire.KorDelta()
	if err != nil {
		writeError(w, korapi.ErrorFrom(err))
		return
	}
	if _, err := s.eng.Patch(d); err != nil {
		writeError(w, korapi.ErrorFrom(err))
		return
	}
	s.warnIfDegraded()
	s.writeAdmin(w)
}

// warnIfDegraded logs when an admin update left the serving graph's edges
// out of step with the configured persistent distance index. The condition
// is also visible in /v1/stats and the kor_engine_oracle_degraded metric;
// the log line is for the operator tailing the server during the update.
func (s *server) warnIfDegraded() {
	if ost := s.eng.OracleStatus(); ost.Degraded {
		log.Printf("korserve: graph edges no longer match the persistent distance index (built for %016x); serving from a lazy oracle until a graph with the same edges is installed",
			ost.IndexFingerprint)
	}
}

// handleAdminReload re-reads the graph file the server was started from and
// swaps it in, the full-refresh counterpart of the incremental patch.
func (s *server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if s.graphPath == "" {
		writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "server has no graph file to reload"})
		return
	}
	g, err := kor.LoadGraph(s.graphPath)
	if err != nil {
		writeError(w, &korapi.Error{Code: korapi.CodeInternal, Message: "reloading graph: " + err.Error()})
		return
	}
	info, err := s.eng.Swap(g)
	if err != nil {
		writeError(w, korapi.ErrorFrom(err))
		return
	}
	log.Printf("korserve: reloaded %s: generation %d, fingerprint %016x", s.graphPath, info.Generation, info.Fingerprint)
	s.warnIfDegraded()
	s.writeAdmin(w)
}

// writeAdmin reports the snapshot now serving queries. Engine.Stats reads
// the summary and the identity from one snapshot load, so the fingerprint,
// generation and node/edge counts are always mutually consistent — if
// another admin call raced in between, the response reflects that newer
// snapshot rather than mixing two versions.
func (s *server) writeAdmin(w http.ResponseWriter) {
	st, info := s.eng.Stats()
	writeJSON(w, korapi.AdminResponse{
		Snapshot: korapi.SnapshotFromKor(info),
		Nodes:    st.Nodes,
		Edges:    st.Edges,
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Engine.Stats serves the scan memoized per snapshot — a stats poller
	// costs one O(V+E) scan per graph version, not per request.
	st, info := s.eng.Stats()
	out := korapi.Stats{
		Nodes:        st.Nodes,
		Edges:        st.Edges,
		Terms:        st.Terms,
		AvgOutDegree: st.AvgOutDegree,
		MaxOutDegree: st.MaxOutDegree,
		AvgTerms:     st.AvgTerms,
		MinObjective: st.MinObjective,
		MaxObjective: st.MaxObjective,
		MinBudget:    st.MinBudget,
		MaxBudget:    st.MaxBudget,
		Isolated:     st.Isolated,
	}
	if cs, ok := s.eng.CacheStats(); ok {
		wire := korapi.CacheStatsFromKor(cs)
		out.Cache = &wire
	}
	snap := korapi.SnapshotFromKor(info)
	out.Snapshot = &snap
	out.Role = s.role
	out.Shard = s.shardID
	ost := s.eng.OracleStatus()
	oi := korapi.OracleInfo{
		Kind:       ost.Kind,
		Pending:    ost.Pending,
		Degraded:   ost.Degraded,
		IndexBytes: ost.IndexBytes,
		Mapped:     ost.Mapped,
		TableBytes: kor.OracleTableBytes(),
		LoadMillis: float64(ost.LoadTime) / float64(time.Millisecond),
	}
	if !ost.Since.IsZero() {
		oi.Since = ost.Since.UTC().Format(time.RFC3339Nano)
	}
	if ost.IndexFingerprint != 0 {
		oi.IndexFingerprint = fmt.Sprintf("%016x", ost.IndexFingerprint)
	}
	if ost.Degraded && !ost.DegradedSince.IsZero() {
		oi.DegradedSince = ost.DegradedSince.UTC().Format(time.RFC3339Nano)
	}
	out.Oracle = &oi
	writeJSON(w, out)
}

// handleKeywords serves keyword autocomplete:
// GET /v1/keywords?prefix=caf&limit=10
func (s *server) handleKeywords(w http.ResponseWriter, r *http.Request) {
	limit := 10
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 || n > 200 {
			writeError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "limit must be an integer in 1..200"})
			return
		}
		limit = n
	}
	suggestions := s.eng.Suggest(r.URL.Query().Get("prefix"), limit)
	out := korapi.KeywordsResponse{Keywords: make([]korapi.Keyword, len(suggestions))}
	for i, sg := range suggestions {
		out.Keywords[i] = korapi.Keyword{Keyword: sg.Keyword, Nodes: sg.Nodes}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) { korapi.WriteJSON(w, v) }

// writeError emits the korapi error envelope with the code's HTTP status;
// the implementation is shared with korrouter via korapi.WriteError, so a
// single server and a cluster router shed with identical envelopes.
func writeError(w http.ResponseWriter, apiErr *korapi.Error) { korapi.WriteError(w, apiErr) }
