package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	neturl "net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"kor/internal/cluster"
	"kor/internal/metrics"
	"kor/korapi"
)

// router is the scatter-gather HTTP front: it owns the shard map (static),
// the replica pool (dynamic health/quarantine state) and the instruments.
type router struct {
	shardMap *cluster.ShardMap
	pool     *cluster.Pool
	client   *http.Client

	timeout    time.Duration
	maxPar     int
	retryAfter int

	reg *metrics.Registry
	met *routerMetrics
}

type routerConfig struct {
	// timeout bounds one scattered query across all its shard legs.
	timeout time.Duration
	// maxPar bounds concurrent queries inside one /v1/batch (0 = shards ×4).
	maxPar int
	// retryAfter is the Retry-After floor (seconds) on 429/503 answers.
	retryAfter int
	registry   *metrics.Registry
}

// routerMetrics are the scatter-gather instruments.
type routerMetrics struct {
	requests *metrics.CounterVec   // korrouter_http_requests_total{endpoint,code}
	latency  *metrics.HistogramVec // korrouter_http_request_seconds{endpoint}
	scatter  *metrics.CounterVec   // korrouter_scatter_total{outcome}
	fanout   *metrics.Histogram    // korrouter_scatter_fanout
}

func newRouter(m *cluster.ShardMap, pool *cluster.Pool, client *http.Client, cfg routerConfig) *router {
	rt := &router{
		shardMap:   m,
		pool:       pool,
		client:     client,
		timeout:    cfg.timeout,
		maxPar:     cfg.maxPar,
		retryAfter: cfg.retryAfter,
		reg:        cfg.registry,
	}
	if rt.maxPar <= 0 {
		rt.maxPar = 4 * len(m.Shards)
	}
	if rt.retryAfter <= 0 {
		rt.retryAfter = 1
	}
	if rt.reg != nil {
		rt.met = &routerMetrics{
			requests: rt.reg.CounterVec("korrouter_http_requests_total",
				"HTTP requests served by the router, by endpoint and status code.", "endpoint", "code"),
			latency: rt.reg.HistogramVec("korrouter_http_request_seconds",
				"Router HTTP request wall time in seconds, by endpoint.", nil, "endpoint"),
			scatter: rt.reg.CounterVec("korrouter_scatter_total",
				"Per-shard scatter leg outcomes (ok, error, unavailable, mismatch).", "outcome"),
			fanout: rt.reg.Histogram("korrouter_scatter_fanout",
				"Shards touched per scattered query.",
				[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		}
		rt.reg.GaugeFunc("korrouter_replicas_quarantined",
			"Replicas shed from the scatter set for fingerprint divergence.",
			func() float64 { return float64(pool.QuarantinedReplicas()) })
		rt.reg.GaugeFunc("korrouter_replicas_unhealthy",
			"Replicas currently unreachable.",
			func() float64 { return float64(pool.UnhealthyReplicas()) })
		rt.reg.GaugeFunc("korrouter_shards",
			"Shards in the serving map.",
			func() float64 { return float64(len(m.Shards)) })
	}
	return rt
}

// routes builds the unified /v1 surface. The router deliberately speaks the
// same endpoints as a single korserve so clients (and korload) need no
// cluster awareness.
func (rt *router) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/route", rt.instrument("route", rt.handleRouteGet))
	mux.HandleFunc("POST /v1/route", rt.instrument("route", rt.handleRoutePost))
	mux.HandleFunc("POST /v1/batch", rt.instrument("batch", rt.handleBatch))
	mux.HandleFunc("GET /v1/nodes/{id}", rt.instrument("nodes", rt.handleNode))
	mux.HandleFunc("GET /v1/keywords", rt.instrument("keywords", rt.handleKeywords))
	mux.HandleFunc("GET /v1/stats", rt.instrument("stats", rt.handleStats))
	mux.HandleFunc("POST /v1/admin/patch", rt.instrument("admin", rt.handleAdminPatch))
	if rt.reg != nil {
		mux.HandleFunc("GET /metrics", rt.handleMetrics)
	}
	return mux
}

// statusWriter captures the status a handler wrote for the code label.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument counts and times requests per endpoint, same label scheme as
// korserve's korserve_http_* set so dashboards line up.
//
// korvet:labels — endpoint is a handler-name literal at every call site.
func (rt *router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if rt.met == nil {
		return h
	}
	latency := rt.met.latency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		rt.met.requests.With(endpoint, korapi.StatusLabel(sw.status)).Inc()
		latency.Observe(time.Since(start).Seconds())
	}
}

func (rt *router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rt.reg.WritePrometheus(w); err != nil {
		log.Printf("korrouter: writing metrics: %v", err)
	}
}

// countScatter records one scatter-leg outcome.
//
// korvet:labels — callers pass a literal from the scatter outcome set.
func (rt *router) countScatter(outcome string) {
	if rt.met != nil {
		rt.met.scatter.With(outcome).Inc()
	}
}

// queryCtx derives the scatter context for one client request.
func (rt *router) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if rt.timeout > 0 {
		return context.WithTimeout(r.Context(), rt.timeout)
	}
	return context.WithCancel(r.Context())
}

func (rt *router) handleRouteGet(w http.ResponseWriter, r *http.Request) {
	req, apiErr := korapi.RequestFromParams(r.URL.Query())
	if apiErr != nil {
		korapi.WriteError(w, apiErr)
		return
	}
	ctx, cancel := rt.queryCtx(r)
	defer cancel()
	rt.serveRoute(ctx, w, req)
}

// maxBody caps a request body, as korserve does: the decoder reads no
// further, so neither one huge request nor a batch the request-count limit
// would refuse can take the router's memory first.
const maxBody = 1 << 20

func (rt *router) handleRoutePost(w http.ResponseWriter, r *http.Request) {
	var req korapi.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "invalid JSON body: " + err.Error()})
		return
	}
	ctx, cancel := rt.queryCtx(r)
	defer cancel()
	rt.serveRoute(ctx, w, req)
}

// serveRoute scatters one query and writes the merged outcome.
func (rt *router) serveRoute(ctx context.Context, w http.ResponseWriter, req korapi.Request) {
	gathered := rt.scatter(ctx, req)
	resp, apiErr, retry := cluster.Merge(req.K, gathered)
	if apiErr != nil {
		rt.writeMergedError(w, apiErr, retry)
		return
	}
	korapi.WriteJSON(w, resp)
}

// writeMergedError emits a merged error with the Retry-After contract:
// overload and unavailability always carry the header (satellite of the
// korapi envelope guarantee — a partially down cluster sheds with 429/503
// plus backoff, never a bare 502).
func (rt *router) writeMergedError(w http.ResponseWriter, apiErr *korapi.Error, retry int) {
	if apiErr.Code == korapi.CodeOverloaded || apiErr.Code == korapi.CodeUnavailable {
		if retry < rt.retryAfter {
			retry = rt.retryAfter
		}
		korapi.WriteErrorRetry(w, apiErr, retry)
		return
	}
	korapi.WriteError(w, apiErr)
}

// scatter fans req out to the shards whose keyword postings can answer it
// and gathers the per-shard outcomes. Each leg picks one healthy,
// unquarantined replica of its shard; a response computed on an unexpected
// snapshot is discarded (counted as a mismatch) and the replica is
// re-probed synchronously to decide quarantine.
func (rt *router) scatter(ctx context.Context, req korapi.Request) []cluster.Gathered {
	shards := rt.shardMap.ScatterSet(req.From, req.To, req.Keywords)
	if rt.met != nil {
		rt.met.fanout.Observe(float64(len(shards)))
	}
	gathered := make([]cluster.Gathered, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			gathered[i] = rt.queryShard(ctx, shard, req)
		}(i, shard)
	}
	wg.Wait()
	return gathered
}

// queryShard runs one scatter leg: POST /v1/route on one replica of shard.
func (rt *router) queryShard(ctx context.Context, shard int, req korapi.Request) cluster.Gathered {
	replica, ok := rt.pool.Pick(shard)
	if !ok {
		rt.countScatter("unavailable")
		return cluster.Gathered{Shard: shard, Unavailable: true}
	}
	body, err := json.Marshal(req)
	if err != nil {
		rt.countScatter("error")
		return cluster.Gathered{Shard: shard, Err: &korapi.Error{Code: korapi.CodeInternal, Message: err.Error()}}
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, replica.URL+"/v1/route", bytes.NewReader(body))
	if err != nil {
		rt.countScatter("error")
		return cluster.Gathered{Shard: shard, Err: &korapi.Error{Code: korapi.CodeInternal, Message: err.Error()}}
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(hr)
	if err != nil {
		rt.pool.ObserveFailure(replica, err)
		rt.countScatter("unavailable")
		return cluster.Gathered{Shard: shard, Unavailable: true}
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusOK {
		var out korapi.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			rt.pool.ObserveFailure(replica, fmt.Errorf("decoding %s response: %w", replica.URL, err))
			rt.countScatter("error")
			return cluster.Gathered{Shard: shard, Unavailable: true}
		}
		if !rt.pool.ObserveResponse(replica, out.Snapshot) {
			// The replica answered on a snapshot the router does not accept:
			// the payload may disagree with the rest of the shard set, so it
			// is discarded, and the replica's *live* state decides whether
			// this was a benign in-flight race or a real divergence.
			rt.countScatter("mismatch")
			rt.pool.Confirm(ctx, replica)
			return cluster.Gathered{Shard: shard, Unavailable: true}
		}
		rt.countScatter("ok")
		return cluster.Gathered{Shard: shard, Resp: &out}
	}

	// Wire error: the replica is alive and classified the request.
	rt.pool.ObserveResponse(replica, nil)
	retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	var env korapi.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" {
		rt.countScatter("error")
		return cluster.Gathered{Shard: shard, Unavailable: true, RetryAfter: retryAfter}
	}
	rt.countScatter("error")
	return cluster.Gathered{Shard: shard, Err: &env.Error, RetryAfter: retryAfter}
}

// handleBatch answers POST /v1/batch by scattering each request
// independently, a bounded number at a time. Per-request failures come back
// inline exactly as on a single korserve.
func (rt *router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq korapi.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "invalid JSON body: " + err.Error()})
		return
	}
	requests := breq.Requests
	if len(requests) == 0 {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "batch contains no requests"})
		return
	}
	const maxBatch = 1024
	if len(requests) > maxBatch {
		korapi.WriteError(w, &korapi.Error{
			Code:    korapi.CodeBadRequest,
			Message: fmt.Sprintf("batch of %d exceeds the limit of %d", len(requests), maxBatch),
		})
		return
	}
	par := rt.maxPar
	if breq.Parallelism > 0 && breq.Parallelism < par {
		par = breq.Parallelism
	}
	if par > len(requests) {
		par = len(requests)
	}

	ctx, cancel := rt.queryCtx(r)
	defer cancel()

	results := make([]korapi.BatchResult, len(requests))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, req := range requests {
		wg.Add(1)
		go func(i int, req korapi.Request) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				results[i] = korapi.BatchResult{Error: &korapi.Error{
					Code: korapi.CodeDeadline, Message: "batch deadline exceeded before this request ran",
				}}
				return
			}
			resp, apiErr, _ := cluster.Merge(req.K, rt.scatter(ctx, req))
			if apiErr != nil {
				results[i] = korapi.BatchResult{Error: apiErr}
				return
			}
			results[i] = korapi.BatchResult{Response: resp}
		}(i, req)
	}
	wg.Wait()

	out := korapi.BatchResponse{Results: results}
	for _, res := range results {
		if res.Error != nil && (res.Error.Code == korapi.CodeDeadline || res.Error.Code == korapi.CodeCanceled) {
			out.Incomplete = true
			break
		}
	}
	korapi.WriteJSON(w, out)
}

// handleNode forwards GET /v1/nodes/{id} to a replica of the shard that
// owns the node — the owner always has the node's keywords in its closure.
func (rt *router) handleNode(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil || id < 0 || int(id) >= rt.shardMap.Nodes {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeNotFound, Message: "no such node"})
		return
	}
	shard := rt.shardMap.OwnerOf(id)
	replica, ok := rt.pool.Pick(shard)
	if !ok {
		rt.writeMergedError(w, &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: fmt.Sprintf("no replica of shard %d (owner of node %d) is available", shard, id),
		}, rt.retryAfter)
		return
	}
	ctx, cancel := rt.queryCtx(r)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/nodes/%d", replica.URL, id), nil)
	if err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeInternal, Message: err.Error()})
		return
	}
	resp, err := rt.client.Do(hr)
	if err != nil {
		rt.pool.ObserveFailure(replica, err)
		rt.writeMergedError(w, &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: "the node's shard backend did not answer; retry after backoff",
		}, rt.retryAfter)
		return
	}
	defer resp.Body.Close()
	rt.pool.ObserveResponse(replica, nil)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		log.Printf("korrouter: relaying node response: %v", err)
	}
}

// handleKeywords scatters the autocomplete query to one replica per shard
// and merges the suggestions. Per-keyword node counts are a shard-local view
// whose halo overlap makes the union unrecoverable from live counts alone,
// so counts come from the shard map's owned-node sums (exact: ownership
// partitions the nodes). Keywords the map does not know — added by live
// patches after the cut — fall back to the maximum live count, a lower
// bound.
func (rt *router) handleKeywords(w http.ResponseWriter, r *http.Request) {
	limit := 10
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 || n > 200 {
			korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "limit must be an integer in 1..200"})
			return
		}
		limit = n
	}
	prefix := r.URL.Query().Get("prefix")

	ctx, cancel := rt.queryCtx(r)
	defer cancel()

	shards := rt.pool.Shards()
	type shardKeywords struct {
		resp *korapi.KeywordsResponse
		ok   bool
	}
	outcomes := make([]shardKeywords, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			replica, ok := rt.pool.Pick(shard)
			if !ok {
				return
			}
			url := fmt.Sprintf("%s/v1/keywords?prefix=%s&limit=%d", replica.URL, neturl.QueryEscape(prefix), limit)
			hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(hr)
			if err != nil {
				rt.pool.ObserveFailure(replica, err)
				return
			}
			defer resp.Body.Close()
			rt.pool.ObserveResponse(replica, nil)
			if resp.StatusCode != http.StatusOK {
				return
			}
			var kr korapi.KeywordsResponse
			if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
				return
			}
			outcomes[i] = shardKeywords{resp: &kr, ok: true}
		}(i, shard)
	}
	wg.Wait()

	merged := make(map[string]int)
	answered := false
	for _, oc := range outcomes {
		if !oc.ok {
			continue
		}
		answered = true
		for _, kw := range oc.resp.Keywords {
			if kw.Nodes > merged[kw.Keyword] {
				merged[kw.Keyword] = kw.Nodes
			}
		}
	}
	for kw := range merged {
		if n, ok := rt.shardMap.OwnedKeywordCount(kw); ok {
			merged[kw] = n
		}
	}
	if !answered {
		rt.writeMergedError(w, &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: "no shard backend could answer; retry after backoff",
		}, rt.retryAfter)
		return
	}
	out := korapi.KeywordsResponse{Keywords: make([]korapi.Keyword, 0, len(merged))}
	for kw, nodes := range merged {
		out.Keywords = append(out.Keywords, korapi.Keyword{Keyword: kw, Nodes: nodes})
	}
	// Same order as a single korserve: keyword name ascending.
	sort.Slice(out.Keywords, func(i, j int) bool { return out.Keywords[i].Keyword < out.Keywords[j].Keyword })
	if len(out.Keywords) > limit {
		out.Keywords = out.Keywords[:limit]
	}
	korapi.WriteJSON(w, out)
}

// handleStats serves the full-graph summary from the shard map plus the
// live cluster block from the pool.
func (rt *router) handleStats(w http.ResponseWriter, _ *http.Request) {
	m := rt.shardMap
	out := korapi.Stats{
		Nodes:        m.Nodes,
		Edges:        m.Edges,
		Terms:        m.Terms,
		MinObjective: m.MinObjective,
		MaxObjective: m.MaxObjective,
		MinBudget:    m.MinBudget,
		MaxBudget:    m.MaxBudget,
		Role:         "router",
	}
	if m.Nodes > 0 {
		out.AvgOutDegree = float64(m.Edges) / float64(m.Nodes)
	}
	cs := rt.pool.ClusterStats()
	out.Cluster = &cs
	korapi.WriteJSON(w, out)
}

// handleAdminPatch replicates a delta to every replica of every shard —
// including quarantined ones, which is precisely how a diverged replica
// converges back — then settles each shard's expectation on the post-patch
// consensus fingerprint.
func (rt *router) handleAdminPatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "reading body: " + err.Error()})
		return
	}
	var delta korapi.Delta
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&delta); err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "invalid JSON body: " + err.Error()})
		return
	}
	if delta.Empty() {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: "delta contains no changes"})
		return
	}

	ctx, cancel := rt.queryCtx(r)
	defer cancel()

	shards := rt.pool.Shards()
	perShard := make([][]cluster.AdminResult, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		replicas := rt.pool.Replicas(shard)
		perShard[i] = make([]cluster.AdminResult, len(replicas))
		for j, replica := range replicas {
			wg.Add(1)
			go func(i, j int, replica *cluster.Replica) {
				defer wg.Done()
				perShard[i][j] = rt.patchReplica(ctx, replica, body)
			}(i, j, replica)
		}
	}
	wg.Wait()

	for i, shard := range shards {
		rt.pool.ApplyAdmin(shard, perShard[i])
	}

	// Quarantine bits after every shard settled.
	quarantined := make(map[string]bool)
	for _, ss := range rt.pool.ClusterStats().Shards {
		for _, rep := range ss.Replicas {
			quarantined[rep.URL] = rep.Quarantined
		}
	}

	out := korapi.ClusterAdminResponse{}
	anyOK := false
	var firstErr *korapi.Error
	for i, shard := range shards {
		sa := korapi.ShardAdmin{Shard: shard, ExpectedFingerprint: rt.pool.Expected(shard)}
		for _, res := range perShard[i] {
			ra := korapi.ReplicaAdmin{URL: res.Replica.URL, Quarantined: quarantined[res.Replica.URL]}
			if res.Err != nil {
				ra.Error = res.Err
				if firstErr == nil {
					firstErr = res.Err
				}
			} else {
				ra.Snapshot = res.Snapshot
				anyOK = true
			}
			sa.Replicas = append(sa.Replicas, ra)
		}
		out.Shards = append(out.Shards, sa)
	}
	out.Quarantined = rt.pool.QuarantinedReplicas()

	if !anyOK {
		// Nothing applied anywhere. A uniform wire rejection (the delta
		// itself is bad) propagates as-is; transport-flavored failures shed
		// retryably.
		if firstErr != nil && requestShapedAdmin(firstErr.Code) {
			korapi.WriteError(w, firstErr)
			return
		}
		rt.writeMergedError(w, &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: "no replica accepted the patch; retry after backoff",
		}, rt.retryAfter)
		return
	}
	korapi.WriteJSON(w, out)
}

// requestShapedAdmin reports admin error codes that indict the delta, not
// the backend.
func requestShapedAdmin(code korapi.ErrorCode) bool {
	return code == korapi.CodeBadRequest || code == korapi.CodeNotFound
}

// patchReplica ships the raw delta body to one replica's /v1/admin/patch.
func (rt *router) patchReplica(ctx context.Context, replica *cluster.Replica, body []byte) cluster.AdminResult {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, replica.URL+"/v1/admin/patch", bytes.NewReader(body))
	if err != nil {
		return cluster.AdminResult{Replica: replica, Err: &korapi.Error{Code: korapi.CodeInternal, Message: err.Error()}}
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(hr)
	if err != nil {
		rt.pool.ObserveFailure(replica, err)
		return cluster.AdminResult{Replica: replica, Err: &korapi.Error{Code: korapi.CodeUnavailable, Message: err.Error()}}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env korapi.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" {
			return cluster.AdminResult{Replica: replica, Err: &korapi.Error{
				Code:    korapi.CodeUnavailable,
				Message: fmt.Sprintf("patch on %s: status %d", replica.URL, resp.StatusCode),
			}}
		}
		return cluster.AdminResult{Replica: replica, Err: &env.Error}
	}
	var ar korapi.AdminResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return cluster.AdminResult{Replica: replica, Err: &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: fmt.Sprintf("decoding patch response from %s: %v", replica.URL, err),
		}}
	}
	snap := ar.Snapshot
	return cluster.AdminResult{Replica: replica, Snapshot: &snap}
}
