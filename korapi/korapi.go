// Package korapi defines the JSON wire types of the kor HTTP API: the
// request and response bodies the versioned /v1 endpoints of korserve speak,
// and the error envelope with machine-readable error codes. Any client — or
// an alternative server — can depend on this package alone for the wire
// contract; the conversions to and from the in-process kor types live in
// convert.go.
//
// Wire stability: field names are part of the public contract. New fields
// may be added (always with omitempty); existing names and meanings do not
// change within /v1.
package korapi

import "fmt"

// Request is the wire form of one KOR query, accepted by POST /v1/route and
// inside /v1/batch bodies. GET /v1/route encodes the same fields as URL
// parameters (from, to, keywords, budget, algorithm, k, plus the flat
// option parameters epsilon/beta/alpha/width).
type Request struct {
	// From and To are the route endpoint node IDs; equal for a round trip.
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Keywords are the keyword strings the route must cover.
	Keywords []string `json:"keywords"`
	// Budget is the budget limit Δ.
	Budget float64 `json:"budget,omitempty"`
	// Algorithm selects the search algorithm: "bucketbound" (default),
	// "osscaling", "greedy", "topk", "exact" or "bruteforce".
	Algorithm string `json:"algorithm,omitempty"`
	// K, when positive, asks for the K best distinct routes, at most 32; a
	// larger K is a bad_request.
	K int `json:"k,omitempty"`
	// Metrics asks the server to attach the search work counters to the
	// response.
	Metrics bool `json:"metrics,omitempty"`
	// Options overrides individual tuning parameters; absent fields keep
	// the server defaults.
	Options *Options `json:"options,omitempty"`
}

// BudgetLimit returns the budget limit Δ.
func (r Request) BudgetLimit() float64 { return r.Budget }

// Options is the wire form of the tuning parameters. Every field is a
// pointer so "absent" (keep the default) is distinguishable from an explicit
// zero; out-of-domain values are rejected server-side with a bad_request
// error rather than silently corrected.
type Options struct {
	// Epsilon is the scaling parameter ε ∈ (0,1).
	Epsilon *float64 `json:"epsilon,omitempty"`
	// Beta is BucketBound's bucket base β > 1.
	Beta *float64 `json:"beta,omitempty"`
	// Alpha balances objective against budget in the greedy score, ∈ [0,1].
	Alpha *float64 `json:"alpha,omitempty"`
	// Width is the greedy beam width, 1 (Greedy-1) to 4; a wider beam is a
	// bad_request.
	Width *int `json:"width,omitempty"`
	// BudgetPriority switches Greedy to the budget-first variant.
	BudgetPriority *bool `json:"budget_priority,omitempty"`
	// DisableStrategy2 turns off infrequent-keyword pruning, the paper's
	// optimization strategy 2. Strategy 1, the σ-shortcut jump, is not
	// implemented and has no option: korserve and korrouter reject a body
	// that names one, as they reject any unknown field.
	DisableStrategy2 *bool `json:"disable_strategy2,omitempty"`
	// MaxExpansions caps label creations. It may lower the engine's default
	// cap of 20,000,000 but not raise it: a larger value is a bad request.
	MaxExpansions *int `json:"max_expansions,omitempty"`
}

// Route is the wire form of one found route.
type Route struct {
	// Nodes is the node-ID sequence, source first, target last.
	Nodes []int64 `json:"nodes"`
	// Names carries the node display names, index-aligned with Nodes; it is
	// present only when every visited node has a name.
	Names []string `json:"names,omitempty"`
	// Objective is the route's objective score OS(R).
	Objective float64 `json:"objective"`
	// Budget is the route's budget score BS(R).
	Budget float64 `json:"budget"`
	// Feasible reports full keyword coverage within the budget limit.
	Feasible bool `json:"feasible"`
}

// Metrics is the wire form of the search work counters. PeakQueue is a
// high-water mark: a merged response reports the largest of its parts.
type Metrics struct {
	LabelsCreated   int `json:"labels_created"`
	LabelsEnqueued  int `json:"labels_enqueued"`
	LabelsDequeued  int `json:"labels_dequeued"`
	PrunedBudget    int `json:"pruned_budget"`
	PrunedBound     int `json:"pruned_bound"`
	PrunedStrategy2 int `json:"pruned_strategy2"`
	Dominated       int `json:"dominated"`
	DominatedSwept  int `json:"dominated_swept"`
	Feasible        int `json:"feasible"`
	PeakQueue       int `json:"peak_queue"`
	// PlanSweeps counts the Dijkstra runs this query started on a lazy
	// oracle: bounded candidate sweeps plus frontiers.
	PlanSweeps int `json:"plan_sweeps,omitempty"`
}

// Response is the wire form of a successful route search.
type Response struct {
	// Algorithm is the canonical name of the algorithm that ran.
	Algorithm string `json:"algorithm"`
	// Bound is the approximation factor guaranteed on the objective score:
	// 1 exact, 0 no guarantee.
	Bound float64 `json:"bound,omitempty"`
	// Routes holds the routes found, best objective first.
	Routes []Route `json:"routes"`
	// Metrics are the search work counters, when requested.
	Metrics *Metrics `json:"metrics,omitempty"`
	// ElapsedMS is the server-side search wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Cached reports that the response came from the server's result cache
	// without running a search.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that the response was shared from an identical
	// request's search — a concurrent in-flight twin or a duplicate in the
	// same batch — without running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Warning reports a non-fatal condition on an otherwise successful
	// response: the routes are present and usable, but the caller should
	// inspect the code. Currently emitted for budget_exceeded — a greedy
	// route that covers the keywords but overshoots Δ (its Feasible flag is
	// false).
	Warning *Error `json:"warning,omitempty"`
	// Snapshot identifies the graph snapshot the response was computed on.
	// Cluster routers use it as the replica consistency check: a response
	// whose fingerprint diverges from the shard's expected fingerprint marks
	// the replica for quarantine.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Requests are the queries to answer; each is self-describing, so one
	// batch can mix algorithms and options.
	Requests []Request `json:"requests,omitempty"`
	// Parallelism bounds the worker pool; 0 or out-of-range values fall
	// back to the server's cap.
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchResult is one request's outcome inside a BatchResponse: exactly one
// of Response and Error is set.
type BatchResult struct {
	Response *Response `json:"response,omitempty"`
	Error    *Error    `json:"error,omitempty"`
}

// BatchResponse is the body answering POST /v1/batch. Per-request failures
// come back inline, so one infeasible query does not fail the batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// Incomplete is set when the batch was cut short (deadline or client
	// disconnect): every result slot is still present, the cut-off ones
	// carrying errors.
	Incomplete bool `json:"incomplete,omitempty"`
}

// Node is the body of GET /v1/nodes/{id}.
type Node struct {
	ID       int64    `json:"id"`
	Name     string   `json:"name,omitempty"`
	Keywords []string `json:"keywords"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Degree   int      `json:"degree"`
}

// Keyword is one autocomplete suggestion in GET /v1/keywords.
type Keyword struct {
	Keyword string `json:"keyword"`
	Nodes   int    `json:"nodes"`
}

// KeywordsResponse is the body of GET /v1/keywords.
type KeywordsResponse struct {
	Keywords []Keyword `json:"keywords"`
}

// Stats is the body of GET /v1/stats: the graph summary plus, when the
// server runs with a result cache, the cache counters.
type Stats struct {
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	Terms        int     `json:"terms"`
	AvgOutDegree float64 `json:"avg_out_degree"`
	MaxOutDegree int     `json:"max_out_degree"`
	AvgTerms     float64 `json:"avg_terms"`
	MinObjective float64 `json:"min_objective"`
	MaxObjective float64 `json:"max_objective"`
	MinBudget    float64 `json:"min_budget"`
	MaxBudget    float64 `json:"max_budget"`
	Isolated     int     `json:"isolated"`
	// Cache is present only when the engine's result cache is enabled.
	Cache *CacheStats `json:"cache,omitempty"`
	// Snapshot identifies the graph snapshot currently serving queries; it
	// changes on every /v1/admin/patch or /v1/admin/reload.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Oracle reports which τ/σ distance oracle is serving queries.
	Oracle *OracleInfo `json:"oracle,omitempty"`
	// Role is the serving role the process was started with: "standalone"
	// (the default, omitted), or "replica" for a shard backend behind a
	// korrouter.
	Role string `json:"role,omitempty"`
	// Shard names the shard a replica serves, as assigned by kordata -shard.
	Shard string `json:"shard,omitempty"`
	// Cluster is present only on korrouter: the shard/replica topology and
	// its health, quarantine and fingerprint state.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the cluster block inside a korrouter's /v1/stats.
type ClusterStats struct {
	// Shards is the per-shard replica state, shard ID ascending.
	Shards []ShardStats `json:"shards"`
	// Replicas counts all configured replicas across shards.
	Replicas int `json:"replicas"`
	// Healthy counts replicas that are reachable and in the scatter set.
	Healthy int `json:"healthy"`
	// Quarantined counts replicas shed from the scatter set because their
	// snapshot fingerprint diverged from the shard's expected fingerprint.
	Quarantined int `json:"quarantined"`
}

// ShardStats is one shard's replica state inside ClusterStats.
type ShardStats struct {
	// Shard is the shard ID from the shard map.
	Shard int `json:"shard"`
	// ExpectedFingerprint is the snapshot fingerprint the router currently
	// expects every replica of this shard to serve.
	ExpectedFingerprint string `json:"expected_fingerprint,omitempty"`
	// Replicas is the per-replica state, configuration order.
	Replicas []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica's state inside ShardStats.
type ReplicaStats struct {
	// URL is the replica's base URL.
	URL string `json:"url"`
	// Healthy reports the last probe or request reached the replica.
	Healthy bool `json:"healthy"`
	// Quarantined reports the replica is shed from the scatter set because
	// its fingerprint diverged from the shard's expected fingerprint.
	Quarantined bool `json:"quarantined,omitempty"`
	// Fingerprint is the replica's last observed snapshot fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Generation is the replica's last observed snapshot generation.
	Generation uint64 `json:"generation,omitempty"`
	// LastError is the most recent transport or probe failure, cleared on
	// the next success.
	LastError string `json:"last_error,omitempty"`
}

// ClusterAdminResponse answers korrouter's POST /v1/admin/patch: the
// per-replica outcome of replicating the delta across the cluster.
type ClusterAdminResponse struct {
	// Shards is the per-shard replication outcome, shard ID ascending.
	Shards []ShardAdmin `json:"shards"`
	// Quarantined counts replicas left quarantined after the patch.
	Quarantined int `json:"quarantined"`
}

// ShardAdmin is one shard's replication outcome inside ClusterAdminResponse.
type ShardAdmin struct {
	// Shard is the shard ID from the shard map.
	Shard int `json:"shard"`
	// ExpectedFingerprint is the post-patch consensus fingerprint.
	ExpectedFingerprint string `json:"expected_fingerprint,omitempty"`
	// Replicas is the per-replica outcome, configuration order.
	Replicas []ReplicaAdmin `json:"replicas"`
}

// ReplicaAdmin is one replica's patch outcome inside ShardAdmin: exactly one
// of Snapshot and Error is set.
type ReplicaAdmin struct {
	// URL is the replica's base URL.
	URL string `json:"url"`
	// Snapshot is the replica's post-patch snapshot on success.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Error is the replica's failure, transport or wire.
	Error *Error `json:"error,omitempty"`
	// Quarantined reports the replica diverged from the shard consensus and
	// is shed from the scatter set until it converges.
	Quarantined bool `json:"quarantined,omitempty"`
}

// OracleInfo is the wire form of the engine's oracle status inside
// /v1/stats.
type OracleInfo struct {
	// Kind is the active oracle implementation: "lazy", "matrix" or
	// "partitioned-disk". It is "lazy" while Pending is set.
	Kind string `json:"kind"`
	// Pending names the table oracle ("matrix") being built in the
	// background for the serving graph's edges while the exact lazy oracle
	// answers; absent when no build is pending. A server configured for
	// the matrix boots, and takes an edge patch, this way.
	Pending string `json:"pending,omitempty"`
	// Since is when the active oracle began answering, RFC 3339 with
	// nanoseconds, UTC: when its tables were published or its edges
	// installed. A keyword-only patch keeps it.
	Since string `json:"since,omitempty"`
	// Degraded is true when the server was started with a persistent
	// distance index (-dist-index) but the live graph no longer has the
	// edges it was built from — after an admin patch or reload that changed
	// an edge — so queries fall back to a lazy oracle instead of serving
	// stale distances. The index keeps serving a graph with the same edges,
	// so a keyword-only patch neither sets nor clears it.
	Degraded bool `json:"degraded,omitempty"`
	// IndexFingerprint is the fingerprint of the graph the persistent index
	// was built from, 16 lowercase hex digits; absent without one. After a
	// keyword-only patch it differs from the snapshot fingerprint while the
	// index still serves: the index covers every graph with the same edges.
	IndexFingerprint string `json:"index_fingerprint,omitempty"`
	// IndexBytes is the persistent index file size.
	IndexBytes int64 `json:"index_bytes,omitempty"`
	// Mapped reports whether the index is served through an mmap rather
	// than a decoded in-heap copy.
	Mapped bool `json:"mapped,omitempty"`
	// TableBytes is the bytes of matrix tables the server process holds
	// outside the Go heap: 40 per node pair of the serving matrix, plus a
	// background build's and a retired matrix's until it is released.
	// Absent (0) on the lazy and disk-index oracles.
	TableBytes int64 `json:"table_bytes,omitempty"`
	// LoadMillis is how long the index took to open at server start.
	LoadMillis float64 `json:"load_millis,omitempty"`
	// DegradedSince is when the oracle entered the degraded fallback, RFC
	// 3339 with nanoseconds, UTC; present only while Degraded is true. It
	// survives further patches, so it dates the start of the outage, not the
	// latest swap.
	DegradedSince string `json:"degraded_since,omitempty"`
}

// Snapshot is the wire form of one graph snapshot's identity, served inside
// /v1/stats and by the /v1/admin endpoints.
type Snapshot struct {
	// Fingerprint is the graph content digest as 16 lowercase hex digits.
	// Two snapshots with the same fingerprint answer queries identically.
	Fingerprint string `json:"fingerprint"`
	// Generation counts installed snapshots, starting at 1 for the graph
	// the server booted with.
	Generation uint64 `json:"generation"`
	// LoadedAt is when the snapshot was installed, RFC 3339 with
	// nanoseconds, UTC.
	LoadedAt string `json:"loaded_at"`
}

// Delta is the body of POST /v1/admin/patch: one batch of live graph
// updates, applied atomically. Phases apply in order: keyword patches, edge
// updates, edge removals, edge additions (so remove+add of the same pair
// replaces the edge). Keyword patches are idempotent set operations; edge
// updates and removals must address existing edges, and additions must not
// duplicate surviving ones.
type Delta struct {
	// AddKeywords unions keywords into node keyword sets; new keywords
	// extend the vocabulary.
	AddKeywords []DeltaKeywords `json:"add_keywords,omitempty"`
	// RemoveKeywords subtracts keywords from node keyword sets.
	RemoveKeywords []DeltaKeywords `json:"remove_keywords,omitempty"`
	// UpdateEdges sets the objective/budget attributes of existing edges.
	UpdateEdges []DeltaEdge `json:"update_edges,omitempty"`
	// AddEdges inserts new edges (positive finite attributes, no
	// self-loops).
	AddEdges []DeltaEdge `json:"add_edges,omitempty"`
	// RemoveEdges deletes edges; objective/budget are ignored.
	RemoveEdges []DeltaEdge `json:"remove_edges,omitempty"`
}

// Empty reports whether the delta contains no changes.
func (d Delta) Empty() bool {
	return len(d.AddKeywords) == 0 && len(d.RemoveKeywords) == 0 &&
		len(d.UpdateEdges) == 0 && len(d.AddEdges) == 0 && len(d.RemoveEdges) == 0
}

// DeltaKeywords names a node and the keywords to add or remove.
type DeltaKeywords struct {
	Node     int64    `json:"node"`
	Keywords []string `json:"keywords"`
}

// DeltaEdge addresses the directed edge From→To; Objective and Budget carry
// the new attributes for updates and additions.
type DeltaEdge struct {
	From      int64   `json:"from"`
	To        int64   `json:"to"`
	Objective float64 `json:"objective,omitempty"`
	Budget    float64 `json:"budget,omitempty"`
}

// AdminResponse answers the /v1/admin endpoints: the snapshot that is now
// serving queries and its graph size.
type AdminResponse struct {
	Snapshot Snapshot `json:"snapshot"`
	Nodes    int      `json:"nodes"`
	Edges    int      `json:"edges"`
}

// CacheStats is the result-cache block inside Stats. Coalesced counts
// requests answered by sharing an identical in-flight request's search
// (single-flight followers and batch duplicates); those are not Misses.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced,omitempty"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// ErrorCode is a machine-readable error class. Clients switch on the code,
// never on the message text.
type ErrorCode string

// The error codes the /v1 surface emits.
const (
	// CodeBadRequest — malformed parameters, body, or out-of-domain
	// options. HTTP 400.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownKeyword — a query keyword absent from the graph's
	// vocabulary. HTTP 400.
	CodeUnknownKeyword ErrorCode = "unknown_keyword"
	// CodeUnknownAlgorithm — the algorithm name is not registered. HTTP 400.
	CodeUnknownAlgorithm ErrorCode = "unknown_algorithm"
	// CodeNotFound — the addressed resource (node, path) does not exist.
	// HTTP 404.
	CodeNotFound ErrorCode = "not_found"
	// CodeNoRoute — no feasible route exists for the query. HTTP 404.
	CodeNoRoute ErrorCode = "no_route"
	// CodeDeadline — the search exceeded its deadline. HTTP 504.
	CodeDeadline ErrorCode = "deadline_exceeded"
	// CodeCanceled — the client went away mid-search. HTTP 499 (never
	// actually received).
	CodeCanceled ErrorCode = "canceled"
	// CodeSearchLimit — the expansion cap fired before the search
	// concluded. HTTP 422.
	CodeSearchLimit ErrorCode = "search_limit"
	// CodeOverloaded — the server's admission controller rejected the
	// request because the in-flight limit and its wait queue are full. The
	// response carries a Retry-After header; back off and retry. HTTP 429.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeUnavailable — no backend could answer: every shard replica the
	// query needed was unreachable, quarantined, or failed. The response
	// carries a Retry-After header; back off and retry. HTTP 503.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal — an unexpected server-side failure. HTTP 500.
	CodeInternal ErrorCode = "internal"
	// CodeBudgetExceeded — a greedy route covers the keywords but
	// overshoots Δ. Appears only as Response.Warning on a 200, never as an
	// error envelope: the routes are still returned.
	CodeBudgetExceeded ErrorCode = "budget_exceeded"
)

// HTTPStatus maps the code onto its HTTP status.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeBadRequest, CodeUnknownKeyword, CodeUnknownAlgorithm:
		return 400
	case CodeNotFound, CodeNoRoute:
		return 404
	case CodeSearchLimit:
		return 422
	case CodeOverloaded:
		return 429
	case CodeCanceled:
		return 499
	case CodeInternal:
		return 500
	case CodeUnavailable:
		return 503
	case CodeDeadline:
		return 504
	default:
		return 500
	}
}

// Error is the wire error: a stable code plus a human-readable message.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements the error interface so wire errors can travel through
// error-returning client code.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// ErrorEnvelope is the body of every non-2xx response:
//
//	{"error": {"code": "no_route", "message": "no feasible route exists"}}
type ErrorEnvelope struct {
	Error Error `json:"error"`
}
