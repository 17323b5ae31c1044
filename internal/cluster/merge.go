package cluster

import (
	"sort"

	"kor/korapi"
)

// Scatter-gather merge. Each shard replica answers a query against its own
// closure graph; the router combines the per-shard outcomes into one wire
// response. Candidate routes are deduplicated by their node-sequence
// signature (shards overlap on halo nodes, so the same route can come back
// from several shards), ordered the way the core planner orders results —
// feasible first, then best objective, budget as the tie-break — and
// trimmed to k. Error outcomes merge by precedence: request-shaped errors
// (the request itself is wrong, identically on every shard) propagate
// immediately; otherwise any candidate wins; otherwise transient failures
// (overloaded, unavailable, deadline) outrank no_route, because a shard
// that shed or vanished might have held the route.

// Gathered is one shard's outcome of a scattered query.
type Gathered struct {
	// Shard is the shard the outcome came from.
	Shard int
	// Resp is the decoded 200 response; nil on any failure.
	Resp *korapi.Response
	// Err is the decoded wire error; nil when Resp is set or the failure
	// was transport-level.
	Err *korapi.Error
	// Unavailable marks transport failures, quarantine discards and shards
	// with no eligible replica — outcomes with no wire classification.
	Unavailable bool
	// RetryAfter is the Retry-After hint in seconds carried by a 429/503
	// reply, 0 when absent.
	RetryAfter int
}

// RouteKey returns the dedup signature of a wire route: FNV-1a over the
// node sequence, the same construction the core planner uses for its
// route-signature dedup.
func RouteKey(r korapi.Route) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range r.Nodes {
		h = (h ^ uint64(v)) * prime
	}
	return h
}

// requestShaped reports error codes that depend only on the request, never
// on which shard answered: every shard parses identically and every shard
// graph carries the full vocabulary, so the first such error is THE answer.
func requestShaped(code korapi.ErrorCode) bool {
	switch code {
	case korapi.CodeBadRequest, korapi.CodeUnknownAlgorithm, korapi.CodeUnknownKeyword, korapi.CodeNotFound:
		return true
	}
	return false
}

// Merge combines the gathered per-shard outcomes of one query. k is the
// request's K (≤ 0 means one best route). Exactly one of the returned
// response and error is non-nil; retryAfter carries the Retry-After hint
// (seconds) for overloaded/unavailable errors, 0 otherwise.
func Merge(k int, gathered []Gathered) (*korapi.Response, *korapi.Error, int) {
	if k <= 0 {
		k = 1
	}
	var (
		candidates  []*korapi.Response
		overloaded  bool
		unavailable bool
		deadline    bool
		canceled    bool
		searchLim   *korapi.Error
		internal    *korapi.Error
		noRoute     *korapi.Error
		retryAfter  int
	)
	for _, ga := range gathered {
		switch {
		case ga.Resp != nil && len(ga.Resp.Routes) > 0:
			candidates = append(candidates, ga.Resp)
		case ga.Resp != nil:
			// A 200 with no routes — nothing to contribute.
		case ga.Err != nil:
			if requestShaped(ga.Err.Code) {
				return nil, ga.Err, 0
			}
			switch ga.Err.Code {
			case korapi.CodeOverloaded:
				overloaded = true
				if ga.RetryAfter > retryAfter {
					retryAfter = ga.RetryAfter
				}
			case korapi.CodeUnavailable:
				unavailable = true
				if ga.RetryAfter > retryAfter {
					retryAfter = ga.RetryAfter
				}
			case korapi.CodeDeadline:
				deadline = true
			case korapi.CodeCanceled:
				canceled = true
			case korapi.CodeSearchLimit:
				if searchLim == nil {
					searchLim = ga.Err
				}
			case korapi.CodeNoRoute:
				if noRoute == nil {
					noRoute = ga.Err
				}
			default:
				if internal == nil {
					internal = ga.Err
				}
			}
		default:
			unavailable = true
			if ga.RetryAfter > retryAfter {
				retryAfter = ga.RetryAfter
			}
		}
	}

	if len(candidates) > 0 {
		return mergeCandidates(k, candidates), nil, 0
	}

	if retryAfter == 0 {
		retryAfter = 1
	}
	switch {
	case overloaded:
		return nil, &korapi.Error{
			Code:    korapi.CodeOverloaded,
			Message: "shard backends are at their in-flight limit; retry after backoff",
		}, retryAfter
	case unavailable, internal != nil:
		// A shard that failed outright might have held the route: answer
		// retryable unavailability, never a silent no_route — and never a
		// bare 502.
		return nil, &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: "no shard backend could answer; retry after backoff",
		}, retryAfter
	case deadline:
		return nil, &korapi.Error{Code: korapi.CodeDeadline, Message: "search deadline exceeded"}, 0
	case canceled:
		return nil, &korapi.Error{Code: korapi.CodeCanceled, Message: "search canceled"}, 0
	case searchLim != nil:
		return nil, searchLim, 0
	case noRoute != nil:
		return nil, noRoute, 0
	default:
		return nil, &korapi.Error{
			Code:    korapi.CodeUnavailable,
			Message: "no shard backend could answer; retry after backoff",
		}, retryAfter
	}
}

// mergeCandidates dedups, orders and trims the candidate routes.
func mergeCandidates(k int, candidates []*korapi.Response) *korapi.Response {
	out := &korapi.Response{
		Algorithm: candidates[0].Algorithm,
		Bound:     candidates[0].Bound,
	}
	seen := make(map[uint64]struct{})
	for _, c := range candidates {
		if c.ElapsedMS > out.ElapsedMS {
			// Scatter legs run concurrently: the slowest shard is the
			// honest search time.
			out.ElapsedMS = c.ElapsedMS
		}
		if c.Metrics != nil {
			if out.Metrics == nil {
				out.Metrics = &korapi.Metrics{}
			}
			addMetrics(out.Metrics, c.Metrics)
		}
		for _, r := range c.Routes {
			key := RouteKey(r)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out.Routes = append(out.Routes, r)
		}
	}
	sort.SliceStable(out.Routes, func(i, j int) bool {
		a, b := out.Routes[i], out.Routes[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if a.Objective != b.Objective {
			return a.Objective < b.Objective
		}
		return a.Budget < b.Budget
	})
	if len(out.Routes) > k {
		out.Routes = out.Routes[:k]
	}
	// A warning (greedy budget overshoot) survives only if the merged best
	// is still infeasible — another shard's feasible route supersedes it.
	if !out.Routes[0].Feasible {
		for _, c := range candidates {
			if c.Warning != nil {
				out.Warning = c.Warning
				break
			}
		}
	}
	return out
}

// addMetrics accumulates src into dst field by field: counters add, and the
// peak queue is the largest any shard held.
func addMetrics(dst, src *korapi.Metrics) {
	dst.LabelsCreated += src.LabelsCreated
	dst.LabelsEnqueued += src.LabelsEnqueued
	dst.LabelsDequeued += src.LabelsDequeued
	dst.PrunedBudget += src.PrunedBudget
	dst.PrunedBound += src.PrunedBound
	dst.PrunedStrategy2 += src.PrunedStrategy2
	dst.Dominated += src.Dominated
	dst.DominatedSwept += src.DominatedSwept
	dst.Feasible += src.Feasible
	dst.PeakQueue = max(dst.PeakQueue, src.PeakQueue)
	dst.PlanSweeps += src.PlanSweeps
}
