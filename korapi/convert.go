package korapi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"kor"
)

// KorRequest lowers the wire request onto the engine's Request. Node IDs
// outside kor.NodeID's range fail here — truncating them would silently
// address the wrong node. The remaining validation happens in Engine.Run,
// so a malformed wire request fails there with ErrBadQuery.
func (r Request) KorRequest() (kor.Request, error) {
	for _, ep := range []struct {
		name string
		id   int64
	}{{"from", r.From}, {"to", r.To}} {
		if ep.id < math.MinInt32 || ep.id > math.MaxInt32 {
			return kor.Request{}, fmt.Errorf("%w: %s node id %d out of range", kor.ErrBadQuery, ep.name, ep.id)
		}
	}
	req := kor.Request{
		From:      kor.NodeID(r.From),
		To:        kor.NodeID(r.To),
		Keywords:  r.Keywords,
		Budget:    r.BudgetLimit(),
		Algorithm: kor.Algorithm(r.Algorithm),
		K:         r.K,
	}
	if r.Options != nil {
		opts := r.Options.Apply(kor.DefaultOptions())
		req.Options = &opts
	}
	return req, nil
}

// Apply overlays the present wire options onto base and returns the result.
func (o *Options) Apply(base kor.Options) kor.Options {
	if o == nil {
		return base
	}
	if o.Epsilon != nil {
		base.Epsilon = *o.Epsilon
	}
	if o.Beta != nil {
		base.Beta = *o.Beta
	}
	if o.Alpha != nil {
		base.Alpha = *o.Alpha
	}
	if o.Width != nil {
		base.Width = *o.Width
	}
	if o.BudgetPriority != nil {
		base.BudgetPriority = *o.BudgetPriority
	}
	if o.DisableStrategy2 != nil {
		base.DisableStrategy2 = *o.DisableStrategy2
	}
	if o.MaxExpansions != nil {
		base.MaxExpansions = *o.MaxExpansions
	}
	return base
}

// RouteFromKor lifts an engine route onto the wire, resolving display names
// through g. Names are attached only when every visited node has one, so
// the two slices always index-align.
func RouteFromKor(g *kor.Graph, r kor.Route) Route {
	out := Route{
		Nodes:     make([]int64, len(r.Nodes)),
		Objective: r.Objective,
		Budget:    r.Budget,
		Feasible:  r.Feasible,
	}
	names := make([]string, len(r.Nodes))
	named := true
	for i, v := range r.Nodes {
		out.Nodes[i] = int64(v)
		names[i] = g.Name(v)
		named = named && names[i] != ""
	}
	if named && len(names) > 0 {
		out.Names = names
	}
	return out
}

// ResponseFromKor lifts an engine response onto the wire. Metrics are
// attached only when withMetrics is set — they are sizeable and most
// clients only want routes.
func ResponseFromKor(g *kor.Graph, resp kor.Response, withMetrics bool) Response {
	out := Response{
		Algorithm: string(resp.Algorithm),
		Bound:     resp.Bound,
		Routes:    make([]Route, len(resp.Routes)),
		ElapsedMS: float64(resp.Elapsed.Microseconds()) / 1e3,
		Cached:    resp.Cached,
		Coalesced: resp.Coalesced,
	}
	for i, r := range resp.Routes {
		out.Routes[i] = RouteFromKor(g, r)
	}
	if withMetrics {
		m := MetricsFromKor(resp.Metrics)
		out.Metrics = &m
	}
	if resp.Snapshot.Generation != 0 {
		snap := SnapshotFromKor(resp.Snapshot)
		out.Snapshot = &snap
	}
	return out
}

// MetricsFromKor copies the work counters onto their wire spellings.
func MetricsFromKor(m kor.Metrics) Metrics {
	return Metrics{
		LabelsCreated:   m.LabelsCreated,
		LabelsEnqueued:  m.LabelsEnqueued,
		LabelsDequeued:  m.LabelsDequeued,
		PrunedBudget:    m.PrunedBudget,
		PrunedBound:     m.PrunedBound,
		PrunedStrategy2: m.PrunedStrategy2,
		Dominated:       m.Dominated,
		DominatedSwept:  m.DominatedSwept,
		Feasible:        m.Feasible,
		PeakQueue:       m.PeakQueue,
		PlanSweeps:      m.PlanSweeps,
	}
}

// CacheStatsFromKor copies the engine's cache counters onto the wire.
func CacheStatsFromKor(st kor.CacheStats) CacheStats {
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Coalesced: st.Coalesced,
		Size:      st.Size,
		Capacity:  st.Capacity,
	}
}

// KorDelta lowers the wire delta onto the engine's Delta, range-checking
// node IDs the same way KorRequest does.
func (d Delta) KorDelta() (kor.Delta, error) {
	node := func(what string, id int64) (kor.NodeID, error) {
		if id < math.MinInt32 || id > math.MaxInt32 {
			return 0, fmt.Errorf("%w: %s node id %d out of range", kor.ErrBadDelta, what, id)
		}
		return kor.NodeID(id), nil
	}
	var out kor.Delta
	for _, kp := range d.AddKeywords {
		v, err := node("add_keywords", kp.Node)
		if err != nil {
			return kor.Delta{}, err
		}
		out.AddKeywords = append(out.AddKeywords, kor.KeywordPatch{Node: v, Keywords: kp.Keywords})
	}
	for _, kp := range d.RemoveKeywords {
		v, err := node("remove_keywords", kp.Node)
		if err != nil {
			return kor.Delta{}, err
		}
		out.RemoveKeywords = append(out.RemoveKeywords, kor.KeywordPatch{Node: v, Keywords: kp.Keywords})
	}
	edge := func(what string, de DeltaEdge) (kor.EdgePatch, error) {
		from, err := node(what, de.From)
		if err != nil {
			return kor.EdgePatch{}, err
		}
		to, err := node(what, de.To)
		if err != nil {
			return kor.EdgePatch{}, err
		}
		return kor.EdgePatch{From: from, To: to, Objective: de.Objective, Budget: de.Budget}, nil
	}
	for _, de := range d.UpdateEdges {
		ep, err := edge("update_edges", de)
		if err != nil {
			return kor.Delta{}, err
		}
		out.UpdateEdges = append(out.UpdateEdges, ep)
	}
	for _, de := range d.AddEdges {
		ep, err := edge("add_edges", de)
		if err != nil {
			return kor.Delta{}, err
		}
		out.AddEdges = append(out.AddEdges, ep)
	}
	for _, de := range d.RemoveEdges {
		ep, err := edge("remove_edges", de)
		if err != nil {
			return kor.Delta{}, err
		}
		out.RemoveEdges = append(out.RemoveEdges, kor.EdgeRef{From: ep.From, To: ep.To})
	}
	return out, nil
}

// SnapshotFromKor lifts a snapshot identity onto the wire: hex fingerprint,
// RFC 3339 UTC timestamp.
func SnapshotFromKor(info kor.SnapshotInfo) Snapshot {
	return Snapshot{
		Fingerprint: fmt.Sprintf("%016x", info.Fingerprint),
		Generation:  info.Generation,
		LoadedAt:    info.LoadedAt.UTC().Format(time.RFC3339Nano),
	}
}

// WarningFrom classifies a non-fatal engine error into the warning attached
// to an otherwise successful response. It returns non-nil exactly when
// ErrorFrom returns nil for a non-nil error: today that is the greedy
// budget overshoot, whose routes are returned with Feasible=false.
func WarningFrom(err error) *Error {
	if err != nil && errors.Is(err, kor.ErrBudgetExceeded) {
		return &Error{Code: CodeBudgetExceeded, Message: err.Error()}
	}
	return nil
}

// ErrorFrom classifies an engine error into its wire Error. It returns nil
// for outcomes that still carry a usable response: a nil error, and the
// greedy budget-overshoot (the violating routes are returned for
// inspection with a Warning attached, matching the engine's behaviour).
func ErrorFrom(err error) *Error {
	switch {
	case err == nil, errors.Is(err, kor.ErrBudgetExceeded):
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadline, Message: "search deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &Error{Code: CodeCanceled, Message: "search canceled"}
	case errors.Is(err, kor.ErrNoRoute):
		return &Error{Code: CodeNoRoute, Message: err.Error()}
	case errors.Is(err, kor.ErrUnknownKeyword):
		return &Error{Code: CodeUnknownKeyword, Message: err.Error()}
	case errors.Is(err, kor.ErrSearchLimit):
		return &Error{Code: CodeSearchLimit, Message: err.Error()}
	case errors.Is(err, kor.ErrUnknownAlgorithm):
		return &Error{Code: CodeUnknownAlgorithm, Message: err.Error()}
	case errors.Is(err, kor.ErrBadQuery), errors.Is(err, kor.ErrBadDelta), errors.Is(err, kor.ErrStaticIndex):
		return &Error{Code: CodeBadRequest, Message: err.Error()}
	default:
		return &Error{Code: CodeInternal, Message: err.Error()}
	}
}
