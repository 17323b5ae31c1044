package cluster

import (
	"testing"

	"kor/korapi"
)

func route(nodes []int64, objective, budget float64, feasible bool) korapi.Route {
	return korapi.Route{Nodes: nodes, Objective: objective, Budget: budget, Feasible: feasible}
}

func resp(routes ...korapi.Route) *korapi.Response {
	return &korapi.Response{Algorithm: "bucketbound", Routes: routes}
}

func TestMergeDedupesDuplicateSignatures(t *testing.T) {
	// Shards overlap on halo nodes: the same route comes back twice.
	shared := route([]int64{0, 3, 7}, 2.0, 5.0, true)
	g := []Gathered{
		{Shard: 0, Resp: resp(shared, route([]int64{0, 4, 7}, 2.5, 4.0, true))},
		{Shard: 1, Resp: resp(shared)},
	}
	out, apiErr, _ := Merge(5, g)
	if apiErr != nil {
		t.Fatalf("Merge error: %v", apiErr)
	}
	if len(out.Routes) != 2 {
		t.Fatalf("got %d routes, want 2 (duplicate signature not deduped): %+v", len(out.Routes), out.Routes)
	}
	if RouteKey(out.Routes[0]) == RouteKey(out.Routes[1]) {
		t.Fatalf("both merged routes share a signature")
	}
}

func TestMergeOrdersByObjective(t *testing.T) {
	g := []Gathered{
		{Shard: 0, Resp: resp(
			route([]int64{0, 9, 1}, 7.0, 3.0, true),
			route([]int64{0, 8, 1}, 3.0, 9.0, false),
		)},
		{Shard: 1, Resp: resp(
			route([]int64{0, 5, 1}, 2.0, 4.0, true),
			route([]int64{0, 6, 1}, 5.0, 2.0, true),
		)},
	}
	out, apiErr, _ := Merge(10, g)
	if apiErr != nil {
		t.Fatalf("Merge error: %v", apiErr)
	}
	want := []float64{2.0, 5.0, 7.0, 3.0} // feasible ascending, then infeasible
	if len(out.Routes) != len(want) {
		t.Fatalf("got %d routes, want %d", len(out.Routes), len(want))
	}
	for i, obj := range want {
		if out.Routes[i].Objective != obj {
			t.Errorf("route %d objective = %v, want %v (order %+v)", i, out.Routes[i].Objective, obj, out.Routes)
		}
	}
	for i, r := range out.Routes[:3] {
		if !r.Feasible {
			t.Errorf("route %d infeasible before a feasible one", i)
		}
	}
}

func TestMergeKWhenShardsReturnFewer(t *testing.T) {
	// k=3 with one shard contributing 2 routes and another 2 more, one of
	// them a duplicate: exactly 3 distinct routes survive.
	dup := route([]int64{1, 2, 3}, 4.0, 1.0, true)
	g := []Gathered{
		{Shard: 0, Resp: resp(dup, route([]int64{1, 4, 3}, 5.0, 1.0, true))},
		{Shard: 1, Resp: resp(dup, route([]int64{1, 5, 3}, 6.0, 1.0, true))},
	}
	out, apiErr, _ := Merge(3, g)
	if apiErr != nil {
		t.Fatalf("Merge error: %v", apiErr)
	}
	if len(out.Routes) != 3 {
		t.Fatalf("got %d routes, want exactly k=3", len(out.Routes))
	}
	// And when the union is smaller than k, all of it comes back.
	out, _, _ = Merge(10, g)
	if len(out.Routes) != 3 {
		t.Fatalf("k=10 over 3 distinct routes: got %d", len(out.Routes))
	}
}

func TestMergeTrimsToK(t *testing.T) {
	g := []Gathered{
		{Shard: 0, Resp: resp(
			route([]int64{0, 1}, 1.0, 1.0, true),
			route([]int64{0, 2}, 2.0, 1.0, true),
			route([]int64{0, 3}, 3.0, 1.0, true),
		)},
	}
	out, _, _ := Merge(0, g) // k ≤ 0 means one best route
	if len(out.Routes) != 1 || out.Routes[0].Objective != 1.0 {
		t.Fatalf("k=0: got %+v, want the single best route", out.Routes)
	}
}

func TestMergeRequestShapedErrorWins(t *testing.T) {
	bad := &korapi.Error{Code: korapi.CodeUnknownKeyword, Message: "no such keyword"}
	g := []Gathered{
		{Shard: 0, Resp: resp(route([]int64{0, 1}, 1.0, 1.0, true))},
		{Shard: 1, Err: bad},
	}
	_, apiErr, _ := Merge(1, g)
	if apiErr == nil || apiErr.Code != korapi.CodeUnknownKeyword {
		t.Fatalf("got %v, want unknown_keyword to propagate over candidates", apiErr)
	}
}

func TestMergeTransientOutranksNoRoute(t *testing.T) {
	g := []Gathered{
		{Shard: 0, Err: &korapi.Error{Code: korapi.CodeNoRoute, Message: "no feasible route"}},
		{Shard: 1, Unavailable: true},
	}
	_, apiErr, retry := Merge(1, g)
	if apiErr == nil || apiErr.Code != korapi.CodeUnavailable {
		t.Fatalf("got %v, want unavailable (the dead shard might have held the route)", apiErr)
	}
	if retry < 1 {
		t.Fatalf("retry hint %d, want ≥ 1", retry)
	}
}

func TestMergeOverloadedCarriesMaxRetryAfter(t *testing.T) {
	g := []Gathered{
		{Shard: 0, Err: &korapi.Error{Code: korapi.CodeOverloaded}, RetryAfter: 2},
		{Shard: 1, Err: &korapi.Error{Code: korapi.CodeOverloaded}, RetryAfter: 7},
	}
	_, apiErr, retry := Merge(1, g)
	if apiErr == nil || apiErr.Code != korapi.CodeOverloaded {
		t.Fatalf("got %v, want overloaded", apiErr)
	}
	if retry != 7 {
		t.Fatalf("retry = %d, want the max shard hint 7", retry)
	}
}

func TestMergeAllNoRoute(t *testing.T) {
	g := []Gathered{
		{Shard: 0, Err: &korapi.Error{Code: korapi.CodeNoRoute, Message: "no feasible route"}},
		{Shard: 1, Err: &korapi.Error{Code: korapi.CodeNoRoute, Message: "no feasible route"}},
	}
	_, apiErr, _ := Merge(1, g)
	if apiErr == nil || apiErr.Code != korapi.CodeNoRoute {
		t.Fatalf("got %v, want no_route when every shard agrees", apiErr)
	}
}

func TestMergeCandidatesBeatOverload(t *testing.T) {
	g := []Gathered{
		{Shard: 0, Resp: resp(route([]int64{0, 1}, 1.0, 1.0, true))},
		{Shard: 1, Err: &korapi.Error{Code: korapi.CodeOverloaded}, RetryAfter: 3},
	}
	out, apiErr, _ := Merge(1, g)
	if apiErr != nil {
		t.Fatalf("got error %v, want the surviving candidate", apiErr)
	}
	if len(out.Routes) != 1 {
		t.Fatalf("got %d routes, want 1", len(out.Routes))
	}
}

func TestMergeWarningSuperseded(t *testing.T) {
	warn := &korapi.Error{Code: korapi.CodeBudgetExceeded, Message: "over budget"}
	infeasible := resp(route([]int64{0, 2, 1}, 1.0, 99.0, false))
	infeasible.Warning = warn

	// A feasible route from another shard supersedes the warning.
	out, _, _ := Merge(1, []Gathered{
		{Shard: 0, Resp: infeasible},
		{Shard: 1, Resp: resp(route([]int64{0, 3, 1}, 2.0, 1.0, true))},
	})
	if out.Warning != nil {
		t.Fatalf("warning survived a feasible merged best: %+v", out.Warning)
	}

	// With only infeasible candidates the warning stays.
	out, _, _ = Merge(1, []Gathered{{Shard: 0, Resp: infeasible}})
	if out.Warning == nil || out.Warning.Code != korapi.CodeBudgetExceeded {
		t.Fatalf("warning dropped from an infeasible merge: %+v", out.Warning)
	}
}

func TestMergeSumsMetricsAndKeepsMaxElapsed(t *testing.T) {
	a := resp(route([]int64{0, 1}, 1.0, 1.0, true))
	a.Metrics = &korapi.Metrics{LabelsCreated: 10, PeakQueue: 3}
	a.ElapsedMS = 4
	b := resp(route([]int64{0, 2, 1}, 2.0, 1.0, true))
	b.Metrics = &korapi.Metrics{LabelsCreated: 7, PeakQueue: 5}
	b.ElapsedMS = 9
	out, _, _ := Merge(2, []Gathered{{Shard: 0, Resp: a}, {Shard: 1, Resp: b}})
	if out.Metrics == nil || out.Metrics.LabelsCreated != 17 {
		t.Fatalf("metrics not summed: %+v", out.Metrics)
	}
	// The peak queue is a high-water mark, not a count of work.
	if out.Metrics.PeakQueue != 5 {
		t.Fatalf("peak queue = %d, want the larger shard's 5", out.Metrics.PeakQueue)
	}
	if out.ElapsedMS != 9 {
		t.Fatalf("elapsed = %v, want the slowest leg 9 (legs run concurrently)", out.ElapsedMS)
	}
}
