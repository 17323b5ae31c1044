package korapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kor"
)

func f64(v float64) *float64 { return &v }
func iptr(v int) *int        { return &v }
func bptr(v bool) *bool      { return &v }

// TestRequestMarshalStability pins the exact wire bytes of a fully
// populated request: a change here is a breaking /v1 change.
func TestRequestMarshalStability(t *testing.T) {
	req := Request{
		From: 12, To: 80,
		Keywords:  []string{"cafe", "jazz"},
		Budget:    6,
		Algorithm: "topk",
		K:         3,
		Metrics:   true,
		Options: &Options{
			Epsilon: f64(0.25), Beta: f64(1.5), Alpha: f64(0.5),
			Width: iptr(2), BudgetPriority: bptr(true),
			DisableStrategy2: bptr(false),
			MaxExpansions:    iptr(1000),
		},
	}
	got, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"from":12,"to":80,"keywords":["cafe","jazz"],"budget":6,"algorithm":"topk","k":3,"metrics":true,` +
		`"options":{"epsilon":0.25,"beta":1.5,"alpha":0.5,"width":2,"budget_priority":true,` +
		`"disable_strategy2":false,"max_expansions":1000}}`
	if string(got) != want {
		t.Errorf("request wire form drifted:\n got %s\nwant %s", got, want)
	}

	var back Request
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("request round trip changed the value:\n got %+v\nwant %+v", back, req)
	}
}

// TestResponseMarshalStability pins the response wire form, including the
// metrics block and omitempty behaviour.
func TestResponseMarshalStability(t *testing.T) {
	resp := Response{
		Algorithm: "bucketbound",
		Bound:     2.4,
		Routes: []Route{{
			Nodes: []int64{0, 1, 2}, Names: []string{"Hotel", "Cafe", "Park"},
			Objective: 1.5, Budget: 3, Feasible: true,
		}},
		Metrics:   &Metrics{LabelsCreated: 7, PeakQueue: 3},
		ElapsedMS: 1.25,
	}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"algorithm":"bucketbound","bound":2.4,` +
		`"routes":[{"nodes":[0,1,2],"names":["Hotel","Cafe","Park"],"objective":1.5,"budget":3,"feasible":true}],` +
		`"metrics":{"labels_created":7,"labels_enqueued":0,"labels_dequeued":0,"pruned_budget":0,` +
		`"pruned_bound":0,"pruned_strategy2":0,"dominated":0,"dominated_swept":0,` +
		`"feasible":0,"peak_queue":3},"elapsed_ms":1.25}`
	if string(got) != want {
		t.Errorf("response wire form drifted:\n got %s\nwant %s", got, want)
	}

	var back Response
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, back) {
		t.Errorf("response round trip changed the value:\n got %+v\nwant %+v", back, resp)
	}
}

func TestErrorEnvelopeMarshal(t *testing.T) {
	env := ErrorEnvelope{Error: Error{Code: CodeNoRoute, Message: "no feasible route exists"}}
	got, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"no_route","message":"no feasible route exists"}}`
	if string(got) != want {
		t.Errorf("error envelope drifted:\n got %s\nwant %s", got, want)
	}
}

// TestLegacyAliases: the pre-/v1 spellings "delta", "queries" and "algo" are
// no longer part of the wire contract; they decode to nothing, so a client
// still sending them gets a missing-budget or empty-batch rejection rather
// than a silently different query.
func TestLegacyAliases(t *testing.T) {
	var req Request
	if err := json.Unmarshal([]byte(`{"from":1,"to":2,"keywords":["a"],"delta":4.5}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.BudgetLimit() != 0 {
		t.Errorf("BudgetLimit = %v, want 0: delta is not a budget", req.BudgetLimit())
	}

	var batch BatchRequest
	if err := json.Unmarshal([]byte(`{"queries":[{"from":1,"to":2,"keywords":["a"],"budget":4.5}]}`), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Requests) != 0 {
		t.Errorf("Requests = %d, want 0: queries is not a request list", len(batch.Requests))
	}

	qv := map[string][]string{"from": {"1"}, "to": {"2"}, "keywords": {"a"}, "delta": {"4.5"}}
	if _, apiErr := RequestFromParams(qv); apiErr == nil || apiErr.Code != CodeBadRequest {
		t.Errorf("delta URL parameter: err = %v, want a bad_request for the missing budget", apiErr)
	}
	qv = map[string][]string{"from": {"1"}, "to": {"2"}, "keywords": {"a"}, "budget": {"4.5"}, "algo": {"greedy"}}
	if got, apiErr := RequestFromParams(qv); apiErr != nil || got.Algorithm != "" {
		t.Errorf("algo URL parameter: algorithm %q err %v, want it ignored", got.Algorithm, apiErr)
	}
}

func TestKorRequestConversion(t *testing.T) {
	wire := Request{
		From: 3, To: 9, Keywords: []string{"cafe"}, Budget: 5,
		Algorithm: "greedy", K: 2,
		Options: &Options{Alpha: f64(0.8), Width: iptr(2)},
	}
	req, err := wire.KorRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.From != 3 || req.To != 9 || req.Budget != 5 {
		t.Errorf("endpoints/budget wrong: %+v", req)
	}
	if req.Algorithm != kor.AlgorithmGreedy || req.K != 2 {
		t.Errorf("algorithm/k wrong: %+v", req)
	}
	if req.Options == nil || req.Options.Alpha != 0.8 || req.Options.Width != 2 {
		t.Fatalf("options not applied: %+v", req.Options)
	}
	// Unset wire options keep the engine defaults.
	if def := kor.DefaultOptions(); req.Options.Epsilon != def.Epsilon || req.Options.Beta != def.Beta {
		t.Errorf("defaults lost: %+v", req.Options)
	}
}

// TestKorRequestRejectsOutOfRangeIDs: wire IDs are int64 but engine node
// IDs are int32 — truncation would silently address the wrong node.
func TestKorRequestRejectsOutOfRangeIDs(t *testing.T) {
	for _, wire := range []Request{
		{From: 1 << 32, To: 2, Keywords: []string{"a"}, Budget: 5},
		{From: 0, To: -(1 << 32), Keywords: []string{"a"}, Budget: 5},
	} {
		if _, err := wire.KorRequest(); !errors.Is(err, kor.ErrBadQuery) {
			t.Errorf("KorRequest(%+v) err = %v, want ErrBadQuery wrap", wire, err)
		}
	}
}

func TestErrorFromMapping(t *testing.T) {
	cases := []struct {
		err  error
		code ErrorCode
	}{
		{fmt.Errorf("wrap: %w", kor.ErrNoRoute), CodeNoRoute},
		{fmt.Errorf("%w: %q", kor.ErrUnknownKeyword, "spa"), CodeUnknownKeyword},
		{fmt.Errorf("%w: epsilon", kor.ErrBadQuery), CodeBadRequest},
		{fmt.Errorf("kor: search aborted: %w", context.DeadlineExceeded), CodeDeadline},
		{fmt.Errorf("kor: search aborted: %w", context.Canceled), CodeCanceled},
		{fmt.Errorf("wrap: %w", kor.ErrSearchLimit), CodeSearchLimit},
		{fmt.Errorf("%w: %w %q", kor.ErrBadQuery, kor.ErrUnknownAlgorithm, "warp"), CodeUnknownAlgorithm},
		{fmt.Errorf("%w: update edge 9→9: no such edge", kor.ErrBadDelta), CodeBadRequest},
		{errors.New("disk on fire"), CodeInternal},
	}
	for _, c := range cases {
		got := ErrorFrom(c.err)
		if got == nil || got.Code != c.code {
			t.Errorf("ErrorFrom(%v) = %+v, want code %s", c.err, got, c.code)
		}
	}
	if got := ErrorFrom(nil); got != nil {
		t.Errorf("ErrorFrom(nil) = %+v, want nil", got)
	}
	if got := ErrorFrom(kor.ErrBudgetExceeded); got != nil {
		t.Errorf("ErrorFrom(ErrBudgetExceeded) = %+v, want nil (routes still usable)", got)
	}
}

func TestHTTPStatus(t *testing.T) {
	cases := map[ErrorCode]int{
		CodeBadRequest:       400,
		CodeUnknownKeyword:   400,
		CodeUnknownAlgorithm: 400,
		CodeNotFound:         404,
		CodeNoRoute:          404,
		CodeSearchLimit:      422,
		CodeOverloaded:       429,
		CodeCanceled:         499,
		CodeInternal:         500,
		CodeDeadline:         504,
		ErrorCode("martian"): 500,
	}
	for code, want := range cases {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%s.HTTPStatus() = %d, want %d", code, got, want)
		}
	}
}

// TestDeltaMarshalStability pins the live-update delta wire form: the body
// of POST /v1/admin/patch is part of the /v1 contract.
func TestDeltaMarshalStability(t *testing.T) {
	d := Delta{
		AddKeywords:    []DeltaKeywords{{Node: 3, Keywords: []string{"rooftop"}}},
		RemoveKeywords: []DeltaKeywords{{Node: 4, Keywords: []string{"closed"}}},
		UpdateEdges:    []DeltaEdge{{From: 0, To: 1, Objective: 0.5, Budget: 1.5}},
		AddEdges:       []DeltaEdge{{From: 2, To: 3, Objective: 0.2, Budget: 0.3}},
		RemoveEdges:    []DeltaEdge{{From: 1, To: 0}},
	}
	got, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"add_keywords":[{"node":3,"keywords":["rooftop"]}],` +
		`"remove_keywords":[{"node":4,"keywords":["closed"]}],` +
		`"update_edges":[{"from":0,"to":1,"objective":0.5,"budget":1.5}],` +
		`"add_edges":[{"from":2,"to":3,"objective":0.2,"budget":0.3}],` +
		`"remove_edges":[{"from":1,"to":0}]}`
	if string(got) != want {
		t.Errorf("delta wire form drifted:\n got %s\nwant %s", got, want)
	}
	var back Delta
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Errorf("delta round trip changed the value:\n got %+v\nwant %+v", back, d)
	}
	if !(Delta{}).Empty() || d.Empty() {
		t.Error("Empty() misreports")
	}
}

// TestSnapshotAndAdminMarshalStability pins the snapshot metadata block
// (inside /v1/stats and the admin responses).
func TestSnapshotAndAdminMarshalStability(t *testing.T) {
	admin := AdminResponse{
		Snapshot: Snapshot{Fingerprint: "00ff00ff00ff00ff", Generation: 2, LoadedAt: "2026-07-29T12:00:00Z"},
		Nodes:    4, Edges: 7,
	}
	got, err := json.Marshal(admin)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"snapshot":{"fingerprint":"00ff00ff00ff00ff","generation":2,"loaded_at":"2026-07-29T12:00:00Z"},` +
		`"nodes":4,"edges":7}`
	if string(got) != want {
		t.Errorf("admin wire form drifted:\n got %s\nwant %s", got, want)
	}
}

// TestDeltaConversion: wire deltas lower onto the engine type, with the
// same int32 range check as requests.
func TestDeltaConversion(t *testing.T) {
	wire := Delta{
		AddKeywords: []DeltaKeywords{{Node: 1, Keywords: []string{"a", "b"}}},
		UpdateEdges: []DeltaEdge{{From: 0, To: 1, Objective: 2, Budget: 3}},
		RemoveEdges: []DeltaEdge{{From: 1, To: 0, Objective: 99, Budget: 99}}, // attrs ignored
	}
	d, err := wire.KorDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.AddKeywords) != 1 || d.AddKeywords[0].Node != 1 || len(d.AddKeywords[0].Keywords) != 2 {
		t.Errorf("AddKeywords = %+v", d.AddKeywords)
	}
	if len(d.UpdateEdges) != 1 || d.UpdateEdges[0] != (kor.EdgePatch{From: 0, To: 1, Objective: 2, Budget: 3}) {
		t.Errorf("UpdateEdges = %+v", d.UpdateEdges)
	}
	if len(d.RemoveEdges) != 1 || d.RemoveEdges[0] != (kor.EdgeRef{From: 1, To: 0}) {
		t.Errorf("RemoveEdges = %+v", d.RemoveEdges)
	}

	bad := Delta{AddEdges: []DeltaEdge{{From: 1 << 40, To: 0, Objective: 1, Budget: 1}}}
	if _, err := bad.KorDelta(); !errors.Is(err, kor.ErrBadDelta) {
		t.Errorf("KorDelta out-of-range err = %v, want ErrBadDelta wrap", err)
	}
}

// TestWarningFrom: the budget overshoot is a warning on a usable response,
// never an error envelope; everything else is not a warning.
func TestWarningFrom(t *testing.T) {
	if w := WarningFrom(fmt.Errorf("wrap: %w", kor.ErrBudgetExceeded)); w == nil || w.Code != CodeBudgetExceeded {
		t.Errorf("WarningFrom(ErrBudgetExceeded) = %+v, want code budget_exceeded", w)
	}
	if w := WarningFrom(nil); w != nil {
		t.Errorf("WarningFrom(nil) = %+v", w)
	}
	if w := WarningFrom(kor.ErrNoRoute); w != nil {
		t.Errorf("WarningFrom(ErrNoRoute) = %+v, want nil (that is an error)", w)
	}
}

// TestResponseFromKor exercises the name-alignment rule: names appear only
// when every visited node is named.
func TestResponseFromKor(t *testing.T) {
	b := kor.NewBuilder()
	a := b.AddNode("cafe")
	c := b.AddNode("park")
	if err := b.AddEdge(a, c, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(c, a, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetName(a, "Cafe"); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()

	resp := kor.Response{
		Algorithm: kor.AlgorithmBucketBound,
		Bound:     2.4,
		Routes: []kor.Route{{
			Nodes: []kor.NodeID{a, c}, Objective: 1, Budget: 1, Feasible: true,
		}},
		Elapsed: 1500 * time.Microsecond,
	}
	wire := ResponseFromKor(g, resp, true)
	if wire.Routes[0].Names != nil {
		t.Errorf("partially named route still carries names: %v", wire.Routes[0].Names)
	}
	if wire.ElapsedMS != 1.5 {
		t.Errorf("ElapsedMS = %v, want 1.5", wire.ElapsedMS)
	}
	if wire.Metrics == nil {
		t.Error("withMetrics lost the metrics block")
	}
}
