package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"kor"
	"kor/internal/geo"
	"kor/korapi"
)

// testGraph is the façade test city plus coordinates, so GeoJSON works.
func testGraph(t *testing.T) *kor.Graph {
	t.Helper()
	b := kor.NewBuilder()
	hotel := b.AddNode("hotel")
	cafe := b.AddNode("cafe", "jazz")
	park := b.AddNode("park")
	mall := b.AddNode("mall", "cafe")
	edges := []struct {
		from, to kor.NodeID
		o, c     float64
	}{
		{hotel, cafe, 0.7, 1.2}, {cafe, park, 0.3, 0.8}, {park, hotel, 0.5, 1.0},
		{cafe, mall, 0.4, 0.5}, {mall, park, 0.6, 0.9}, {hotel, park, 2.0, 0.4},
		{park, cafe, 0.3, 0.8},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetName(hotel, "Grand Hotel"); err != nil {
		t.Fatal(err)
	}
	for i, v := range []kor.NodeID{hotel, cafe, park, mall} {
		if err := b.SetPosition(v, geo.Point{X: float64(i), Y: float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func testServer(t *testing.T, timeout time.Duration) *httptest.Server {
	ts, _ := testServerEngine(t, timeout)
	return ts
}

// testServerEngine also hands back the engine, for tests that drive swaps
// or inspect snapshots directly. It serves from the lazy oracle, so no
// background table swap moves the snapshot generations the tests count;
// TestServeStatsOracleDefault covers the default oracle.
func testServerEngine(t *testing.T, timeout time.Duration) (*httptest.Server, *kor.Engine) {
	t.Helper()
	eng, err := kor.NewEngine(testGraph(t), &kor.EngineConfig{Oracle: kor.OracleLazy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, serverConfig{timeout: timeout}).routes())
	t.Cleanup(ts.Close)
	return ts, eng
}

// get fetches a path and decodes the JSON body into out (unless nil).
func get(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s body %q: %v", path, body, err)
		}
	}
	return resp
}

func post(t *testing.T, ts *httptest.Server, path string, in, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s body %q: %v", path, body, err)
		}
	}
	return resp
}

func wantEnvelope(t *testing.T, resp *http.Response, env korapi.ErrorEnvelope, status int, code korapi.ErrorCode) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("status = %d, want %d", resp.StatusCode, status)
	}
	if env.Error.Code != code {
		t.Errorf("error code = %q, want %q", env.Error.Code, code)
	}
	if env.Error.Message == "" {
		t.Error("error envelope carries no message")
	}
}

func TestServeV1Route(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	var out korapi.Response
	resp := get(t, ts, "/v1/route?from=0&to=0&keywords=jazz,park&budget=4&metrics=true", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Algorithm != "bucketbound" {
		t.Errorf("algorithm = %q, want bucketbound", out.Algorithm)
	}
	if out.Bound < 2.39 || out.Bound > 2.41 {
		t.Errorf("bound = %v, want 2.4", out.Bound)
	}
	if len(out.Routes) != 1 || !out.Routes[0].Feasible {
		t.Fatalf("routes = %+v", out.Routes)
	}
	if out.Metrics == nil {
		t.Error("metrics=true did not attach metrics")
	}
	if out.Routes[0].Nodes[0] != 0 || out.Routes[0].Nodes[len(out.Routes[0].Nodes)-1] != 0 {
		t.Errorf("round trip endpoints wrong: %v", out.Routes[0].Nodes)
	}
}

func TestServeV1RoutePost(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	eps := 0.1
	req := korapi.Request{
		From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6,
		Algorithm: "topk", K: 3,
		Options: &korapi.Options{Epsilon: &eps},
	}
	var out korapi.Response
	resp := post(t, ts, "/v1/route", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Algorithm != "topk" {
		t.Errorf("algorithm = %q, want topk", out.Algorithm)
	}
	if len(out.Routes) < 2 {
		t.Errorf("top-k returned %d routes", len(out.Routes))
	}
}

// TestServeUnknownBodyField: a POST body with a field the wire types do not
// have — a misspelt option, or one that no longer exists — is a 400
// bad_request on /v1/route, /v1/batch and /v1/admin/patch, as it is at
// korrouter, not a request served with the field ignored.
func TestServeUnknownBodyField(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	for _, c := range []struct{ path, body string }{
		{"/v1/route", `{"from":0,"to":2,"keywords":["cafe"],"budget":6,"options":{"epsilion":0.1}}`},
		{"/v1/route", `{"from":0,"to":2,"keywords":["cafe"],"budget":6,"options":{"disable_strategy1":true}}`},
		{"/v1/batch", `{"requests":[{"from":0,"to":2,"keywords":["cafe"],"budget":6,"options":{"epsilion":0.1}}]}`},
		{"/v1/batch", `{"requests":[{"from":0,"to":2,"keywords":["cafe"],"budget":6}],"paralelism":2}`},
		{"/v1/admin/patch", `{"update_edges":[{"from":0,"to":1,"objective":0.1,"budget":1.2,"weight":3}]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var env korapi.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decoding the error body: %v", c.path, c.body, err)
		}
		wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
	}
}

// TestServeMaxExpansionsCap: a request may lower the label cap but not lift
// it past the engine's default. max_expansions is the server's only cap on
// a search's labels; a POST once replaced it with any value it sent.
func TestServeMaxExpansionsCap(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	post := func(maxExpansions int64) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"from":0,"to":2,"keywords":["cafe"],"budget":6,"options":{"max_expansions":%d}}`, maxExpansions)
		resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(1000)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a lowered cap: status = %d, want 200", resp.StatusCode)
	}
	resp = post(1 << 62)
	var env korapi.ErrorEnvelope
	err := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
}

// TestServeKCap: a request may ask for at most core.MaxK routes. A larger k
// is a 400 bad_request, not a top-k search that holds a CPU until its
// deadline.
func TestServeKCap(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	body := `{"from":0,"to":2,"keywords":["cafe"],"budget":6,"algorithm":"topk","k":1000}`
	resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env korapi.ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
}

// TestServeV1RouteBadParams: every malformed numeric parameter is a hard
// 400 with the error envelope — nothing is silently ignored. Before /v1 a
// bad k was dropped on the floor.
func TestServeV1RouteBadParams(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	cases := []struct {
		name, path string
		code       korapi.ErrorCode
	}{
		{"bad k", "/v1/route?from=0&to=2&keywords=cafe&budget=5&k=abc", korapi.CodeBadRequest},
		{"negative k", "/v1/route?from=0&to=2&keywords=cafe&budget=5&k=-3", korapi.CodeBadRequest},
		{"out-of-range from", "/v1/route?from=4294967296&to=2&keywords=cafe&budget=5", korapi.CodeBadRequest},
		{"bad from", "/v1/route?from=xyz&to=2&keywords=cafe&budget=5", korapi.CodeBadRequest},
		{"bad budget", "/v1/route?from=0&to=2&keywords=cafe&budget=much", korapi.CodeBadRequest},
		{"missing keywords", "/v1/route?from=0&to=2&budget=5", korapi.CodeBadRequest},
		{"bad epsilon value", "/v1/route?from=0&to=2&keywords=cafe&budget=5&epsilon=nope", korapi.CodeBadRequest},
		{"out-of-domain epsilon", "/v1/route?from=0&to=2&keywords=cafe&budget=5&epsilon=1.5", korapi.CodeBadRequest},
		{"bad width", "/v1/route?from=0&to=2&keywords=cafe&budget=5&width=0", korapi.CodeBadRequest},
		{"width too wide", "/v1/route?from=0&to=2&keywords=cafe&budget=5&algorithm=greedy&width=1000", korapi.CodeBadRequest},
		{"bad metrics", "/v1/route?from=0&to=2&keywords=cafe&budget=5&metrics=perhaps", korapi.CodeBadRequest},
		{"bad format", "/v1/route?from=0&to=2&keywords=cafe&budget=5&format=xml", korapi.CodeBadRequest},
		{"unknown algorithm", "/v1/route?from=0&to=2&keywords=cafe&budget=5&algorithm=warp", korapi.CodeUnknownAlgorithm},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var env korapi.ErrorEnvelope
			resp := get(t, ts, c.path, &env)
			wantEnvelope(t, resp, env, http.StatusBadRequest, c.code)
		})
	}
}

// TestServeErrorCodes maps the search outcomes onto statuses and codes:
// no feasible route → 404/no_route, unknown keyword → 400/unknown_keyword,
// deadline → 504/deadline_exceeded.
func TestServeErrorCodes(t *testing.T) {
	ts := testServer(t, 5*time.Second)

	var env korapi.ErrorEnvelope
	resp := get(t, ts, "/v1/route?from=0&to=2&keywords=jazz&budget=0.1", &env)
	wantEnvelope(t, resp, env, http.StatusNotFound, korapi.CodeNoRoute)

	env = korapi.ErrorEnvelope{}
	resp = get(t, ts, "/v1/route?from=0&to=2&keywords=spa&budget=5", &env)
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeUnknownKeyword)

	// NaN parses as a float but is no budget limit.
	env = korapi.ErrorEnvelope{}
	resp = get(t, ts, "/v1/route?from=0&to=2&keywords=cafe&budget=NaN", &env)
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)

	// So are a NaN ε, β or α and an infinite β: each once answered an empty
	// 200, or a route ranked on NaN scores.
	for _, opt := range []string{"epsilon=NaN", "beta=NaN", "beta=Inf", "alpha=NaN"} {
		env = korapi.ErrorEnvelope{}
		resp = get(t, ts, "/v1/route?from=0&to=2&keywords=cafe&budget=5&"+opt, &env)
		wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
	}

	// A server whose deadline already passed when the search starts.
	tiny := testServer(t, time.Nanosecond)
	env = korapi.ErrorEnvelope{}
	resp = get(t, tiny, "/v1/route?from=0&to=2&keywords=cafe&budget=5", &env)
	wantEnvelope(t, resp, env, http.StatusGatewayTimeout, korapi.CodeDeadline)
}

func TestServeV1Batch(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	eps := 0.1
	batch := korapi.BatchRequest{
		Requests: []korapi.Request{
			{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5},
			{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6, Algorithm: "topk", K: 3, Options: &korapi.Options{Epsilon: &eps}},
			{From: 0, To: 2, Keywords: []string{"spa"}, Budget: 5},
			{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, Algorithm: "exact"},
			{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, Algorithm: "warp"},
		},
	}
	var out korapi.BatchResponse
	resp := post(t, ts, "/v1/batch", batch, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(out.Results))
	}
	if out.Incomplete {
		t.Error("full batch flagged incomplete")
	}
	for _, i := range []int{0, 1, 3} {
		if out.Results[i].Response == nil || out.Results[i].Error != nil {
			t.Errorf("slot %d: %+v, want success", i, out.Results[i])
		}
	}
	if out.Results[1].Response != nil {
		if out.Results[1].Response.Algorithm != "topk" {
			t.Errorf("slot 1 ran %q, want topk", out.Results[1].Response.Algorithm)
		}
		if len(out.Results[1].Response.Routes) < 2 {
			t.Errorf("slot 1 top-k returned %d routes", len(out.Results[1].Response.Routes))
		}
	}
	if out.Results[3].Response != nil && out.Results[3].Response.Bound != 1 {
		t.Errorf("exact slot bound = %v, want 1", out.Results[3].Response.Bound)
	}
	if out.Results[2].Error == nil || out.Results[2].Error.Code != korapi.CodeUnknownKeyword {
		t.Errorf("failing slot = %+v, want unknown_keyword error", out.Results[2])
	}
	// A batch slot with a bad algorithm carries the same code /v1/route uses.
	if out.Results[4].Error == nil || out.Results[4].Error.Code != korapi.CodeUnknownAlgorithm {
		t.Errorf("bad-algorithm slot = %+v, want unknown_algorithm error", out.Results[4])
	}

	// Malformed bodies and empty batches are hard 400s.
	var env korapi.ErrorEnvelope
	resp = post(t, ts, "/v1/batch", korapi.BatchRequest{}, &env)
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
}

func TestServeV1Nodes(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	var node korapi.Node
	resp := get(t, ts, "/v1/nodes/1", &node)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if node.ID != 1 || len(node.Keywords) != 2 {
		t.Errorf("node = %+v, want id 1 with keywords {cafe, jazz}", node)
	}

	for _, path := range []string{"/v1/nodes/999", "/v1/nodes/abc"} {
		var env korapi.ErrorEnvelope
		resp := get(t, ts, path, &env)
		wantEnvelope(t, resp, env, http.StatusNotFound, korapi.CodeNotFound)
	}
}

func TestServeV1Keywords(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	var out korapi.KeywordsResponse
	resp := get(t, ts, "/v1/keywords?prefix=ca&limit=10", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Keywords) != 1 || out.Keywords[0].Keyword != "cafe" || out.Keywords[0].Nodes != 2 {
		t.Errorf("keywords = %+v, want [{cafe 2}]", out.Keywords)
	}

	var env korapi.ErrorEnvelope
	resp = get(t, ts, "/v1/keywords?limit=lots", &env)
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
}

func TestServeV1Stats(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	var st korapi.Stats
	resp := get(t, ts, "/v1/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Nodes != 4 || st.Edges != 7 {
		t.Errorf("stats = %+v, want 4 nodes / 7 edges", st)
	}
}

func TestServeGeoJSON(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	resp, err := http.Get(ts.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4&format=geojson")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Geometry struct {
				Type string `json:"type"`
			} `json:"geometry"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatalf("decoding geojson %q: %v", body, err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) < 2 {
		t.Errorf("geojson = %s", body)
	}
	if fc.Features[0].Geometry.Type != "LineString" {
		t.Errorf("first feature geometry = %q, want LineString", fc.Features[0].Geometry.Type)
	}
}

// TestServeLegacyAliases: the pre-/v1 paths are gone — each answers 404 —
// and the legacy delta/algo spellings on /v1/route are not a budget or an
// algorithm.
func TestServeLegacyAliases(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	for _, path := range []string{"/query?from=0&to=0&keywords=jazz&delta=4", "/node/0", "/keywords", "/stats"} {
		if resp := get(t, ts, path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
	body := korapi.BatchRequest{Requests: []korapi.Request{{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5}}}
	if resp := post(t, ts, "/batch", body, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /batch: status = %d, want 404", resp.StatusCode)
	}

	var env korapi.ErrorEnvelope
	resp := get(t, ts, "/v1/route?from=0&to=0&keywords=jazz,park&delta=4", &env)
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
	var out korapi.Response
	resp = get(t, ts, "/v1/route?from=0&to=0&keywords=jazz,park&budget=4&algo=greedy", &out)
	if resp.StatusCode != http.StatusOK || out.Algorithm != "bucketbound" {
		t.Errorf("algo parameter: status %d algorithm %q, want 200 with the default bucketbound", resp.StatusCode, out.Algorithm)
	}
}

// TestServeBudgetOvershootWarning: a greedy route that covers the keywords
// but overshoots Δ is a 200 carrying the violating routes (Feasible=false)
// plus an explicit budget_exceeded warning — not a bare success the client
// cannot distinguish from a feasible answer, and not an error envelope that
// discards the routes. Both the GET and batch paths are covered.
func TestServeBudgetOvershootWarning(t *testing.T) {
	ts := testServer(t, 5*time.Second)

	// Keyword mode greedy: the only jazz route 0→1→2 costs budget 2.0 > 1.
	var out korapi.Response
	resp := get(t, ts, "/v1/route?from=0&to=2&keywords=jazz&budget=1&algorithm=greedy", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with routes and warning", resp.StatusCode)
	}
	if len(out.Routes) == 0 {
		t.Fatal("overshoot routes were dropped")
	}
	if out.Routes[0].Feasible {
		t.Errorf("overshoot route flagged feasible: %+v", out.Routes[0])
	}
	if out.Warning == nil || out.Warning.Code != korapi.CodeBudgetExceeded {
		t.Fatalf("warning = %+v, want code %q", out.Warning, korapi.CodeBudgetExceeded)
	}
	if out.Warning.Message == "" {
		t.Error("warning carries no message")
	}

	// A feasible answer carries no warning.
	var ok korapi.Response
	get(t, ts, "/v1/route?from=0&to=2&keywords=jazz&budget=6&algorithm=greedy", &ok)
	if ok.Warning != nil {
		t.Errorf("feasible response carries warning %+v", ok.Warning)
	}

	// Batch path: the overshoot slot is a response with a warning, not an
	// inline error.
	batch := korapi.BatchRequest{Requests: []korapi.Request{
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 1, Algorithm: "greedy"},
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 6},
	}}
	var bout korapi.BatchResponse
	bresp := post(t, ts, "/v1/batch", batch, &bout)
	if bresp.StatusCode != http.StatusOK || len(bout.Results) != 2 {
		t.Fatalf("batch status=%d results=%+v", bresp.StatusCode, bout.Results)
	}
	slot := bout.Results[0]
	if slot.Error != nil {
		t.Fatalf("overshoot batch slot became error %+v, routes discarded", slot.Error)
	}
	if slot.Response == nil || len(slot.Response.Routes) == 0 {
		t.Fatalf("overshoot batch slot = %+v, want routes", slot)
	}
	if slot.Response.Warning == nil || slot.Response.Warning.Code != korapi.CodeBudgetExceeded {
		t.Fatalf("overshoot batch slot warning = %+v", slot.Response.Warning)
	}
	if bout.Results[1].Response == nil || bout.Results[1].Response.Warning != nil {
		t.Errorf("clean batch slot = %+v, want response without warning", bout.Results[1])
	}
}

// TestWriteErrorCanceled: a canceled search must write its 499 envelope.
// The old code returned without writing anything, which made net/http emit
// an implicit 200 OK with an empty body to any still-connected reader.
func TestWriteErrorCanceled(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, &korapi.Error{Code: korapi.CodeCanceled, Message: "search canceled"})
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499 (implicit 200 masks the cancellation)", rec.Code)
	}
	var env korapi.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not an error envelope: %v", rec.Body.Bytes(), err)
	}
	if env.Error.Code != korapi.CodeCanceled {
		t.Errorf("envelope code = %q, want canceled", env.Error.Code)
	}
}

// TestServeV1StatsSnapshot: /v1/stats carries the serving snapshot's
// identity so operators can verify a patch or reload actually took.
func TestServeV1StatsSnapshot(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	var st korapi.Stats
	get(t, ts, "/v1/stats", &st)
	if st.Snapshot == nil {
		t.Fatal("stats carry no snapshot block")
	}
	if len(st.Snapshot.Fingerprint) != 16 {
		t.Errorf("fingerprint = %q, want 16 hex digits", st.Snapshot.Fingerprint)
	}
	if st.Snapshot.Generation != 1 {
		t.Errorf("generation = %d, want 1 on a fresh server", st.Snapshot.Generation)
	}
	if _, err := time.Parse(time.RFC3339Nano, st.Snapshot.LoadedAt); err != nil {
		t.Errorf("loaded_at %q: %v", st.Snapshot.LoadedAt, err)
	}
}

// TestServeAdminPatch drives a live update end to end over HTTP: the delta
// changes the serving graph, the fingerprint and generation advance in
// /v1/stats, and route answers reflect the new attributes.
func TestServeAdminPatch(t *testing.T) {
	ts := testServer(t, 5*time.Second)

	var before korapi.Stats
	get(t, ts, "/v1/stats", &before)
	var routeBefore korapi.Response
	get(t, ts, "/v1/route?from=0&to=2&keywords=jazz&budget=6", &routeBefore)
	if got := routeBefore.Routes[0].Objective; got != 1.0 {
		t.Fatalf("pre-patch objective = %v, want 1.0", got)
	}

	delta := korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}
	var admin korapi.AdminResponse
	resp := post(t, ts, "/v1/admin/patch", delta, &admin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch status = %d", resp.StatusCode)
	}
	if admin.Snapshot.Generation != 2 {
		t.Errorf("generation = %d, want 2", admin.Snapshot.Generation)
	}
	if admin.Snapshot.Fingerprint == before.Snapshot.Fingerprint {
		t.Error("fingerprint unchanged by patch")
	}
	if admin.Nodes != 4 || admin.Edges != 7 {
		t.Errorf("admin size = %d/%d, want 4/7", admin.Nodes, admin.Edges)
	}

	var after korapi.Stats
	get(t, ts, "/v1/stats", &after)
	if after.Snapshot.Fingerprint != admin.Snapshot.Fingerprint || after.Snapshot.Generation != 2 {
		t.Errorf("stats snapshot = %+v, want the patched one %+v", after.Snapshot, admin.Snapshot)
	}
	var routeAfter korapi.Response
	get(t, ts, "/v1/route?from=0&to=2&keywords=jazz&budget=6", &routeAfter)
	if got := routeAfter.Routes[0].Objective; got != 0.4 {
		t.Errorf("post-patch objective = %v, want 0.4 (0.1 + 0.3)", got)
	}

	// Malformed deltas are hard 400s and leave the snapshot alone.
	cases := []struct {
		name string
		d    korapi.Delta
	}{
		{"empty", korapi.Delta{}},
		{"missing edge", korapi.Delta{RemoveEdges: []korapi.DeltaEdge{{From: 1, To: 0}}}},
		{"bad attribute", korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: -1, Budget: 1}}}},
		{"unknown node", korapi.Delta{AddKeywords: []korapi.DeltaKeywords{{Node: 99, Keywords: []string{"x"}}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var env korapi.ErrorEnvelope
			resp := post(t, ts, "/v1/admin/patch", c.d, &env)
			wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
		})
	}
	var final korapi.Stats
	get(t, ts, "/v1/stats", &final)
	if final.Snapshot.Generation != 2 {
		t.Errorf("failed patches moved the generation to %d", final.Snapshot.Generation)
	}
}

// TestServeAdminReload: reload re-reads the graph file, restoring the
// on-disk dataset after patches drifted the in-memory one.
func TestServeAdminReload(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "city.korg")
	if err := kor.SaveGraph(graphPath, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	g, err := kor.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kor.NewEngine(g, &kor.EngineConfig{Oracle: kor.OracleLazy}) // as testServerEngine
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, serverConfig{graphPath: graphPath, timeout: 5 * time.Second}).routes())
	t.Cleanup(ts.Close)

	var before korapi.Stats
	get(t, ts, "/v1/stats", &before)
	delta := korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}
	post(t, ts, "/v1/admin/patch", delta, nil)

	var admin korapi.AdminResponse
	resp := post(t, ts, "/v1/admin/reload", nil, &admin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	if admin.Snapshot.Generation != 3 {
		t.Errorf("generation = %d, want 3 (boot, patch, reload)", admin.Snapshot.Generation)
	}
	if admin.Snapshot.Fingerprint != before.Snapshot.Fingerprint {
		t.Errorf("reload fingerprint = %s, want the on-disk %s", admin.Snapshot.Fingerprint, before.Snapshot.Fingerprint)
	}

	// A server without a graph file refuses to reload.
	noFile := testServer(t, 5*time.Second)
	var env korapi.ErrorEnvelope
	resp = post(t, noFile, "/v1/admin/reload", nil, &env)
	wantEnvelope(t, resp, env, http.StatusBadRequest, korapi.CodeBadRequest)
}

// TestServeConcurrentRoutes hammers one server from several goroutines as a
// sanity check that the shared-engine handlers stay race-free end to end.
func TestServeConcurrentRoutes(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4")
			if err != nil {
				done <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestServeStatsOracle covers the /v1/stats oracle block end to end: a
// server started with a persistent distance index reports partitioned-disk
// serving, and an admin patch that diverges the graph flips it to a
// degraded lazy oracle instead of serving stale distances.
func TestServeStatsOracle(t *testing.T) {
	g := testGraph(t)
	distPath := filepath.Join(t.TempDir(), "dist.kori")
	if _, err := kor.WriteDistIndex(distPath, g, 3); err != nil {
		t.Fatalf("WriteDistIndex: %v", err)
	}
	eng, err := kor.NewEngine(g, &kor.EngineConfig{DistIndexPath: distPath})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(newServer(eng, serverConfig{timeout: 5 * time.Second}).routes())
	t.Cleanup(ts.Close)

	var st korapi.Stats
	get(t, ts, "/v1/stats", &st)
	if st.Oracle == nil {
		t.Fatal("stats carry no oracle block")
	}
	if st.Oracle.Kind != "partitioned-disk" || st.Oracle.Degraded {
		t.Fatalf("oracle = %+v, want healthy partitioned-disk", st.Oracle)
	}
	if len(st.Oracle.IndexFingerprint) != 16 || st.Oracle.IndexBytes <= 0 {
		t.Errorf("oracle index identity = %+v", st.Oracle)
	}
	if st.Oracle.DegradedSince != "" {
		t.Errorf("healthy oracle carries degraded_since %q", st.Oracle.DegradedSince)
	}

	delta := korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: 0.9, Budget: 1.2}}}
	if resp := post(t, ts, "/v1/admin/patch", delta, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch status = %d", resp.StatusCode)
	}
	get(t, ts, "/v1/stats", &st)
	if st.Oracle == nil || st.Oracle.Kind != "lazy" || !st.Oracle.Degraded {
		t.Fatalf("post-patch oracle = %+v, want degraded lazy", st.Oracle)
	}
	since, err := time.Parse(time.RFC3339Nano, st.Oracle.DegradedSince)
	if err != nil {
		t.Fatalf("degraded_since %q is not RFC 3339: %v", st.Oracle.DegradedSince, err)
	}
	if age := time.Since(since); age < 0 || age > time.Minute {
		t.Errorf("degraded_since %q dates the episode %v ago, want just now", st.Oracle.DegradedSince, age)
	}

	// A second patch extends the same episode: the timestamp must not move.
	if resp := post(t, ts, "/v1/admin/patch", korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: 0.8, Budget: 1.2}}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("second patch status = %d", resp.StatusCode)
	}
	get(t, ts, "/v1/stats", &st)
	if got, _ := time.Parse(time.RFC3339Nano, st.Oracle.DegradedSince); !got.Equal(since) {
		t.Errorf("second patch moved degraded_since from %v to %v", since, got)
	}
}

// TestServeStatsOracleDefault: without a distance index the oracle block
// still names the serving implementation: the lazy oracle with the matrix
// pending right after boot, the matrix once its background build is done.
func TestServeStatsOracleDefault(t *testing.T) {
	eng, err := kor.NewEngine(testGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverConfig{timeout: 5 * time.Second}).routes())
	defer ts.Close()
	st := waitOracle(t, func(st *korapi.Stats) { get(t, ts, "/v1/stats", st) })
	if st.Oracle == nil || st.Oracle.Kind != "matrix" || st.Oracle.Degraded {
		t.Fatalf("oracle = %+v, want matrix", st.Oracle)
	}
	if _, err := time.Parse(time.RFC3339Nano, st.Oracle.Since); err != nil {
		t.Errorf("since %q: %v", st.Oracle.Since, err)
	}
	// table_bytes counts the tables the process maps, a retired matrix's
	// until the collector releases it: collect until only this one is left.
	n := int64(eng.Graph().NumNodes())
	for deadline := time.Now().Add(10 * time.Second); st.Oracle.TableBytes != 40*n*n; {
		if time.Now().After(deadline) {
			t.Fatalf("table_bytes = %d, want %d (40 B per node pair)", st.Oracle.TableBytes, 40*n*n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
		get(t, ts, "/v1/stats", &st)
	}
}

// waitOracle polls /v1/stats through read until no table build is pending,
// and returns that read. Every read before it must report the lazy oracle
// with the matrix pending.
func waitOracle(t *testing.T, read func(*korapi.Stats)) korapi.Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st korapi.Stats
		read(&st)
		if st.Oracle == nil {
			t.Fatal("stats carry no oracle block")
		}
		if st.Oracle.Pending == "" {
			return st
		}
		if st.Oracle.Kind != "lazy" || st.Oracle.Pending != "matrix" {
			t.Fatalf("oracle = %+v, want lazy with the matrix pending", st.Oracle)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the matrix is still pending after 30s: %+v", st.Oracle)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
