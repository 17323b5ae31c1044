package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kor"
	"kor/internal/cluster"
	"kor/internal/metrics"
	"kor/korapi"
)

// shardBackend is a minimal korserve-equivalent over a kor.Engine: just the
// endpoints the router talks to, built on the same korapi conversions the
// real server uses, so the wire behavior matches.
type shardBackend struct {
	eng *kor.Engine
	srv *httptest.Server
}

func newShardBackend(t *testing.T, g *kor.Graph) *shardBackend {
	t.Helper()
	eng, err := kor.NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &shardBackend{eng: eng}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", b.handleRoute)
	mux.HandleFunc("GET /v1/stats", b.handleStats)
	mux.HandleFunc("POST /v1/admin/patch", b.handlePatch)
	mux.HandleFunc("GET /v1/keywords", b.handleKeywords)
	mux.HandleFunc("GET /v1/nodes/{id}", b.handleNode)
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func (b *shardBackend) handleRoute(w http.ResponseWriter, r *http.Request) {
	var wreq korapi.Request
	if err := json.NewDecoder(r.Body).Decode(&wreq); err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: err.Error()})
		return
	}
	kreq, err := wreq.KorRequest()
	if err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: err.Error()})
		return
	}
	resp, err := b.eng.Run(r.Context(), kreq)
	if apiErr := korapi.ErrorFrom(err); apiErr != nil {
		korapi.WriteError(w, apiErr)
		return
	}
	out := korapi.ResponseFromKor(b.eng.Graph(), resp, wreq.Metrics)
	if warn := korapi.WarningFrom(err); warn != nil {
		out.Warning = warn
	}
	korapi.WriteJSON(w, out)
}

func (b *shardBackend) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := korapi.SnapshotFromKor(b.eng.Snapshot())
	korapi.WriteJSON(w, korapi.Stats{Snapshot: &snap})
}

func (b *shardBackend) handlePatch(w http.ResponseWriter, r *http.Request) {
	var d korapi.Delta
	if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: err.Error()})
		return
	}
	kd, err := d.KorDelta()
	if err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: err.Error()})
		return
	}
	info, err := b.eng.Patch(kd)
	if err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeBadRequest, Message: err.Error()})
		return
	}
	g := b.eng.Graph()
	korapi.WriteJSON(w, korapi.AdminResponse{
		Snapshot: korapi.SnapshotFromKor(info), Nodes: g.NumNodes(), Edges: g.NumEdges(),
	})
}

func (b *shardBackend) handleKeywords(w http.ResponseWriter, r *http.Request) {
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	suggestions, err := b.eng.Suggest(r.URL.Query().Get("prefix"), limit)
	if err != nil {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeInternal, Message: err.Error()})
		return
	}
	out := korapi.KeywordsResponse{Keywords: make([]korapi.Keyword, len(suggestions))}
	for i, sg := range suggestions {
		out.Keywords[i] = korapi.Keyword{Keyword: sg.Keyword, Nodes: sg.Nodes}
	}
	korapi.WriteJSON(w, out)
}

func (b *shardBackend) handleNode(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	g := b.eng.Graph()
	if err != nil || !g.Valid(kor.NodeID(id)) {
		korapi.WriteError(w, &korapi.Error{Code: korapi.CodeNotFound, Message: "no such node"})
		return
	}
	korapi.WriteJSON(w, korapi.Node{ID: id, Degree: g.OutDegree(kor.NodeID(id))})
}

// testCity is the 4-node façade city korserve's own tests use.
func testCity(t *testing.T) *kor.Graph {
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
	return b.MustBuild()
}

// testCluster wires a two-shard cluster behind a router: replicasPerShard
// backends per shard, each serving its shard's cut graph, plus the single
// unsharded engine as the equivalence oracle.
type testCluster struct {
	g        *kor.Graph
	cut      *cluster.Cut
	backends [][]*shardBackend
	pool     *cluster.Pool
	rt       *router
	srv      *httptest.Server
	single   *kor.Engine
}

func newTestCluster(t *testing.T, g *kor.Graph, cellSize, halo, replicasPerShard int) *testCluster {
	t.Helper()
	cut, err := cluster.CutGraph(g, cluster.CutConfig{Shards: 2, CellSize: cellSize, Halo: halo})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Graphs) != 2 {
		t.Fatalf("cut produced %d shards, want 2", len(cut.Graphs))
	}
	tc := &testCluster{g: g, cut: cut}
	backendURLs := make(map[int][]string)
	expected := make(map[int]string)
	for s, sg := range cut.Graphs {
		expected[s] = cut.Map.Shards[s].Fingerprint
		var row []*shardBackend
		for r := 0; r < replicasPerShard; r++ {
			b := newShardBackend(t, sg)
			row = append(row, b)
			backendURLs[s] = append(backendURLs[s], b.srv.URL)
		}
		tc.backends = append(tc.backends, row)
	}
	tc.pool = cluster.NewPool(http.DefaultClient, backendURLs, expected)
	tc.rt = newRouter(cut.Map, tc.pool, http.DefaultClient, routerConfig{
		timeout:    10 * time.Second,
		retryAfter: 1,
		registry:   metrics.NewRegistry(),
	})
	tc.srv = httptest.NewServer(tc.rt.routes())
	t.Cleanup(tc.srv.Close)
	single, err := kor.NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc.single = single
	return tc
}

func (tc *testCluster) post(t *testing.T, path string, in, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.srv.URL+path, "application/json", bytes.NewReader(buf))
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

// singleAnswer runs the wire request on the unsharded oracle engine.
func (tc *testCluster) singleAnswer(t *testing.T, wreq korapi.Request) (*korapi.Response, *korapi.Error) {
	t.Helper()
	kreq, err := wreq.KorRequest()
	if err != nil {
		t.Fatalf("oracle request: %v", err)
	}
	resp, err := tc.single.Run(context.Background(), kreq)
	if apiErr := korapi.ErrorFrom(err); apiErr != nil {
		return nil, apiErr
	}
	out := korapi.ResponseFromKor(tc.single.Graph(), resp, wreq.Metrics)
	return &out, nil
}

// sameRoutes compares node sequences and objectives.
func sameRoutes(a, b []korapi.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cluster.RouteKey(a[i]) != cluster.RouteKey(b[i]) || a[i].Objective != b[i].Objective {
			return false
		}
	}
	return true
}

// TestRouterEquivalenceAllAlgorithms is the tentpole acceptance check: for
// every registry algorithm, the two-shard cluster answers exactly what a
// single korserve on the unsharded graph answers — same route signatures,
// same objectives — under an exhaustive halo.
func TestRouterEquivalenceAllAlgorithms(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 1)
	queries := []korapi.Request{
		{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6, K: 3},
		{From: 0, To: 2, Keywords: []string{"cafe", "jazz"}, Budget: 6, K: 2},
		{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 1}, // tight budget
		{From: 1, To: 1, Keywords: []string{"cafe"}, Budget: 4}, // round trip
	}
	for _, alg := range kor.Algorithms() {
		for qi, base := range queries {
			wreq := base
			wreq.Algorithm = string(alg)
			want, wantErr := tc.singleAnswer(t, wreq)

			if wantErr != nil {
				var gotErr korapi.ErrorEnvelope
				resp := tc.post(t, "/v1/route", wreq, &gotErr)
				if resp.StatusCode != wantErr.Code.HTTPStatus() || gotErr.Error.Code != wantErr.Code {
					t.Errorf("%s q%d: router %d/%s, oracle %s", alg, qi, resp.StatusCode, gotErr.Error.Code, wantErr.Code)
				}
				continue
			}
			var got korapi.Response
			resp := tc.post(t, "/v1/route", wreq, &got)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s q%d: router status %d, oracle succeeded", alg, qi, resp.StatusCode)
				continue
			}
			if got.Algorithm != want.Algorithm {
				t.Errorf("%s q%d: algorithm %q vs %q", alg, qi, got.Algorithm, want.Algorithm)
			}
			if !sameRoutes(got.Routes, want.Routes) {
				t.Errorf("%s q%d: routes diverge\nrouter: %+v\noracle: %+v", alg, qi, got.Routes, want.Routes)
			}
		}
	}
}

// TestRouterEquivalenceRoadNetwork repeats the equivalence check on a
// 150-node synthetic road network for the default planner and top-k.
func TestRouterEquivalenceRoadNetwork(t *testing.T) {
	g := kor.SyntheticRoadNetwork(2012, 150)
	tc := newTestCluster(t, g, 16, 1000, 1)
	kw := tc.cut.Map.Shards[0].Keywords
	if len(kw) == 0 {
		t.Fatal("shard 0 carries no keywords")
	}
	budget := g.MaxBudget() * 20
	queries := []korapi.Request{
		{From: 0, To: int64(g.NumNodes() - 1), Keywords: kw[:1], Budget: budget},
		{From: 3, To: 77, Keywords: kw[:1], Budget: budget, Algorithm: "topk", K: 3},
		{From: 5, To: 120, Keywords: []string{kw[len(kw)/2]}, Budget: budget, Algorithm: "greedy"},
	}
	for qi, wreq := range queries {
		want, wantErr := tc.singleAnswer(t, wreq)
		var got korapi.Response
		resp := tc.post(t, "/v1/route", wreq, nil)
		if wantErr != nil {
			if resp.StatusCode != wantErr.Code.HTTPStatus() {
				t.Errorf("q%d: router status %d, oracle error %s", qi, resp.StatusCode, wantErr.Code)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("q%d: router status %d, oracle succeeded", qi, resp.StatusCode)
		}
		tc.post(t, "/v1/route", wreq, &got)
		if !sameRoutes(got.Routes, want.Routes) {
			t.Errorf("q%d: routes diverge\nrouter: %+v\noracle: %+v", qi, got.Routes, want.Routes)
		}
	}
}

// TestRouterDeltaReplication: a delta POSTed to the router lands on every
// replica of every shard, and within each shard all replicas converge to
// the same fingerprint with nobody quarantined.
func TestRouterDeltaReplication(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 2)
	delta := korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: 0.9, Budget: 1.2}}}

	var out korapi.ClusterAdminResponse
	resp := tc.post(t, "/v1/admin/patch", delta, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch status %d", resp.StatusCode)
	}
	if out.Quarantined != 0 {
		t.Fatalf("patch left %d replicas quarantined", out.Quarantined)
	}
	if len(out.Shards) != 2 {
		t.Fatalf("patch reports %d shards", len(out.Shards))
	}
	for _, sa := range out.Shards {
		if len(sa.Replicas) != 2 {
			t.Fatalf("shard %d reports %d replicas, want 2", sa.Shard, len(sa.Replicas))
		}
		for _, ra := range sa.Replicas {
			if ra.Error != nil {
				t.Fatalf("shard %d replica %s failed: %v", sa.Shard, ra.URL, ra.Error)
			}
			if ra.Snapshot.Fingerprint != sa.ExpectedFingerprint {
				t.Errorf("shard %d replica %s fingerprint %s, expected consensus %s",
					sa.Shard, ra.URL, ra.Snapshot.Fingerprint, sa.ExpectedFingerprint)
			}
		}
		// And the fingerprints match the engines' live state.
		for _, b := range tc.backends[sa.Shard] {
			if got := fmt.Sprintf("%016x", b.eng.Graph().Fingerprint()); got != sa.ExpectedFingerprint {
				t.Errorf("shard %d backend fingerprint %s, consensus %s", sa.Shard, got, sa.ExpectedFingerprint)
			}
		}
	}
	// Queries keep flowing after the patch.
	var rr korapi.Response
	if resp := tc.post(t, "/v1/route", korapi.Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6}, &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-patch route status %d", resp.StatusCode)
	}
}

// TestRouterQuarantineAndReadmit: a replica patched behind the router's
// back is quarantined on the next probe, queries keep flowing on the
// consistent replica, and replaying the same delta through the router
// converges the shard and readmits the stray.
func TestRouterQuarantineAndReadmit(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 2)
	delta := korapi.Delta{UpdateEdges: []korapi.DeltaEdge{{From: 0, To: 1, Objective: 0.9, Budget: 1.2}}}

	// Divergence: patch one replica of shard 0 directly.
	kd, err := delta.KorDelta()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.backends[0][0].eng.Patch(kd); err != nil {
		t.Fatal(err)
	}
	tc.pool.ProbeAll(context.Background())
	if got := tc.pool.QuarantinedReplicas(); got != 1 {
		t.Fatalf("quarantined = %d after divergence, want 1", got)
	}

	// The cluster still answers, on the consistent replica.
	var rr korapi.Response
	if resp := tc.post(t, "/v1/route", korapi.Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6}, &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("route status %d with one quarantined replica", resp.StatusCode)
	}

	// Stats surface the quarantine.
	var st korapi.Stats
	getJSON(t, tc.srv.URL+"/v1/stats", &st)
	if st.Cluster == nil || st.Cluster.Quarantined != 1 {
		t.Fatalf("stats cluster block %+v, want quarantined 1", st.Cluster)
	}

	// Convergence: the same (idempotent) delta through the router lands on
	// everyone; the stray replica ends on the consensus fingerprint.
	var out korapi.ClusterAdminResponse
	if resp := tc.post(t, "/v1/admin/patch", delta, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("convergence patch status %d", resp.StatusCode)
	}
	if out.Quarantined != 0 {
		t.Fatalf("still %d quarantined after convergence", out.Quarantined)
	}
	if got := tc.pool.QuarantinedReplicas(); got != 0 {
		t.Fatalf("pool still quarantines %d after convergence", got)
	}
}

// TestRouterPartialFailure: a dead shard must not take down queries the
// surviving shards can answer, and a query that needed the dead shard sheds
// with the korapi envelope plus Retry-After — never a bare 502.
func TestRouterPartialFailure(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 1)
	// Kill every replica of one shard.
	deadShard := tc.cut.Map.OwnerOf(0)
	for _, b := range tc.backends[deadShard] {
		b.srv.Close()
	}

	// "cafe" lives on both shards (full halo): the survivor answers.
	var rr korapi.Response
	resp := tc.post(t, "/v1/route", korapi.Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6}, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial failure: status %d, want 200 from the surviving shard", resp.StatusCode)
	}
	if len(rr.Routes) == 0 {
		t.Fatal("partial failure: no routes from the surviving shard")
	}

	// Kill the rest: full unavailability answers 503 + envelope + Retry-After.
	for s := range tc.backends {
		for _, b := range tc.backends[s] {
			b.srv.Close()
		}
	}
	var env korapi.ErrorEnvelope
	resp = tc.post(t, "/v1/route", korapi.Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6}, &env)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("total failure: status %d, want 503", resp.StatusCode)
	}
	if env.Error.Code != korapi.CodeUnavailable {
		t.Fatalf("total failure: code %q, want unavailable", env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("total failure: no Retry-After header")
	}
}

// TestRouterBatch: per-request outcomes come back inline, mixed with
// errors, like a single korserve.
func TestRouterBatch(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 1)
	breq := korapi.BatchRequest{Requests: []korapi.Request{
		{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6},
		{From: 0, To: 2, Keywords: []string{"no_such_keyword"}, Budget: 6},
	}}
	var out korapi.BatchResponse
	if resp := tc.post(t, "/v1/batch", breq, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(out.Results) != 2 {
		t.Fatalf("batch returned %d results", len(out.Results))
	}
	if out.Results[0].Response == nil || len(out.Results[0].Response.Routes) == 0 {
		t.Fatalf("batch slot 0: %+v, want routes", out.Results[0])
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != korapi.CodeUnknownKeyword {
		t.Fatalf("batch slot 1: %+v, want unknown_keyword inline", out.Results[1])
	}
}

// TestRouterBodyLimit: a body over 1 MiB is refused with 400 bad_request on
// both POST endpoints, before the router decodes it all. Each body is a
// request the router answers once its leading 1 MiB of blanks is gone.
func TestRouterBodyLimit(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 1)
	pad := strings.Repeat(" ", maxBody)
	for path, body := range map[string]string{
		"/v1/route": `{"from":0,"to":2,"keywords":["cafe"],"budget":6}`,
		"/v1/batch": `{"requests":[{"from":0,"to":2,"keywords":["cafe"],"budget":6}]}`,
	} {
		for _, padded := range []bool{false, true} {
			in := body
			if padded {
				in = pad + body
			}
			resp, err := http.Post(tc.srv.URL+path, "application/json", strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			var out korapi.ErrorEnvelope
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			switch {
			case !padded && resp.StatusCode != http.StatusOK:
				t.Errorf("%s: the unpadded body got %d, want 200", path, resp.StatusCode)
			case padded && (err != nil || resp.StatusCode != http.StatusBadRequest || out.Error.Code != korapi.CodeBadRequest):
				t.Errorf("%s: a body over 1 MiB got %d %q, want 400 %q", path, resp.StatusCode, out.Error.Code, korapi.CodeBadRequest)
			}
		}
	}
}

// TestRouterSurface covers the remaining unified endpoints: stats shape,
// keyword merge, node forwarding, GET route and metrics exposition.
func TestRouterSurface(t *testing.T) {
	tc := newTestCluster(t, testCity(t), 2, 10, 1)

	var st korapi.Stats
	getJSON(t, tc.srv.URL+"/v1/stats", &st)
	if st.Role != "router" || st.Nodes != 4 || st.Cluster == nil {
		t.Fatalf("stats %+v, want role router over 4 nodes with a cluster block", st)
	}
	if st.Cluster.Replicas != 2 || st.Cluster.Healthy != 2 {
		t.Fatalf("cluster block %+v, want 2 healthy replicas", st.Cluster)
	}

	var kws korapi.KeywordsResponse
	getJSON(t, tc.srv.URL+"/v1/keywords?prefix=ca&limit=5", &kws)
	found := false
	for _, kw := range kws.Keywords {
		if kw.Keyword == "cafe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("keywords %+v, want cafe", kws.Keywords)
	}

	var node korapi.Node
	getJSON(t, tc.srv.URL+"/v1/nodes/1", &node)
	if node.ID != 1 {
		t.Fatalf("node forward returned %+v", node)
	}

	var rr korapi.Response
	getJSON(t, tc.srv.URL+"/v1/route?from=0&to=2&keywords=cafe&budget=6", &rr)
	if len(rr.Routes) == 0 {
		t.Fatal("GET route returned no routes")
	}

	resp, err := http.Get(tc.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"korrouter_http_requests_total",
		"korrouter_scatter_total",
		"korrouter_replicas_quarantined 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterKeywordCountsExact pins router /v1/keywords counts to the
// unsharded engine's: with a small halo every shard's closure overlaps its
// neighbour, so shard-local counts neither sum nor max to the global count —
// the router must serve the shard map's owned-node sums instead. Before the
// fix the merge kept the maximum shard-local count, a lower bound.
func TestRouterKeywordCountsExact(t *testing.T) {
	g := kor.SyntheticRoadNetwork(2012, 300)
	tc := newTestCluster(t, g, 40, 1, 1)

	// The cut must actually split some keyword's nodes across both shards,
	// otherwise this test cannot distinguish sum from max.
	split := false
	for kw, n := range tc.cut.Map.Shards[0].KeywordOwned {
		if n > 0 && tc.cut.Map.Shards[1].KeywordOwned[kw] > 0 {
			split = true
			break
		}
	}
	if !split {
		t.Fatal("cut did not split any keyword across shards; pick different parameters")
	}

	for _, prefix := range []string{"", "a", "k"} {
		var got korapi.KeywordsResponse
		getJSON(t, tc.srv.URL+"/v1/keywords?prefix="+prefix+"&limit=200", &got)
		want, err := tc.single.Suggest(prefix, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Keywords) != len(want) {
			t.Fatalf("prefix %q: router returned %d keywords, unsharded %d", prefix, len(got.Keywords), len(want))
		}
		for i, kw := range got.Keywords {
			if kw.Keyword != want[i].Keyword || kw.Nodes != want[i].Nodes {
				t.Errorf("prefix %q: keyword %d = %s/%d, unsharded %s/%d",
					prefix, i, kw.Keyword, kw.Nodes, want[i].Keyword, want[i].Nodes)
			}
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decoding %s body %q: %v", url, body, err)
	}
}

// TestParseBackends covers the -backends flag decoder.
func TestParseBackends(t *testing.T) {
	m := &cluster.ShardMap{Shards: []cluster.ShardInfo{{ID: 0}, {ID: 1}}}
	got, err := parseBackends("0=http://a:1, 1=http://b:2 ,0=http://c:3/", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 2 || len(got[1]) != 1 || got[0][1] != "http://c:3" {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{
		"",                   // shard 0 and 1 uncovered
		"0=http://a",         // shard 1 uncovered
		"0=http://a,1=ftp:x", // bad scheme
		"2=http://a",         // unknown shard
		"x=http://a",         // bad ID
		"http://a",           // not shard=url
	} {
		if _, err := parseBackends(bad, m); err == nil {
			t.Errorf("parseBackends(%q) accepted", bad)
		}
	}
}
