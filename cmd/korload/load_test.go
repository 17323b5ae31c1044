package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kor/korapi"
)

// stubServe builds a canned korserve lookalike: enough of the /v1 surface
// for the prober and the drivers, with the route handler supplied by the
// test.
func stubServe(t *testing.T, route http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(korapi.Stats{Nodes: 20, Edges: 60, MaxBudget: 2})
	})
	mux.HandleFunc("GET /v1/keywords", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(korapi.KeywordsResponse{Keywords: []korapi.Keyword{
			{Keyword: "cafe", Nodes: 5}, {Keyword: "jazz", Nodes: 3}, {Keyword: "park", Nodes: 7},
		}})
	})
	mux.HandleFunc("POST /v1/route", route)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// okRoute answers every request with a minimal successful response.
func okRoute(w http.ResponseWriter, r *http.Request) {
	var req korapi.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(korapi.ErrorEnvelope{Error: korapi.Error{Code: korapi.CodeBadRequest, Message: err.Error()}})
		return
	}
	json.NewEncoder(w).Encode(korapi.Response{
		Algorithm: req.Algorithm,
		Routes:    []korapi.Route{{Nodes: []int64{req.From, req.To}, Objective: 1, Budget: 1, Feasible: true}},
	})
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("bucketbound=0.7, greedy=0.2,topk=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].algo != "bucketbound" || mix[0].weight != 0.7 {
		t.Errorf("mix = %+v", mix)
	}
	if mix, err := parseMix("greedy"); err != nil || len(mix) != 1 || mix[0].weight != 1 {
		t.Errorf("bare name mix = %+v, err %v", mix, err)
	}
	for _, bad := range []string{"", "a=-1", "a=x", "=2"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(s, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if p := percentile(s, 1); p != 10 {
		t.Errorf("p100 = %v, want 10", p)
	}
}

// TestRunSynthesized drives the closed-loop driver against a stub that
// answers every outcome class and checks the report buckets them.
func TestRunSynthesized(t *testing.T) {
	var n atomic.Int64
	ts := stubServe(t, func(w http.ResponseWriter, r *http.Request) {
		var req korapi.Request
		json.NewDecoder(r.Body).Decode(&req)
		switch n.Add(1) % 5 {
		case 0: // no feasible route
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(korapi.ErrorEnvelope{Error: korapi.Error{Code: korapi.CodeNoRoute, Message: "no feasible route"}})
		case 1: // shed
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(korapi.ErrorEnvelope{Error: korapi.Error{Code: korapi.CodeOverloaded, Message: "saturated"}})
		default:
			json.NewEncoder(w).Encode(korapi.Response{Algorithm: req.Algorithm, Routes: []korapi.Route{{Nodes: []int64{req.From, req.To}}}})
		}
	})

	rep, err := run(config{
		URL:             ts.URL,
		Duration:        300 * time.Millisecond,
		Concurrency:     4,
		Mix:             "bucketbound=0.5,greedy=0.5",
		KeywordsMin:     1,
		KeywordsMax:     2,
		SLOMaxErrorRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.ThroughputQPS == 0 {
		t.Fatalf("report saw no traffic: %+v", rep)
	}
	if rep.Outcomes.OK == 0 || rep.Outcomes.NoRoute == 0 || rep.Outcomes.Rejected == 0 {
		t.Errorf("outcome buckets not all hit: %+v", rep.Outcomes)
	}
	if rep.Outcomes.Error != 0 || rep.Outcomes.ClientError != 0 {
		t.Errorf("unexpected errors: %+v", rep.Outcomes)
	}
	if got := rep.Outcomes.OK + rep.Outcomes.NoRoute + rep.Outcomes.Rejected; got != rep.Requests {
		t.Errorf("requests %d != outcome sum %d", rep.Requests, got)
	}
	if rep.Latency.P50MS <= 0 || rep.Latency.P99MS < rep.Latency.P50MS {
		t.Errorf("implausible latency summary: %+v", rep.Latency)
	}
	if !rep.Pass {
		t.Errorf("violations with every gate off: %v", rep.SLOViolations)
	}
}

// TestRunOpenLoop: a fixed arrival rate issues roughly rate×duration
// requests, far fewer than four unthrottled workers would.
func TestRunOpenLoop(t *testing.T) {
	ts := stubServe(t, okRoute)
	rep, err := run(config{
		URL:             ts.URL,
		Duration:        500 * time.Millisecond,
		QPS:             40,
		Concurrency:     4,
		Mix:             "bucketbound",
		SLOMaxErrorRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~20 expected; allow generous scheduling slack in both directions.
	if rep.Requests < 5 || rep.Requests > 40 {
		t.Errorf("open loop at 40qps for 500ms made %d requests, want ≈20", rep.Requests)
	}
}

// TestRunSLOGates: violations must trip the gates and flip Pass.
func TestRunSLOGates(t *testing.T) {
	ts := stubServe(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(korapi.ErrorEnvelope{Error: korapi.Error{Code: korapi.CodeInternal, Message: "boom"}})
	})
	rep, err := run(config{
		URL:             ts.URL,
		Duration:        200 * time.Millisecond,
		Concurrency:     2,
		Mix:             "bucketbound",
		SLOMaxErrorRate: 0,
		Require429:      true,
		SLOP99:          time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("all-500 run passed its gates")
	}
	if rep.ErrorRate != 1 {
		t.Errorf("error rate = %v, want 1", rep.ErrorRate)
	}
	// Three distinct gates tripped: error rate, missing 429s, p99.
	if len(rep.SLOViolations) < 3 {
		t.Errorf("violations = %v, want error-rate, require-429 and p99 gates", rep.SLOViolations)
	}
}

// TestRunReplay: the driver replays a recorded request file round-robin
// instead of synthesizing.
func TestRunReplay(t *testing.T) {
	var sawTopk atomic.Int64
	ts := stubServe(t, func(w http.ResponseWriter, r *http.Request) {
		var req korapi.Request
		json.NewDecoder(r.Body).Decode(&req)
		if req.Algorithm == "topk" {
			sawTopk.Add(1)
		}
		json.NewEncoder(w).Encode(korapi.Response{Algorithm: req.Algorithm, Routes: []korapi.Route{{}}})
	})

	path := filepath.Join(t.TempDir(), "replay.json")
	reqs := []korapi.Request{
		{From: 1, To: 2, Keywords: []string{"cafe"}, Budget: 5},
		{From: 2, To: 3, Keywords: []string{"jazz"}, Budget: 4, Algorithm: "topk", K: 3},
	}
	buf, _ := json.Marshal(reqs)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := run(config{
		URL:             ts.URL,
		Duration:        200 * time.Millisecond,
		Concurrency:     2,
		ReplayPath:      path,
		SLOMaxErrorRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Outcomes.OK != rep.Requests {
		t.Fatalf("replay report = %+v", rep)
	}
	if sawTopk.Load() == 0 {
		t.Error("replayed topk request never reached the server")
	}
}

// TestRunPatchChurn: the churn goroutine posts admin patches while load
// flows, and the report counts them.
func TestRunPatchChurn(t *testing.T) {
	var patched atomic.Int64
	ts := stubServe(t, okRoute)
	// stubServe's mux is already built; spin a second stub with the admin
	// route included.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(korapi.Stats{Nodes: 20, MaxBudget: 2})
	})
	mux.HandleFunc("GET /v1/keywords", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(korapi.KeywordsResponse{Keywords: []korapi.Keyword{{Keyword: "cafe", Nodes: 1}}})
	})
	mux.HandleFunc("POST /v1/route", okRoute)
	mux.HandleFunc("POST /v1/admin/patch", func(w http.ResponseWriter, r *http.Request) {
		var d korapi.Delta
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil || d.Empty() {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		patched.Add(1)
		json.NewEncoder(w).Encode(korapi.AdminResponse{})
	})
	ts.Close()
	ts = httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rep, err := run(config{
		URL:             ts.URL,
		Duration:        300 * time.Millisecond,
		Concurrency:     2,
		Mix:             "bucketbound",
		ChurnEvery:      50 * time.Millisecond,
		SLOMaxErrorRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdminPatches == 0 || int64(rep.AdminPatches) != patched.Load() {
		t.Errorf("admin patches: report %d, server saw %d", rep.AdminPatches, patched.Load())
	}
	if rep.AdminErrors != 0 {
		t.Errorf("admin errors = %d, want 0", rep.AdminErrors)
	}
}

func TestParseTargets(t *testing.T) {
	got, err := parseTargets("http://a:1, http://b:2/ ,http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("parseTargets = %v, want %v", got, want)
	}
	for _, bad := range []string{"", " , ", "no-scheme.example", "http://a,not a url"} {
		if _, err := parseTargets(bad); err == nil {
			t.Errorf("parseTargets(%q) accepted", bad)
		}
	}
}

// TestRunMultiTarget: -targets round-robins the identical stream across both
// servers and the report breaks the run down per target.
func TestRunMultiTarget(t *testing.T) {
	var hits [2]atomic.Int64
	ts0 := stubServe(t, func(w http.ResponseWriter, r *http.Request) {
		hits[0].Add(1)
		okRoute(w, r)
	})
	ts1 := stubServe(t, func(w http.ResponseWriter, r *http.Request) {
		hits[1].Add(1)
		okRoute(w, r)
	})

	rep, err := run(config{
		Targets:         ts0.URL + "," + ts1.URL,
		Duration:        300 * time.Millisecond,
		Concurrency:     4,
		Mix:             "bucketbound",
		SLOMaxErrorRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("per-target breakdown has %d entries, want 2: %+v", len(rep.Targets), rep.Targets)
	}
	sum := 0
	for i, tr := range rep.Targets {
		if tr.Requests == 0 {
			t.Errorf("target %d (%s) saw no requests", i, tr.URL)
		}
		// Requests the deadline cut mid-flight reach the server but are
		// dropped from the report; at most one per worker can be in flight.
		if got := hits[i].Load(); int64(tr.Requests) > got || got-int64(tr.Requests) > 4 {
			t.Errorf("target %d: report %d requests, server saw %d", i, tr.Requests, got)
		}
		if tr.Requests > 0 && tr.Latency.P50MS <= 0 {
			t.Errorf("target %d latency summary empty: %+v", i, tr.Latency)
		}
		sum += tr.Requests
	}
	if sum != rep.Requests {
		t.Errorf("per-target requests sum to %d, aggregate says %d", sum, rep.Requests)
	}
	// Round-robin assigns the targets within 1 of each other; the requests the
	// deadline cut (at most one per worker) are missing from the report.
	if a, b := rep.Targets[0].Requests, rep.Targets[1].Requests; a < b-5 || a > b+5 {
		t.Errorf("round robin split %d/%d, want within Concurrency+1", a, b)
	}
	if !rep.Pass {
		t.Errorf("violations with every gate off: %v", rep.SLOViolations)
	}
}

// TestRunMultiTargetSickReplicaFails: the per-target error gate trips even
// when the aggregate rate stays inside the SLO — the healthy target must not
// mask the sick one.
func TestRunMultiTargetSickReplicaFails(t *testing.T) {
	healthy := stubServe(t, okRoute)
	sick := stubServe(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(korapi.ErrorEnvelope{Error: korapi.Error{Code: korapi.CodeInternal, Message: "boom"}})
	})

	rep, err := run(config{
		Targets:         healthy.URL + "," + sick.URL,
		Duration:        300 * time.Millisecond,
		Concurrency:     4,
		Mix:             "bucketbound",
		SLOMaxErrorRate: 0.75, // aggregate ≈0.5 clears this; the sick target's 1.0 must not
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrorRate > 0.75 {
		t.Fatalf("aggregate error rate %v breached the gate on its own — test premise broken", rep.ErrorRate)
	}
	if rep.Pass {
		t.Fatalf("sick target hidden by the aggregate: %+v", rep)
	}
	found := false
	for _, v := range rep.SLOViolations {
		if strings.Contains(v, sick.URL) {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v name no target, want one pinned on %s", rep.SLOViolations, sick.URL)
	}
}

// TestEvalSLOZeroRequestTarget: a target the run never reached is itself a
// violation.
func TestEvalSLOZeroRequestTarget(t *testing.T) {
	r := &Report{
		Requests:      10,
		SLOViolations: []string{},
		Targets: []TargetReport{
			{URL: "http://a", Requests: 10},
			{URL: "http://b", Requests: 0},
		},
	}
	r.evalSLO(config{SLOMaxErrorRate: -1})
	if r.Pass {
		t.Fatal("zero-request target passed")
	}
	found := false
	for _, v := range r.SLOViolations {
		if strings.Contains(v, "http://b") && strings.Contains(v, "no requests") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v, want one naming the unreached target", r.SLOViolations)
	}
}

// TestRunSetupErrors: unusable targets fail fast instead of reporting.
func TestRunSetupErrors(t *testing.T) {
	if _, err := run(config{URL: "not a url", Duration: time.Second}); err == nil {
		t.Error("bad URL accepted")
	}
	// A reachable server with an empty vocabulary cannot be synthesized
	// against.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(korapi.Stats{Nodes: 5})
	})
	mux.HandleFunc("GET /v1/keywords", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(korapi.KeywordsResponse{})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	if _, err := run(config{URL: ts.URL, Duration: time.Second, Mix: "bucketbound"}); err == nil {
		t.Error("keyword-less target accepted")
	}
}

// TestGenerateDupFraction: with -dup-fraction the generator re-issues
// verbatim recent requests (the duplicate-heavy shape that exercises result
// caching and request coalescing on the server) and never records into the
// pool when the knob is off.
func TestGenerateDupFraction(t *testing.T) {
	mix, err := parseMix("bucketbound=1")
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{
		mix: mix, nodes: 50, vocab: []string{"a", "b", "c", "d"},
		kwMin: 1, kwMax: 2, budgetMin: 1, budgetMax: 5,
		dupFraction: 1,
	}
	rng := rand.New(rand.NewSource(1))
	first := w.generate(rng) // empty pool: synthesized, then recorded
	for i := 0; i < 10; i++ {
		if got := w.generate(rng); !reflect.DeepEqual(got, first) {
			t.Fatalf("dup-fraction 1 synthesized a fresh request: %+v vs %+v", got, first)
		}
	}

	w.dupFraction = 0
	w.recent = nil
	for i := 0; i < 10; i++ {
		w.generate(rng)
	}
	if len(w.recent) != 0 {
		t.Fatalf("dup-fraction 0 recorded %d requests into the pool", len(w.recent))
	}
}

func TestPickToLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := &workload{nodes: 10000, locality: 50}
	for i := 0; i < 2000; i++ {
		from := rng.Intn(w.nodes)
		to := w.pickTo(rng, from)
		if to < 0 || to >= w.nodes {
			t.Fatalf("to %d out of range", to)
		}
		if d := to - from; d > 50 || d < -50 {
			t.Fatalf("to %d is %d away from %d, want within ±50", to, d, from)
		}
	}
	// Edges of the ID space stay in range.
	for _, from := range []int{0, 1, w.nodes - 1} {
		for i := 0; i < 100; i++ {
			if to := w.pickTo(rng, from); to < 0 || to >= w.nodes {
				t.Fatalf("boundary from %d drew to %d", from, to)
			}
		}
	}
	// Locality 0 and locality ≥ nodes are uniform: both must reach far nodes.
	w.locality = 0
	far := false
	for i := 0; i < 200 && !far; i++ {
		far = w.pickTo(rng, 0) > w.nodes/2
	}
	if !far {
		t.Fatal("locality 0 never drew a far node")
	}
}
