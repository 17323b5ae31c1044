package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"kor"
	"kor/bench/internal/load"
	"kor/bench/internal/stream"
	"kor/bench/internal/verify"
	"kor/korapi"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads, the Go tables are what the
// program reports: they must say the same thing, within the contract's
// limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", key)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
	if strings.Join(f.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s outside the contract: %+v", m.Name, m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, other := range f.EndToEnd {
				if other.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(f.PerLayer) != len(perLayer) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s outside the contract: %+v", m.Name, m)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	for _, w := range workloads {
		if got, ok := findWorkload(w.name); !ok || got.name != w.name {
			t.Errorf("findWorkload(%q) failed", w.name)
		}
		if w.warmQueries < 1 || w.traceSample < 1 || w.keywords < 1 || w.budget <= 0 {
			t.Errorf("%s: incomplete definition %+v", w.name, w)
		}
		if strings.HasSuffix(w.name, "-uniform") && (w.hot || w.local) {
			t.Errorf("%s: a uniform workload must not repeat or confine its stream", w.name)
		}
	}
	if _, ok := findWorkload("no-such"); ok {
		t.Error("unknown workload found")
	}
}

func TestLocalStreamStaysInsideTheDisc(t *testing.T) {
	w, _ := findWorkload("road-indexed-local")
	g, err := w.graph()
	if err != nil {
		t.Fatal(err)
	}
	spec := w.streamSpec(g)
	if len(spec.Pool) < 50 || len(spec.Pool) > g.NumNodes()/10 {
		t.Errorf("local pool holds %d of %d nodes", len(spec.Pool), g.NumNodes())
	}
	uniform, _ := findWorkload("road-lazy-uniform")
	if len(uniform.streamSpec(g).Pool) != 0 {
		t.Error("uniform stream has a pool")
	}
	repeat, _ := findWorkload("road-lazy-repeat")
	// Hits stay a minority small enough to keep the latency median well
	// inside the misses, and the warm-up covers the hot set the stream
	// opens with.
	if s := repeat.streamSpec(g); s.HotSet != 64 || s.HotShare <= 0 || s.HotShare > 0.35 || repeat.warmQueries < s.HotSet {
		t.Errorf("repeat stream: hot set %d at share %v after a warm-up of %d", s.HotSet, s.HotShare, repeat.warmQueries)
	}
}

// judgeFixture is a small road network with an engine that answers its
// stream honestly, so that samples can be forged from real answers.
func judgeFixture(t *testing.T) (*evaluator, *stream.Stream) {
	t.Helper()
	g := kor.SyntheticRoadNetwork(5, 500)
	w := workload{name: "test", dataset: "road", keywords: 2, budget: 14}
	st, err := stream.New(g, w.streamSpec(g), 1, "load")
	if err != nil {
		t.Fatal(err)
	}
	checker, err := verify.New(g)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(w, &fixture{g: g}, checker, st)
	if err != nil {
		t.Fatal(err)
	}
	return ev, st
}

// serve answers stream request i the way korserve would.
func serve(t *testing.T, ev *evaluator, st *stream.Stream, i int) load.Sample {
	t.Helper()
	q, err := st.At(i)
	if err != nil {
		t.Fatal(err)
	}
	req, err := q.Request.KorRequest()
	if err != nil {
		t.Fatal(err)
	}
	s := load.Sample{Index: i, End: time.Millisecond}
	resp, err := ev.full.Run(context.Background(), req)
	if apiErr := korapi.ErrorFrom(err); apiErr != nil {
		s.Status = apiErr.Code.HTTPStatus()
		s.Body, _ = json.Marshal(korapi.ErrorEnvelope{Error: *apiErr})
		return s
	}
	s.Status = http.StatusOK
	s.Body, _ = json.Marshal(korapi.ResponseFromKor(resp.Graph(), resp, false))
	return s
}

func TestJudgeCountsEveryKindOfFailure(t *testing.T) {
	ev, st := judgeFixture(t)
	var honest []load.Sample
	answered := -1
	for i := range 30 {
		s := serve(t, ev, st, i)
		honest = append(honest, s)
		if s.Status == http.StatusOK && answered < 0 {
			answered = i
		}
	}
	if answered < 0 {
		t.Fatal("no stream query was answered")
	}
	res := &result{}
	answers := ev.judge(context.Background(), res, honest)
	if res.failed != 0 || res.attempted != 30 {
		t.Fatalf("honest answers: %d of %d failed: %s", res.failed, res.attempted, res.firstFailure)
	}
	if len(answers) == 0 || len(answers) > 30 {
		t.Fatalf("%d answers from 30 honest samples", len(answers))
	}

	// A corrupted route: drop an interior node, keep the scores.
	var resp korapi.Response
	if err := json.Unmarshal(honest[answered].Body, &resp); err != nil {
		t.Fatal(err)
	}
	if n := len(resp.Routes[0].Nodes); n > 2 {
		resp.Routes[0].Nodes = append(resp.Routes[0].Nodes[:1], resp.Routes[0].Nodes[2:]...)
	} else {
		resp.Routes[0].Objective *= 2
	}
	corrupted := honest[answered]
	corrupted.Body, _ = json.Marshal(resp)

	deniedRoute := honest[answered]
	deniedRoute.Status = http.StatusNotFound
	deniedRoute.Body = []byte(`{"error":{"code":"no_route","message":"no feasible route exists"}}`)

	bad := []load.Sample{
		corrupted,
		deniedRoute,
		{Index: 1, Status: http.StatusTooManyRequests, Body: []byte(`{"error":{"code":"overloaded","message":"x"}}`)},
		{Index: 2, Status: http.StatusInternalServerError},
		{Index: 3, Err: context.DeadlineExceeded},
		{Index: 4, Status: http.StatusOK, Body: []byte(`{"routes":`)},
		{Index: 5, Status: http.StatusNotFound, Body: []byte(`{"error":{"code":"not_found","message":"x"}}`)},
	}
	for i, s := range bad {
		res := &result{}
		if got := ev.judge(context.Background(), res, []load.Sample{s}); res.failed != 1 || res.attempted != 1 || len(got) != 0 || res.firstFailure == "" {
			t.Errorf("bad sample %d: attempted=%d failed=%d answers=%d (%s)", i, res.attempted, res.failed, len(got), res.firstFailure)
		}
	}
}

func TestObjectiveRatioAgainstReference(t *testing.T) {
	ev, st := judgeFixture(t)
	var samples []load.Sample
	for i := range 40 {
		samples = append(samples, serve(t, ev, st, i))
	}
	answers := ev.judge(context.Background(), &result{}, samples)
	ratio, err := ev.objectiveRatio(context.Background(), answers)
	if err != nil {
		t.Fatal(err)
	}
	// Every algorithm's bound is at most β/(1−ε) = 2.4 times the optimum,
	// and the reference is within 1/0.9 of it.
	if ratio < 0.9 || ratio > 2.4 {
		t.Errorf("objective ratio %v outside what the algorithms' bounds allow", ratio)
	}
	// Doubling every served objective must double the ratio.
	for i := range answers {
		answers[i].resp.Routes[0].Objective *= 2
	}
	doubled, err := ev.objectiveRatio(context.Background(), answers)
	if err != nil {
		t.Fatal(err)
	}
	if d := doubled / ratio; d < 1.999 || d > 2.001 {
		t.Errorf("doubling the served objectives scaled the ratio by %v", d)
	}
}

func TestResultObjectShape(t *testing.T) {
	res := &result{attempted: 5, endToEnd: map[string]float64{}}
	for _, d := range endToEnd {
		res.endToEnd[d.name] = 1.5
	}
	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	err = printResult(res)
	os.Stdout = stdout
	wr.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted != 5 || got.Failed == nil || *got.Failed != 0 {
		t.Errorf("result object = %+v", got)
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, want every end-to-end metric (%d)", len(got.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := got.Metrics[d.name]; m.Unit != d.unit || m.Value != 1.5 {
			t.Errorf("metric %s printed as %+v", d.name, m)
		}
	}
}
