package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kor"
	"kor/internal/metrics"
	"kor/korapi"
)

// limitedServer builds a server with admission control and a registry, and
// hands back the pieces tests poke at. Like testServerEngine it serves from
// the lazy oracle, so no table swap moves the generation gauge.
func limitedServer(t *testing.T, maxInFlight, maxQueue int, queueWait time.Duration) (*httptest.Server, *server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	eng, err := kor.NewEngine(testGraph(t), &kor.EngineConfig{Oracle: kor.OracleLazy, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, serverConfig{
		timeout:     5 * time.Second,
		maxInFlight: maxInFlight,
		maxQueue:    maxQueue,
		queueWait:   queueWait,
		registry:    reg,
	})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts, s, reg
}

func TestLimiterAcquireRelease(t *testing.T) {
	l := newLimiter(2, 0, 10*time.Millisecond)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := l.inFlight(); got != 2 {
		t.Errorf("inFlight = %d, want 2", got)
	}
	// Full with no queue: immediate shed.
	if err := l.acquire(ctx); err != errSaturated {
		t.Fatalf("acquire on full limiter = %v, want errSaturated", err)
	}
	l.release()
	if err := l.acquire(ctx); err != nil {
		t.Fatalf("acquire after release = %v", err)
	}
}

// TestLimiterTryAcquireExtra: batch widening takes only free slots, never
// blocks, and releases them all.
func TestLimiterTryAcquireExtra(t *testing.T) {
	l := newLimiter(4, 0, time.Millisecond)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := l.tryAcquireExtra(10)
	if got != 3 {
		t.Errorf("tryAcquireExtra(10) with 3 free = %d", got)
	}
	if l.inFlight() != 4 {
		t.Errorf("inFlight = %d, want 4", l.inFlight())
	}
	if extra := l.tryAcquireExtra(1); extra != 0 {
		t.Errorf("tryAcquireExtra on a full limiter = %d, want 0", extra)
	}
	l.releaseExtra(got)
	l.release()
	if l.inFlight() != 0 {
		t.Errorf("inFlight after release = %d, want 0", l.inFlight())
	}
}

func TestLimiterQueueTimeout(t *testing.T) {
	l := newLimiter(1, 1, 20*time.Millisecond)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.acquire(context.Background()); err != errSaturated {
		t.Fatalf("queued acquire = %v, want errSaturated after the wait", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("queued acquire shed after %s, want it to wait ~20ms first", waited)
	}
}

func TestLimiterQueueCancel(t *testing.T) {
	l := newLimiter(1, 1, time.Minute)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.acquire(ctx) }()
	// Wait until the request is actually queued, then abandon it.
	waitFor(t, func() bool { return l.queued() == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("canceled queued acquire = %v, want context.Canceled", err)
	}
	if got := l.queued(); got != 0 {
		t.Errorf("queue depth after cancel = %d, want 0", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestServeSaturation drives more concurrent requests than the limit
// through the HTTP stack: one slot, one queue place, everything beyond that
// must come back as the 429 envelope with a Retry-After hint while the
// queue-depth gauge reports the waiter. When the slot frees, the queued
// request completes — saturation sheds load, it never corrupts it.
func TestServeSaturation(t *testing.T) {
	ts, s, _ := limitedServer(t, 1, 1, 10*time.Second)

	// Occupy the single slot so HTTP requests contend for the queue.
	if err := s.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			s.lim.release()
		}
	}()

	// One request queues behind the occupied slot.
	queued := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4")
		if err != nil {
			t.Error(err)
			queued <- nil
			return
		}
		queued <- resp
	}()
	waitFor(t, func() bool { return s.lim.queued() == 1 })

	// The queue-depth gauge sees the waiter.
	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "korserve_queue_depth 1\n") {
		t.Errorf("metrics do not report the queued request:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "korserve_inflight_requests 1\n") {
		t.Errorf("metrics do not report the in-flight slot:\n%s", sb.String())
	}

	// With slot and queue both full, the next request is shed immediately.
	resp, err := http.Get(ts.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	var env korapi.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("429 body %q is not an envelope: %v", body, err)
	}
	if env.Error.Code != korapi.CodeOverloaded {
		t.Errorf("429 code = %q, want %q", env.Error.Code, korapi.CodeOverloaded)
	}

	// Free the slot: the queued request must be admitted and answered.
	s.lim.release()
	released = true
	qresp := <-queued
	if qresp == nil {
		t.Fatal("queued request failed")
	}
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Errorf("queued request status = %d, want 200 once the slot freed", qresp.StatusCode)
	}

	// Admission counters saw all three outcomes paths: the shed request and
	// the admitted queued one.
	sb.Reset()
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`korserve_admission_total{outcome="rejected"} 1`,
		`korserve_admission_total{outcome="admitted"} 1`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

// TestServeOversaturationBurst fires a burst far over the limit and checks
// the invariant CI's oversaturation gate relies on: every response is
// either a success or a 429 envelope — the server sheds, it never errors or
// hangs.
func TestServeOversaturationBurst(t *testing.T) {
	ts, _, _ := limitedServer(t, 2, 2, 5*time.Millisecond)

	const n = 32
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("burst produced status %d, want only 200 or 429", c)
		}
	}
	if ok == 0 {
		t.Error("burst: no request succeeded")
	}
	t.Logf("burst: %d ok, %d shed", ok, shed)
}

// TestServeDrainOnShutdown: requests already admitted or queued when
// shutdown starts must complete before Shutdown returns — the limiter must
// not turn a graceful drain into dropped work.
func TestServeDrainOnShutdown(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, err := kor.NewEngine(testGraph(t), &kor.EngineConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, serverConfig{
		timeout:     5 * time.Second,
		maxInFlight: 1,
		maxQueue:    4,
		queueWait:   10 * time.Second,
		registry:    reg,
	})
	srv := httptest.NewServer(s.routes())

	// Fill the slot so the in-flight requests below are parked in the queue
	// when shutdown begins.
	if err := s.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const n = 3
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4")
			if err != nil {
				results <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.lim.queued() == n })

	// Begin the drain while they are still queued, then free the slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Config.SetKeepAlivesEnabled(false)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Config.Shutdown(ctx); err != nil {
			t.Errorf("shutdown did not drain cleanly: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown observe the in-flight conns
	s.lim.release()

	for i := 0; i < n; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("draining request %d finished with %d, want 200", i, code)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	srv.Close()
}

// TestServeMetricsEndpoint: GET /metrics renders the text exposition with
// both the engine's and the server's families after traffic has flowed.
func TestServeMetricsEndpoint(t *testing.T) {
	ts, _, _ := limitedServer(t, 8, 8, 100*time.Millisecond)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/route?from=0&to=0&keywords=jazz,park&budget=4")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	http.Get(ts.URL + "/v1/stats")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	out := string(body)
	for _, want := range []string{
		`korserve_http_requests_total{endpoint="route",code="200"} 3`,
		`kor_engine_requests_total{algorithm="bucketbound",outcome="ok"} 3`,
		"korserve_inflight_requests 0",
		"korserve_queue_depth 0",
		"kor_engine_snapshot_generation 1",
		`# TYPE korserve_http_request_seconds histogram`,
		`korserve_http_request_seconds_count{endpoint="route"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestServeNoMetricsRegistry: without a registry there is no /metrics
// endpoint and no instrumentation overhead.
func TestServeNoMetricsRegistry(t *testing.T) {
	ts := testServer(t, 5*time.Second)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without a registry = %d, want 404", resp.StatusCode)
	}
}
