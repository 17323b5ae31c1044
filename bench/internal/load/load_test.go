package load

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kor"
	"kor/bench/internal/stream"
)

func testStream(t *testing.T) *stream.Stream {
	t.Helper()
	st, err := stream.New(kor.SyntheticRoadNetwork(3, 400), stream.Spec{Keywords: 2, Budget: 12, Planar: true}, 1, "load")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDueTime(t *testing.T) {
	if got := DueTime(0, 100); got != 0 {
		t.Errorf("request 0 due at %v", got)
	}
	if got := DueTime(250, 100); got != 2500*time.Millisecond {
		t.Errorf("request 250 at 100/s due at %v", got)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	s := Sample{Due: 10 * time.Millisecond, Start: 60 * time.Millisecond, End: 65 * time.Millisecond}
	if got := s.Latency(); got != 55*time.Millisecond {
		t.Errorf("latency = %v, want the 50 ms queued plus the 5 ms served", got)
	}
}

// An open loop keeps its schedule through a stall, and charges the stall to
// the requests that were due during it.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall) // the first request blocks the only connection
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	origin := time.Now()
	samples, lag, err := Open(context.Background(), srv.URL, 1, testStream(t), 100, 0, origin, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 || len(lag) != 10 {
		t.Fatalf("%d samples, %d lags; want 10 each", len(samples), len(lag))
	}
	for k, s := range samples {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", k, s.Status, s.Err)
		}
		if s.Due != DueTime(k, 100) {
			t.Errorf("request %d due %v, want %v", k, s.Due, DueTime(k, 100))
		}
		if lag[k] < 0 || lag[k] > 50*time.Millisecond {
			t.Errorf("request %d dispatched %v late: the generator followed the server's stall", k, lag[k])
		}
	}
	// Request 5 was due at 50 ms, while the connection was blocked until
	// 150 ms: its own service took microseconds, its latency is the wait.
	if got := samples[5].Latency(); got < 80*time.Millisecond {
		t.Errorf("request 5 latency %v: the stall was not charged from its due time", got)
	}
}

func TestClosedLoopWarmUpIsACount(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		time.Sleep(time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	var opened atomic.Int64
	origin := time.Now()
	const warm, window = 20, 100 * time.Millisecond
	samples, next, windowStart, err := Closed(context.Background(), srv.URL, testStream(t), 2, warm, origin, window, func() { opened.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if opened.Load() != 1 {
		t.Errorf("window opened %d times", opened.Load())
	}
	if next != len(samples) || int64(next) != served.Load() {
		t.Errorf("next=%d, %d samples, %d served", next, len(samples), served.Load())
	}
	seen := make(map[int]bool)
	inWindow := 0
	for _, s := range samples {
		if seen[s.Index] {
			t.Fatalf("stream index %d sent twice", s.Index)
		}
		seen[s.Index] = true
		if s.Due != s.Start {
			t.Errorf("closed-loop request %d: due %v differs from start %v", s.Index, s.Due, s.Start)
		}
		if s.Index >= warm {
			inWindow++
			// The window opens as request number warm starts; its
			// neighbour on the other client may start a moment earlier.
			if s.Start < windowStart-5*time.Millisecond || s.Start > windowStart+window {
				t.Errorf("request %d started at %v, window is [%v, %v]", s.Index, s.Start, windowStart, windowStart+window)
			}
		}
	}
	for i := range next {
		if !seen[i] {
			t.Errorf("stream index %d skipped", i)
		}
	}
	if inWindow < 20 {
		t.Errorf("only %d requests in a 100 ms window of ~1 ms requests", inWindow)
	}
}

func TestClosedLoopZeroWindowStopsAfterWarmUp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{}`)) }))
	defer srv.Close()
	samples, next, _, err := Closed(context.Background(), srv.URL, testStream(t), 2, 30, time.Now(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next < 30 || next > 32 || len(samples) != next {
		t.Errorf("warm-up of 30 sent %d requests (%d samples)", next, len(samples))
	}
}

// A Conn sends what net/http would, reads bodies of either framing, and
// survives the server closing the connection under it.
func TestConnPost(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/route" || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("got %s %s, Content-Type %q", r.Method, r.URL.Path, r.Header.Get("Content-Type"))
		}
		switch string(body) {
		case "chunked":
			w.Write([]byte("first,"))
			w.(http.Flusher).Flush() // forces chunked transfer encoding
			w.Write([]byte("second"))
		case "close":
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte("bye"))
		default:
			w.Write(body)
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c, err := NewConn(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		send, want string
		status     int
	}{
		{`{"from":1}`, `{"from":1}`, 200},
		{"chunked", "first,second", 200},
		{"close", "bye", 404},
		{"again", "again", 200},
	} {
		status, body, err := c.Post([]byte(tc.send))
		if err != nil || status != tc.status || string(body) != tc.want {
			t.Errorf("Post(%q) = %d %q, %v; want %d %q", tc.send, status, body, err, tc.status, tc.want)
		}
	}
	if got := conns.Load(); got != 2 {
		t.Errorf("%d connections opened, want 2: one kept alive until the server closed it, one after", got)
	}
	if _, err := NewConn("localhost:80"); err == nil {
		t.Error("NewConn accepted a URL without a scheme")
	}
}

func TestChurnFollowsItsScheduleAndStopsOnCancel(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 175*time.Millisecond)
	defer cancel()
	origin := time.Now()
	patches := Churn(ctx, NewClient(1), srv.URL, [][]byte{[]byte("add"), []byte("remove")},
		[]time.Duration{0, 20 * time.Millisecond}, 50*time.Millisecond, origin)
	mu.Lock()
	defer mu.Unlock()
	// Due at 50, 70, 100, 120, 150, 170 ms; cancelled at 175.
	if len(patches) < 5 || len(patches) > 6 {
		t.Fatalf("%d patches before the cancel, want 5 or 6", len(patches))
	}
	want := []time.Duration{50, 70, 100, 120, 150, 170}
	for k, p := range patches {
		if p.Err != nil || p.Status != http.StatusOK {
			t.Errorf("patch %d: status %d, %v", k, p.Status, p.Err)
		}
		if due := want[k] * time.Millisecond; p.At < due || p.At > due+25*time.Millisecond {
			t.Errorf("patch %d sent at %v, due %v", k, p.At, due)
		}
		if wantBody := []string{"add", "remove"}[k%2]; bodies[k] != wantBody {
			t.Errorf("patch %d carried %q, want %q", k, bodies[k], wantBody)
		}
	}
}
