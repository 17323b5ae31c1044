// Package load drives POST /v1/route against a server: a closed loop of a
// fixed number of clients, or an open loop on a fixed schedule. It records
// one Sample per request and interprets nothing — status codes and bodies
// are judged after the window, off the clock.
package load

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kor/bench/internal/stream"
)

// Sample is one request's outcome. Times are offsets from the run's origin.
type Sample struct {
	// Index is the request's position in the stream.
	Index int
	// Due is when the request was scheduled to be sent. In a closed loop it
	// equals Start; in an open loop latency counts from it, so a stall is
	// charged to the requests queued behind it.
	Due time.Duration
	// Start and End bracket the HTTP exchange, body read included.
	Start, End time.Duration
	// Status is the HTTP status, 0 on a transport failure.
	Status int
	// Body is the response body.
	Body []byte
	// Err is the transport or stream failure, nil otherwise.
	Err error
}

// Latency is the client-side latency the sample is charged with.
func (s Sample) Latency() time.Duration { return s.End - s.Due }

// NewClient returns an HTTP client for the admin and stats endpoints, holding
// at most conns connections to the server, kept alive across requests.
func NewClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends one stream request and fills in everything but Due.
func post(conn *Conn, st *stream.Stream, index int, origin time.Time) Sample {
	s := Sample{Index: index}
	q, err := st.At(index)
	if err != nil {
		s.Err = err
		return s
	}
	s.Start = time.Since(origin)
	s.Status, s.Body, s.Err = conn.Post(q.Body)
	s.End = time.Since(origin)
	return s
}

// Closed runs clients concurrent clients, each on a connection of its own to
// the server at url, each sending its next request as soon as the previous
// one completes, taking stream indices in order. The
// first warm requests are the warm-up: a fixed count, not a fixed time, so
// that the server's caches hold the same entries when the window opens
// whatever the machine's speed. The window opens when request number warm
// starts (opened, if non-nil, is called then) and no request starts once it
// has been open for window; requests in flight then complete and are
// included. Samples come back in no particular order, times as offsets from
// origin; next is the first stream index not taken and windowStart when the
// window opened.
func Closed(ctx context.Context, url string, st *stream.Stream, clients, warm int, origin time.Time, window time.Duration, opened func()) (samples []Sample, next int, windowStart time.Duration, err error) {
	conns, err := dial(url, clients)
	if err != nil {
		return nil, 0, 0, err
	}
	var taken, opensAt atomic.Int64 // opensAt in ns since origin, 0 = not yet open
	perClient := make([][]Sample, clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conns[c].Close()
			for ctx.Err() == nil {
				i := int(taken.Add(1) - 1)
				if i == warm {
					opensAt.Store(int64(time.Since(origin)) + 1)
					if opened != nil {
						opened()
					}
				}
				if t0 := opensAt.Load(); t0 != 0 && time.Since(origin) >= time.Duration(t0)+window {
					taken.Add(-1)
					return
				}
				s := post(conns[c], st, i, origin)
				s.Due = s.Start
				perClient[c] = append(perClient[c], s)
			}
		}()
	}
	wg.Wait()
	for _, ss := range perClient {
		samples = append(samples, ss...)
	}
	return samples, int(taken.Load()), time.Duration(opensAt.Load()), nil
}

// dial prepares n connections to the server at url.
func dial(url string, n int) ([]*Conn, error) {
	conns := make([]*Conn, n)
	for i := range conns {
		var err error
		if conns[i], err = NewConn(url); err != nil {
			return nil, err
		}
	}
	return conns, nil
}

// Open sends request k (stream index first+k) at origin + k/rate regardless
// of whether earlier ones have completed, for every k due before until.
// Each request runs on its own goroutine and waits for one of conns
// connections; that wait is part of the request's latency. lag holds, per
// request, how late the generator itself dispatched it.
func Open(ctx context.Context, url string, conns int, st *stream.Stream, rate float64, first int, origin time.Time, until time.Duration) (samples []Sample, lag []time.Duration, err error) {
	all, err := dial(url, conns)
	if err != nil {
		return nil, nil, err
	}
	idle := make(chan *Conn, conns)
	for _, c := range all {
		idle <- c
	}
	n := int(until.Seconds() * rate)
	samples = make([]Sample, n)
	lag = make([]time.Duration, n)
	var wg sync.WaitGroup
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := DueTime(k, rate)
		if wait := due - time.Since(origin); wait > 0 {
			time.Sleep(wait)
		}
		lag[k] = time.Since(origin) - due
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := <-idle
			s := post(conn, st, first+k, origin)
			idle <- conn
			s.Due = due
			samples[k] = s
		}()
	}
	wg.Wait()
	for _, c := range all {
		c.Close()
	}
	return samples, lag, nil
}

// DueTime is when request k of a rate-per-second schedule is due.
func DueTime(k int, rate float64) time.Duration {
	return time.Duration(float64(k) / rate * float64(time.Second))
}

// Patch is one admin patch's outcome.
type Patch struct {
	// At is when the patch was sent; Took how long the server needed to
	// answer it, the new snapshot built and published.
	At, Took time.Duration
	// Status is the HTTP status, 0 on a transport failure.
	Status int
	Err    error
}

// Churn posts to /v1/admin/patch on a repeating schedule: in every period,
// bodies[j] is due offsets[j] after the period starts. The first period
// starts one period after origin. Patches are sequential: a slow one delays
// the next instead of overlapping it. Cancelling ctx ends the schedule; a
// patch in flight at that moment is not reported.
func Churn(ctx context.Context, client *http.Client, url string, bodies [][]byte, offsets []time.Duration, period time.Duration, origin time.Time) []Patch {
	var patches []Patch
	for k := 0; ; k++ {
		due := time.Duration(k/len(bodies)+1)*period + offsets[k%len(bodies)]
		select {
		case <-ctx.Done():
			return patches
		case <-time.After(due - time.Since(origin)):
		}
		p := Patch{At: time.Since(origin)}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/admin/patch", bytes.NewReader(bodies[k%len(bodies)]))
		if err != nil {
			p.Err = err
			patches = append(patches, p)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if ctx.Err() != nil {
			// Cancelled mid-patch: the schedule was stopped, not the server.
			if err == nil {
				resp.Body.Close()
			}
			return patches
		}
		if err != nil {
			p.Err = err
		} else {
			_, p.Err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			p.Status = resp.StatusCode
		}
		p.Took = time.Since(origin) - p.At
		patches = append(patches, p)
	}
}
