package kor

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// BatchResult is one request's outcome within a SearchBatch call. Err
// carries the same per-request errors Run returns (ErrNoRoute,
// ErrUnknownKeyword, ErrBadQuery, a wrapped context error, ...); whether or
// not it is nil, Response holds whatever Run produced — for a greedy
// budget-overshoot that includes the violating routes.
type BatchResult struct {
	Response Response
	Err      error
}

// Route returns the best route of a successful result, or the zero Route
// when the request failed or found nothing.
func (b BatchResult) Route() Route {
	if len(b.Response.Routes) == 0 {
		return Route{}
	}
	return b.Response.Best()
}

// SearchBatch answers many requests concurrently against the shared engine
// substrates. Each request is self-describing, so one batch can mix
// algorithms and per-request options — a top-k OSScaling probe next to a
// fleet of default BucketBound queries. Results are returned in request
// order. parallelism bounds the worker pool; values < 1 mean GOMAXPROCS.
//
// Identical requests within the batch are deduplicated under the result
// layer's key, with keywords resolved against the snapshot current at batch
// entry: one representative runs and every duplicate receives a clone of its
// outcome, flagged Coalesced on the Response. Requests that cannot be keyed —
// a Tracer, an unknown algorithm or keyword, invalid options — run (and
// fail) individually. The remaining distinct requests are dispatched
// grouped by source (then target), so requests sharing endpoints run close
// together and, on a partitioned oracle, reuse each other's slices through
// its memo instead of merely running in parallel.
//
// Cancelling ctx stops the batch early: requests already running abort via
// their search loops' context polls, and requests not yet started fail
// immediately. The returned error is nil on a full run and the context's
// error when the batch was cut short; per-request failures are reported only
// through the BatchResult entries, never as a batch-level error.
func (e *Engine) SearchBatch(ctx context.Context, requests []Request, parallelism int) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(requests)
	if n == 0 {
		return nil, ctx.Err()
	}

	// Dedup by canonical key: rep[i] names the representative index whose
	// outcome request i shares; work lists the representatives to run.
	sn := e.snap.Load()
	rep := make([]int, n)
	byKey := make(map[string]int, n)
	work := make([]int, 0, n)
	for i, r := range requests {
		rep[i] = i
		if p, err := sn.prepare(r); err == nil {
			if k, ok := p.key(sn.info.Generation); ok {
				if j, seen := byKey[k]; seen {
					rep[i] = j
					continue
				}
				byKey[k] = i
			}
		}
		work = append(work, i)
	}
	// Same-source grouping: dispatch order is (From, To), stable, so plans
	// hitting the same endpoints are adjacent in the queue. Results still
	// land at their request index.
	slices.SortStableFunc(work, func(a, b int) int {
		if c := cmp.Compare(requests[a].From, requests[b].From); c != 0 {
			return c
		}
		return cmp.Compare(requests[a].To, requests[b].To)
	})

	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(work) {
		parallelism = len(work)
	}

	out := make([]BatchResult, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					out[i] = BatchResult{Err: fmt.Errorf("kor: batch request %d not started: %w", i, err)}
					continue
				}
				resp, err := e.Run(ctx, requests[i])
				out[i] = BatchResult{Response: resp, Err: err}
			}
		}()
	}
	for _, i := range work {
		next <- i
	}
	close(next)
	wg.Wait()

	// Fan representative outcomes out to their duplicates, in request order.
	for i := range requests {
		j := rep[i]
		if j == i {
			continue
		}
		resp, err := e.results.share(outcome{out[j].Response, out[j].Err})
		out[i] = BatchResult{Response: resp, Err: err}
		if e.met != nil {
			// Duplicates never entered Run: account for them here so the
			// request totals still count every batch item.
			e.met.observe(resp, err, 0)
		}
	}
	return out, ctx.Err()
}
