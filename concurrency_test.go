package kor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// concurrencyEngine builds one Engine over a mid-size road network, forced
// onto the lazy oracle so concurrent queries contend on the shared sweep
// cache — the configuration the concurrency refactor exists for.
func concurrencyEngine(t testing.TB) *Engine {
	t.Helper()
	g := SyntheticRoadNetwork(2012, 400)
	eng, err := NewEngine(g, &EngineConfig{Oracle: OracleLazy})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// concurrencyQueries derives feasible-looking queries from the graph itself:
// keywords are read off sampled nodes, so every query resolves.
func concurrencyQueries(t testing.TB, eng *Engine, n int) []Request {
	t.Helper()
	g := eng.Graph()
	rng := rand.New(rand.NewSource(7))
	queries := make([]Request, 0, n)
	for len(queries) < n {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		seen := map[string]bool{}
		var kws []string
		for len(kws) < 3 {
			v := NodeID(rng.Intn(g.NumNodes()))
			for _, term := range g.Terms(v) {
				name := g.Vocab().Name(term)
				if !seen[name] {
					seen[name] = true
					kws = append(kws, name)
				}
			}
		}
		queries = append(queries, Request{From: from, To: to, Keywords: kws[:3], Budget: 60})
	}
	return queries
}

type algoRun struct {
	name string
	algo Algorithm
	k    int
}

func mixedAlgos() []algoRun {
	return []algoRun{
		{"bucketbound", AlgorithmBucketBound, 0},
		{"osscaling", AlgorithmOSScaling, 0},
		{"greedy", AlgorithmGreedy, 0},
		{"topk", AlgorithmOSScaling, 3},
	}
}

// run answers q with the variant's algorithm and k.
func (a algoRun) run(e *Engine, ctx context.Context, q Request) (Response, error) {
	q.Algorithm, q.K = a.algo, a.k
	return e.Run(ctx, q)
}

// TestConcurrentSearches fires overlapping queries of every algorithm at a
// single shared Engine and checks each result against a sequential baseline
// computed on a fresh engine: concurrency must change neither safety (run
// with -race) nor answers (the algorithms are deterministic).
func TestConcurrentSearches(t *testing.T) {
	shared := concurrencyEngine(t)
	baseline := concurrencyEngine(t)
	queries := concurrencyQueries(t, shared, 6)
	algos := mixedAlgos()

	type key struct {
		algo  string
		query int
	}
	want := make(map[key]string)
	for qi, q := range queries {
		for _, a := range algos {
			res, err := a.run(baseline, context.Background(), q)
			want[key{a.name, qi}] = renderOutcome(res, err)
		}
	}

	// 4 algorithms × 6 queries = 24 concurrent searches (≥ 8), all against
	// one Engine and one lazy oracle.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for qi, q := range queries {
		for _, a := range algos {
			wg.Add(1)
			go func(a algoRun, qi int, q Request) {
				defer wg.Done()
				res, err := a.run(shared, context.Background(), q)
				got := renderOutcome(res, err)
				if got != want[key{a.name, qi}] {
					mu.Lock()
					t.Errorf("%s on query %d under concurrency:\n got %s\nwant %s",
						a.name, qi, got, want[key{a.name, qi}])
					mu.Unlock()
				}
			}(a, qi, q)
		}
	}
	// Concurrent Suggest calls share the same engine.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := shared.Suggest("t", 5); err != nil {
				mu.Lock()
				t.Errorf("concurrent Suggest: %v", err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// renderOutcome flattens a search outcome for comparison: the routes when it
// succeeded, the error text when it failed.
func renderOutcome(res Response, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	out := ""
	for _, r := range res.Routes {
		out += r.String() + "; "
	}
	return out
}

// TestSearchBatch checks the batch API returns exactly the single-query
// answers, in order, at several parallelism levels.
func TestSearchBatch(t *testing.T) {
	eng := concurrencyEngine(t)
	queries := concurrencyQueries(t, eng, 10)

	want := make([]string, len(queries))
	for i, q := range queries {
		r, err := eng.Run(context.Background(), q)
		if err != nil {
			want[i] = "error: " + err.Error()
		} else {
			want[i] = r.Best().String()
		}
	}

	requests := queries
	for _, par := range []int{0, 1, 4, 16} {
		results, err := eng.SearchBatch(context.Background(), requests, par)
		if err != nil {
			t.Fatalf("SearchBatch(par=%d): %v", par, err)
		}
		if len(results) != len(queries) {
			t.Fatalf("SearchBatch(par=%d) returned %d results for %d queries", par, len(results), len(queries))
		}
		for i, br := range results {
			got := br.Route().String()
			if br.Err != nil {
				got = "error: " + br.Err.Error()
			}
			if got != want[i] {
				t.Errorf("SearchBatch(par=%d) query %d:\n got %s\nwant %s", par, i, got, want[i])
			}
		}
	}
}

// TestSearchBatchCancelled: a cancelled context fails every query with a
// Canceled error and reports the cancellation at batch level too.
func TestSearchBatchCancelled(t *testing.T) {
	eng := concurrencyEngine(t)
	requests := concurrencyQueries(t, eng, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.SearchBatch(ctx, requests, 2)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("batch error = %v, want context.Canceled", err)
	}
	for i, br := range results {
		if !errors.Is(br.Err, context.Canceled) {
			t.Errorf("query %d error = %v, want context.Canceled", i, br.Err)
		}
	}
}

// TestSearchCtxCancelled: a single Run fails fast on a dead context, for
// every algorithm.
func TestSearchCtxCancelled(t *testing.T) {
	eng := concurrencyEngine(t)
	q := concurrencyQueries(t, eng, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range Algorithms() {
		q.Algorithm = algo
		if _, err := eng.Run(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: err = %v, want context.Canceled", algo, err)
		}
	}
}

// TestConcurrentDiskIndexSuggest exercises the disk-resident index path —
// B+-tree scans plus memoized posting reads — from many goroutines.
func TestConcurrentDiskIndexSuggest(t *testing.T) {
	g := SyntheticRoadNetwork(5, 150)
	path := t.TempDir() + "/idx.kidx"
	eng, err := NewEngine(g, &EngineConfig{Oracle: OracleLazy, IndexPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	queries := concurrencyQueries(t, eng, 4)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := eng.Suggest(fmt.Sprintf("t%d", w%3), 5); err != nil {
				errs <- err
				return
			}
			if _, err := eng.Run(context.Background(), queries[w%len(queries)]); err != nil && !errors.Is(err, ErrNoRoute) {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent disk-index use: %v", err)
	}
}
