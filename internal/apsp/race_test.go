package apsp

import (
	"math/rand"
	"sync"
	"testing"

	"kor/internal/graph"
)

// TestLazyOracleConcurrent hammers one LazyOracle from many goroutines —
// score lookups, prefetch hints, frontiers, bounded sweeps and path
// materialization, all sharing the pooled scratch — and checks every answer
// against the dense oracle. Run with -race this is the oracle-level
// concurrency safety proof.
func TestLazyOracleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomTestGraph(rng, 60, false)
	n := g.NumNodes()
	dense := NewMatrixOracle(g)
	lazy := NewLazyOracle(g)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				from := graph.NodeID(r.Intn(n))
				to := graph.NodeID(r.Intn(n))
				switch i % 5 {
				case 0:
					PrefetchTarget(lazy, to)
				case 1:
					f := lazy.Frontier(from, Metric(r.Intn(2)), r.Intn(2) == 0)
					rootFirst := f.Next() && f.Order()[0] == from
					f.Close()
					if !rootFirst {
						errs <- "a frontier did not settle its root first"
						return
					}
				case 2:
					if path, ok := lazy.MinObjectivePath(from, to); ok && len(path) == 0 {
						errs <- "empty τ path"
						return
					}
				case 3:
					bound := r.Float64() * 4
					if got, want := lazy.ReverseSweep(to, ByBudget, bound, nil), ReverseBoundedSweep(g, to, ByBudget, bound); sameInsideBound(got, want, ByBudget, bound, n) != "" {
						errs <- "a bounded sweep differs from a private one under concurrency"
						return
					}
				}
				gotP, gotS, gotOK := lazy.MinObjective(from, to)
				wantP, wantS, wantOK := dense.MinObjective(from, to)
				if gotOK != wantOK || (gotOK && (!feq(gotP, wantP) || !feq(gotS, wantS))) {
					errs <- "τ mismatch under concurrency"
					return
				}
				gotP, gotS, gotOK = lazy.MinBudget(from, to)
				wantP, wantS, wantOK = dense.MinBudget(from, to)
				if gotOK != wantOK || (gotOK && (!feq(gotP, wantP) || !feq(gotS, wantS))) {
					errs <- "σ mismatch under concurrency"
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
