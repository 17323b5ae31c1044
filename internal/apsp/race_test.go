package apsp

import (
	"math/rand"
	"sync"
	"testing"

	"kor/internal/graph"
)

// TestLazyOracleConcurrent hammers one LazyOracle from many goroutines —
// score lookups, prefetch hints, frontiers and path materialization under a tiny cache
// that forces constant eviction — and checks every answer against the dense
// oracle. Run with -race this is the oracle-level concurrency safety proof.
func TestLazyOracleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomTestGraph(rng, 60, false)
	n := g.NumNodes()
	dense := NewMatrixOracle(g)
	lazy := NewLazyOracle(g)
	lazy.sweeps.cap = 4 // eviction churn on every few sweeps

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

// TestLazyOracleSingleFlight checks that concurrent queries needing the same
// missing sweep share one Dijkstra run rather than each running their own.
func TestLazyOracleSingleFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTestGraph(rng, 40, false)
	lazy := NewLazyOracle(g)

	const workers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(from graph.NodeID) {
			defer wg.Done()
			<-start
			lazy.MinObjective(from, 5) // all need the reverse τ sweep into 5
		}(graph.NodeID(w % g.NumNodes()))
	}
	close(start)
	wg.Wait()
	if got := lazy.SweepCount(); got != 1 {
		t.Errorf("32 concurrent queries into one target ran %d sweeps, want 1", got)
	}
}
