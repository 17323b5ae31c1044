package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kor/internal/graph"
)

// countdownCtx is a context whose Err() starts reporting context.Canceled
// after a fixed number of polls. It makes "cancelled mid-search" a
// deterministic event instead of a timing race: the first poll happens in
// newPlan, later polls happen inside the search loops, so a countdown above
// 1 always fires strictly mid-search.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining--; c.remaining < 0 {
		return context.Canceled
	}
	return nil
}

// ctxTestGraph is a randomized strongly connected graph big enough that the
// label searches run thousands of loop iterations for a wide query.
func ctxTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	b := graph.NewBuilder()
	const n = 120
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("kw%d", i%12))
	}
	for i := 0; i < n; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 0.1+rng.Float64(), 0.1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64(), 0.1+rng.Float64())
	}
	return b.MustBuild()
}

func ctxTestQuery(t testing.TB, g *graph.Graph) Query {
	t.Helper()
	return Query{
		Source:   0,
		Target:   60,
		Keywords: terms(t, g, "kw1", "kw3", "kw5", "kw7", "kw9", "kw11"),
		Budget:   50,
	}
}

// ctxTestOptions slows convergence (fine scaling, no optimization
// strategy, top-k) so the label loops reliably run for thousands of
// iterations — room for the countdown context to fire mid-loop.
func ctxTestOptions() Options {
	opts := DefaultOptions()
	opts.Epsilon = 0.05
	opts.K = 4
	opts.DisableStrategy2 = true
	return opts
}

// TestSearchCancelledBeforeStart: an already-cancelled context fails every
// algorithm in newPlan, before any search work, with a Canceled error.
func TestSearchCancelledBeforeStart(t *testing.T) {
	g := ctxTestGraph(t)
	s := searcherFor(t, g, false)
	q := ctxTestQuery(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	runs := map[string]func() (Result, error){
		"OSScaling":   func() (Result, error) { return s.OSScalingCtx(ctx, q, DefaultOptions()) },
		"BucketBound": func() (Result, error) { return s.BucketBoundCtx(ctx, q, DefaultOptions()) },
		"Greedy":      func() (Result, error) { return s.GreedyCtx(ctx, q, DefaultOptions()) },
		"Exact":       func() (Result, error) { return s.ExactCtx(ctx, q, DefaultOptions()) },
		"BruteForce":  func() (Result, error) { return s.BruteForceCtx(ctx, q, 1000) },
	}
	for name, run := range runs {
		if _, err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestSearchCancelledMidway: a context that starts failing after the search
// has begun makes the label loops return context.Canceled from within.
func TestSearchCancelledMidway(t *testing.T) {
	g := ctxTestGraph(t)
	s := searcherFor(t, g, false)
	q := ctxTestQuery(t, g)

	// Sanity: uncancelled, the searches succeed and iterate far more often
	// than the countdown allows.
	res, err := s.OSScaling(q, ctxTestOptions())
	if err != nil {
		t.Fatalf("baseline OSScaling: %v", err)
	}
	if res.Metrics.LabelsDequeued < 8*ctxCheckEvery {
		t.Fatalf("baseline dequeued only %d labels; fixture too small for a mid-search poll", res.Metrics.LabelsDequeued)
	}

	runs := map[string]func(ctx context.Context) (Result, error){
		"OSScaling":   func(ctx context.Context) (Result, error) { return s.OSScalingCtx(ctx, q, ctxTestOptions()) },
		"BucketBound": func(ctx context.Context) (Result, error) { return s.BucketBoundCtx(ctx, q, ctxTestOptions()) },
		"Greedy":      func(ctx context.Context) (Result, error) { return s.GreedyCtx(ctx, q, ctxTestOptions()) },
		"Exact":       func(ctx context.Context) (Result, error) { return s.ExactCtx(ctx, q, ctxTestOptions()) },
	}
	for name, run := range runs {
		// The countdown survives the newPlan poll plus one in-loop poll, so
		// cancellation is observed strictly mid-search.
		ctx := &countdownCtx{Context: context.Background(), remaining: 2}
		if _, err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-search: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestDeadlineExceededSurfaces: an expired deadline is reported as
// context.DeadlineExceeded, distinguishable from plain cancellation.
func TestDeadlineExceededSurfaces(t *testing.T) {
	g := ctxTestGraph(t)
	s := searcherFor(t, g, false)
	q := ctxTestQuery(t, g)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancel()
	if _, err := s.OSScalingCtx(ctx, q, DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}
