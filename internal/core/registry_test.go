package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// registryFixture is the Example-2 setting the whole registry suite runs on.
func registryFixture(t testing.TB) (*Searcher, Query) {
	t.Helper()
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	return s, Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: 8}
}

// TestRegistryCoversAllAlgorithms runs every registered algorithm through
// the dispatcher on the paper fixture and checks each produces the same
// answer as its direct method.
func TestRegistryCoversAllAlgorithms(t *testing.T) {
	s, q := registryFixture(t)
	opts := DefaultOptions()

	direct := map[Algorithm]func() (Result, error){
		AlgorithmBucketBound: func() (Result, error) { return s.BucketBound(q, opts) },
		AlgorithmOSScaling:   func() (Result, error) { return s.OSScaling(q, opts) },
		AlgorithmGreedy:      func() (Result, error) { return s.Greedy(q, opts) },
		AlgorithmTopK:        func() (Result, error) { return s.OSScaling(q, opts) },
		AlgorithmExact:       func() (Result, error) { return s.Exact(q, opts) },
		AlgorithmBruteForce:  func() (Result, error) { return s.BruteForce(q, opts.MaxExpansions) },
	}
	for _, a := range Algorithms() {
		want, wantErr := direct[a]()
		got, gotErr := s.Run(context.Background(), a, q, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: Run err = %v, direct err = %v", a, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Best().Objective != want.Best().Objective {
			t.Errorf("%s: Run objective %v != direct %v", a, got.Best().Objective, want.Best().Objective)
		}
	}
}

func TestRunDefaultIsBucketBound(t *testing.T) {
	s, q := registryFixture(t)
	def, err := s.Run(context.Background(), AlgorithmDefault, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := s.BucketBound(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if def.Best().Objective != bb.Best().Objective {
		t.Errorf("default algorithm objective %v != bucketbound %v", def.Best().Objective, bb.Best().Objective)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	s, q := registryFixture(t)
	_, err := s.Run(context.Background(), Algorithm("dijkstra"), q, DefaultOptions())
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unknown algorithm err = %v, want ErrBadQuery wrap", err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"", AlgorithmBucketBound, true},
		{"bucketbound", AlgorithmBucketBound, true},
		{"OSScaling", AlgorithmOSScaling, true},
		{"  greedy ", AlgorithmGreedy, true},
		{"topk", AlgorithmTopK, true},
		{"exact", AlgorithmExact, true},
		{"bruteforce", AlgorithmBruteForce, true},
		{"astar", "", false},
	}
	for _, c := range cases {
		got, err := ParseAlgorithm(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && !errors.Is(err, ErrBadQuery) {
			t.Errorf("ParseAlgorithm(%q) err = %v, want ErrBadQuery wrap", c.in, err)
		}
	}
}

func TestBoundFor(t *testing.T) {
	opts := DefaultOptions() // ε=0.5, β=1.2
	if got := BoundFor(AlgorithmOSScaling, opts); got != 2.0 {
		t.Errorf("OSScaling bound = %v, want 2", got)
	}
	if got := BoundFor(AlgorithmBucketBound, opts); got < 2.39 || got > 2.41 {
		t.Errorf("BucketBound bound = %v, want 2.4", got)
	}
	if got := BoundFor(AlgorithmGreedy, opts); got != 0 {
		t.Errorf("Greedy bound = %v, want 0 (no guarantee)", got)
	}
	if got := BoundFor(AlgorithmExact, opts); got != 1 {
		t.Errorf("Exact bound = %v, want 1", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatalf("DefaultOptions fails Validate: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.Epsilon = 0 },
		func(o *Options) { o.Epsilon = 1 },
		func(o *Options) { o.Epsilon = -0.2 },
		func(o *Options) { o.Epsilon = math.NaN() },
		func(o *Options) { o.Beta = 1 },
		func(o *Options) { o.Beta = 0.5 },
		func(o *Options) { o.Beta = math.NaN() },
		func(o *Options) { o.Beta = math.Inf(1) },
		func(o *Options) { o.Alpha = -0.1 },
		func(o *Options) { o.Alpha = 1.5 },
		func(o *Options) { o.Alpha = math.NaN() },
		func(o *Options) { o.K = 0 },
		func(o *Options) { o.K = MaxK + 1 },
		func(o *Options) { o.Width = 0 },
		func(o *Options) { o.Width = MaxWidth + 1 },
		func(o *Options) { o.MaxExpansions = defaultMaxExpansions + 1 },
		func(o *Options) { o.MaxExpansions = 1 << 62 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); !errors.Is(err, ErrBadQuery) {
			t.Errorf("case %d: Validate = %v, want ErrBadQuery wrap", i, err)
		}
	}
}

// TestRunRejectsNaNOptions: a NaN ε, β or α, or β = +Inf, is a bad query
// for every algorithm on every oracle. NaN fails every comparison, so range
// checks written as "reject when out of range" let it through; with α = NaN
// Greedy ranked on NaN scores and its lazy arm's stop rule never fired.
func TestRunRejectsNaNOptions(t *testing.T) {
	g := paperGraph(t)
	q := Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: 10}
	bad := map[string]func(*Options){
		"epsilon NaN": func(o *Options) { o.Epsilon = math.NaN() },
		"beta NaN":    func(o *Options) { o.Beta = math.NaN() },
		"beta +Inf":   func(o *Options) { o.Beta = math.Inf(1) },
		"alpha NaN":   func(o *Options) { o.Alpha = math.NaN() },
	}
	for _, dense := range []bool{false, true} {
		s := searcherFor(t, g, dense)
		for name, mutate := range bad {
			opts := DefaultOptions()
			mutate(&opts)
			for _, a := range Algorithms() {
				if _, err := s.Run(context.Background(), a, q, opts); !errors.Is(err, ErrBadQuery) {
					t.Errorf("dense=%v %s with %s: err = %v, want ErrBadQuery", dense, a, name, err)
				}
			}
		}
	}
}

// TestRunRejectsNonFiniteBudget: a budget limit that is not finite and
// positive is a bad query for every algorithm on every oracle. NaN fails
// every comparison, so a check for Δ ≤ 0 alone let it through, and +Inf
// scaled θ = ε·o_min·b_min/Δ down to 0.
func TestRunRejectsNonFiniteBudget(t *testing.T) {
	g := paperGraph(t)
	for _, dense := range []bool{false, true} {
		s := searcherFor(t, g, dense)
		for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
			q := Query{Source: 0, Target: 7, Keywords: terms(t, g, "t1", "t2"), Budget: budget}
			for _, a := range Algorithms() {
				if _, err := s.Run(context.Background(), a, q, DefaultOptions()); !errors.Is(err, ErrBadQuery) {
					t.Errorf("dense=%v %s with Δ = %v: err = %v, want ErrBadQuery", dense, a, budget, err)
				}
			}
		}
	}
}
