package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Algorithm names one of the package's search algorithms. The zero value
// selects the default (BucketBound, the paper's recommended speed/quality
// trade-off). Algorithm values double as the wire spelling: they are the
// strings clients put in requests.
type Algorithm string

// The registered algorithms.
const (
	// AlgorithmDefault resolves to AlgorithmBucketBound.
	AlgorithmDefault Algorithm = ""
	// AlgorithmBucketBound is the §3.3 bucket label search, bound β/(1−ε).
	AlgorithmBucketBound Algorithm = "bucketbound"
	// AlgorithmOSScaling is the §3.2 scaled label search, bound 1/(1−ε).
	AlgorithmOSScaling Algorithm = "osscaling"
	// AlgorithmGreedy is the §3.4 beam-greedy heuristic, no guarantee.
	AlgorithmGreedy Algorithm = "greedy"
	// AlgorithmTopK is the §3.5 KkR extension: OSScaling returning the K
	// best distinct routes (set Options.K).
	AlgorithmTopK Algorithm = "topk"
	// AlgorithmExact is the exact branch-and-bound; exponential worst case.
	AlgorithmExact Algorithm = "exact"
	// AlgorithmBruteForce is the exhaustive §3.2 baseline with only budget
	// pruning; for validation on small inputs.
	AlgorithmBruteForce Algorithm = "bruteforce"
)

// algorithmEntry describes one registered algorithm: how to run it and what
// approximation guarantee it carries.
type algorithmEntry struct {
	run func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error)
	// bound returns the approximation factor the algorithm guarantees on
	// the objective score under the given options; 0 means no guarantee,
	// 1 means exact.
	bound   func(opts Options) float64
	summary string
}

// registry maps canonical algorithm names to their entries. AlgorithmDefault
// and aliases are resolved by Canonical before lookup, so the map holds only
// canonical spellings. The map is populated at init and read-only afterwards,
// hence safe for concurrent use.
var registry = map[Algorithm]algorithmEntry{
	AlgorithmBucketBound: {
		run: func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error) {
			return s.BucketBoundCtx(ctx, q, opts)
		},
		bound:   func(o Options) float64 { return o.Beta / (1 - o.Epsilon) },
		summary: "bucket label search, bound β/(1−ε) (§3.3)",
	},
	AlgorithmOSScaling: {
		run: func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error) {
			return s.OSScalingCtx(ctx, q, opts)
		},
		bound:   func(o Options) float64 { return 1 / (1 - o.Epsilon) },
		summary: "scaled label search, bound 1/(1−ε) (§3.2)",
	},
	AlgorithmGreedy: {
		run: func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error) {
			return s.GreedyCtx(ctx, q, opts)
		},
		bound:   func(Options) float64 { return 0 },
		summary: "beam-greedy heuristic, no guarantee (§3.4)",
	},
	AlgorithmTopK: {
		run: func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error) {
			return s.OSScalingCtx(ctx, q, opts)
		},
		bound:   func(o Options) float64 { return 1 / (1 - o.Epsilon) },
		summary: "KkR top-k via OSScaling with k-domination (§3.5)",
	},
	AlgorithmExact: {
		run: func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error) {
			return s.ExactCtx(ctx, q, opts)
		},
		bound:   func(Options) float64 { return 1 },
		summary: "exact branch-and-bound; exponential worst case",
	},
	AlgorithmBruteForce: {
		run: func(ctx context.Context, s *Searcher, q Query, opts Options) (Result, error) {
			// The enumeration reads no tuning value but the cap; the options
			// are still checked, as every other algorithm's plan does.
			if _, err := opts.normalize(); err != nil {
				return Result{}, err
			}
			return s.BruteForceCtx(ctx, q, opts.MaxExpansions)
		},
		bound:   func(Options) float64 { return 1 },
		summary: "exhaustive baseline with budget pruning only",
	},
}

// Canonical resolves the default and normalizes case; the result is a
// registry key if and only if the algorithm is known.
func (a Algorithm) Canonical() Algorithm {
	switch c := Algorithm(strings.ToLower(strings.TrimSpace(string(a)))); c {
	case AlgorithmDefault:
		return AlgorithmBucketBound
	default:
		return c
	}
}

// Valid reports whether the algorithm (after canonicalization) is registered.
func (a Algorithm) Valid() bool {
	_, ok := registry[a.Canonical()]
	return ok
}

// String returns the canonical wire spelling.
func (a Algorithm) String() string { return string(a.Canonical()) }

// Summary is a one-line human description for listings and docs.
func (a Algorithm) Summary() string { return registry[a.Canonical()].summary }

// ParseAlgorithm resolves a wire spelling ("", "bucketbound", "osscaling",
// "greedy", "topk", "exact", "bruteforce", any case) to its Algorithm,
// or an ErrBadQuery-wrapped error naming the valid choices.
func ParseAlgorithm(s string) (Algorithm, error) {
	a := Algorithm(s).Canonical()
	if _, ok := registry[a]; !ok {
		return "", fmt.Errorf("%w: %w %q (valid: %s)",
			ErrBadQuery, ErrUnknownAlgorithm, s, strings.Join(algorithmNames(), ", "))
	}
	return a, nil
}

// Algorithms lists the registered algorithms in a stable order.
func Algorithms() []Algorithm {
	names := algorithmNames()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

func algorithmNames() []string {
	names := make([]string, 0, len(registry))
	for a := range registry {
		names = append(names, string(a))
	}
	sort.Strings(names)
	return names
}

// BoundFor returns the approximation factor algorithm a guarantees on the
// objective score under opts: 1 for the exact algorithms, β/(1−ε) or
// 1/(1−ε) for the label algorithms, 0 (no guarantee) for the heuristics and
// for unknown algorithms.
func BoundFor(a Algorithm, opts Options) float64 {
	e, ok := registry[a.Canonical()]
	if !ok {
		return 0
	}
	return e.bound(opts)
}

// Run dispatches the query to the named algorithm through the registry: the
// single entry point behind Engine.Run. An unknown algorithm fails with an
// ErrBadQuery wrap before any search work.
func (s *Searcher) Run(ctx context.Context, a Algorithm, q Query, opts Options) (Result, error) {
	entry, ok := registry[a.Canonical()]
	if !ok {
		return Result{}, fmt.Errorf("%w: %w %q (valid: %s)",
			ErrBadQuery, ErrUnknownAlgorithm, a, strings.Join(algorithmNames(), ", "))
	}
	return entry.run(ctx, s, q, opts)
}
