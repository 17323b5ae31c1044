package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"kor/internal/graph"
)

// Cross-algorithm equivalence harness: property tests over seeded random
// small graphs pinning the algorithms to each other and to their proven
// bounds. This is the net under every hot-path change — label pooling,
// signature hashing, domination prefilters and candidate-subgraph sweeps
// must not move a single answer outside these relations:
//
//   - Exact and BruteForce agree on feasibility and on the optimal
//     objective;
//   - OSScaling's objective is within 1/(1−ε) of the optimum (Theorem 2);
//   - BucketBound's objective is within β/(1−ε) (Theorem 3);
//   - both label algorithms find a route whenever one exists;
//   - TopK results are sorted, deduplicated, feasible real routes.
//
// Both oracle flavours run: dense tables answer lookups directly, the lazy
// oracle goes through the bounded candidate-subgraph sweeps — so a
// divergence between the two code paths fails here too.

// bruteForceBudget keeps exhaustive enumeration tractable on the random
// graphs below.
const bruteForceCap = 600_000

func equivalenceTrial(t *testing.T, trial int, dense bool, rng *rand.Rand) bool {
	t.Helper()
	g := randomKeywordGraph(rng, 8+rng.Intn(7), 4)
	return equivalenceTrialOn(t, trial, g, dense, rng)
}

// equivalenceTrialOn runs the cross-algorithm relations over a prebuilt
// graph — the entry point the post-Apply harness shares.
func equivalenceTrialOn(t *testing.T, trial int, g *graph.Graph, dense bool, rng *rand.Rand) bool {
	t.Helper()
	s := searcherFor(t, g, dense)
	q := randomQuery(rng, g, 1+rng.Intn(2))
	q.Budget = 1 + rng.Float64()*2.5

	bf, errBF := s.BruteForce(q, bruteForceCap)
	if errors.Is(errBF, ErrSearchLimit) {
		return false // enumeration blew the cap; trial carries no signal
	}
	if errBF != nil && !errors.Is(errBF, ErrNoRoute) {
		t.Fatalf("trial %d: brute force: %v", trial, errBF)
	}

	ex, errEx := s.Exact(q, DefaultOptions())
	if (errBF == nil) != (errEx == nil) {
		t.Fatalf("trial %d: feasibility disagreement: bruteforce err=%v, exact err=%v", trial, errBF, errEx)
	}
	if errBF != nil {
		// No feasible route: the label algorithms must agree.
		if _, err := s.OSScaling(q, DefaultOptions()); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("trial %d: OSScaling found a route where none exists (err=%v)", trial, err)
		}
		if _, err := s.BucketBound(q, DefaultOptions()); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("trial %d: BucketBound found a route where none exists (err=%v)", trial, err)
		}
		return true
	}

	opt := bf.Best().Objective
	if diff := math.Abs(ex.Best().Objective - opt); diff > 1e-9 {
		t.Fatalf("trial %d: Exact=%v vs BruteForce=%v (diff %v)", trial, ex.Best().Objective, opt, diff)
	}
	verifyRoute(t, g, q, ex.Best(), "exact")

	for _, eps := range []float64{0.1, 0.5} {
		opts := DefaultOptions()
		opts.Epsilon = eps
		oss, err := s.OSScaling(q, opts)
		if err != nil {
			t.Fatalf("trial %d: OSScaling ε=%v: %v (optimum %v exists)", trial, eps, err, opt)
		}
		verifyRoute(t, g, q, oss.Best(), "osscaling")
		if bound := opt/(1-eps) + 1e-9; oss.Best().Objective > bound {
			t.Fatalf("trial %d: OSScaling ε=%v objective %v outside bound %v (opt %v)",
				trial, eps, oss.Best().Objective, bound, opt)
		}

		bb, err := s.BucketBound(q, opts)
		if err != nil {
			t.Fatalf("trial %d: BucketBound ε=%v: %v (optimum %v exists)", trial, eps, err, opt)
		}
		verifyRoute(t, g, q, bb.Best(), "bucketbound")
		if bound := opts.Beta*opt/(1-eps) + 1e-9; bb.Best().Objective > bound {
			t.Fatalf("trial %d: BucketBound ε=%v β=%v objective %v outside bound %v (opt %v)",
				trial, eps, opts.Beta, bb.Best().Objective, bound, opt)
		}
	}

	// TopK: sorted by objective, no duplicate node sequences, all feasible.
	kOpts := DefaultOptions()
	kOpts.K = 3
	topk, err := s.OSScaling(q, kOpts)
	if err != nil {
		t.Fatalf("trial %d: TopK: %v (optimum %v exists)", trial, err, opt)
	}
	sigs := make(map[string]bool)
	for i, r := range topk.Routes {
		verifyRoute(t, g, q, r, "topk")
		if !r.Feasible {
			t.Fatalf("trial %d: TopK route %d infeasible: %v", trial, i, r)
		}
		if i > 0 && topk.Routes[i-1].Objective > r.Objective+1e-9 {
			t.Fatalf("trial %d: TopK routes out of order: %v then %v", trial, topk.Routes[i-1], r)
		}
		sig := routeSignature(r)
		if sigs[sig] {
			t.Fatalf("trial %d: TopK returned duplicate route %v", trial, r)
		}
		sigs[sig] = true
	}
	return true
}

func TestEquivalenceDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	informative := 0
	for trial := 0; trial < 30; trial++ {
		if equivalenceTrial(t, trial, true, rng) {
			informative++
		}
	}
	if informative < 10 {
		t.Fatalf("only %d informative trials; generator drifted", informative)
	}
}

func TestEquivalenceLazyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5012))
	informative := 0
	for trial := 0; trial < 30; trial++ {
		if equivalenceTrial(t, trial, false, rng) {
			informative++
		}
	}
	if informative < 10 {
		t.Fatalf("only %d informative trials; generator drifted", informative)
	}
}

// randomDelta perturbs g the way a live feed would: attribute drift on a
// few existing edges, a keyword added (sometimes a brand-new vocabulary
// entry), a keyword removed, and with some luck a new edge. The delta is
// never empty — at least one attribute update is always present.
func randomDelta(t *testing.T, rng *rand.Rand, g *graph.Graph) graph.Delta {
	t.Helper()
	n := g.NumNodes()
	var d graph.Delta

	// Drift attributes on up to three random edges.
	for k := 0; k < 1+rng.Intn(3); k++ {
		v := graph.NodeID(rng.Intn(n))
		out := g.Out(v)
		if len(out) == 0 {
			continue
		}
		e := out[rng.Intn(len(out))]
		d.UpdateEdges = append(d.UpdateEdges, graph.EdgePatch{
			From: v, To: e.To,
			Objective: 0.1 + rng.Float64(),
			Budget:    0.1 + rng.Float64(),
		})
	}
	if len(d.UpdateEdges) == 0 {
		t.Fatal("random graph has an edgeless node 0 neighborhood; generator drifted")
	}

	// Keyword churn: one add (occasionally a brand-new word) and one remove,
	// both drawn from the graph's actual vocabulary.
	if names := g.Vocab().Names(); len(names) > 0 {
		kw := names[rng.Intn(len(names))]
		if rng.Intn(3) == 0 {
			kw = "fresh"
		}
		d.AddKeywords = append(d.AddKeywords, graph.KeywordPatch{
			Node: graph.NodeID(rng.Intn(n)), Keywords: []string{kw},
		})
		d.RemoveKeywords = append(d.RemoveKeywords, graph.KeywordPatch{
			Node: graph.NodeID(rng.Intn(n)), Keywords: []string{names[rng.Intn(len(names))]},
		})
	}

	// A new edge, when a missing pair turns up quickly.
	for attempt := 0; attempt < 8; attempt++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		exists := false
		for _, e := range g.Out(from) {
			if e.To == to {
				exists = true
				break
			}
		}
		if !exists {
			d.AddEdges = append(d.AddEdges, graph.EdgePatch{
				From: from, To: to,
				Objective: 0.1 + rng.Float64(), Budget: 0.1 + rng.Float64(),
			})
			break
		}
	}
	return d
}

// TestEquivalenceAfterApply runs the full cross-algorithm harness over
// graphs produced by Graph.Apply rather than a Builder: the live-update
// path must yield graphs on which every algorithm relation — Exact equals
// BruteForce, the label algorithms stay inside their proven bounds, TopK
// stays sorted and deduplicated — holds exactly as it does on built graphs.
// Both oracle flavours run, so the shared-storage CSRs feed the dense
// tables and the lazy bounded sweeps alike.
func TestEquivalenceAfterApply(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	informative := 0
	for trial := 0; trial < 24; trial++ {
		g := randomKeywordGraph(rng, 8+rng.Intn(7), 4)
		patched, err := g.Apply(randomDelta(t, rng, g))
		if err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		if patched.Fingerprint() == g.Fingerprint() {
			t.Fatalf("trial %d: delta did not change the fingerprint", trial)
		}
		if equivalenceTrialOn(t, trial, patched, trial%2 == 0, rng) {
			informative++
		}
	}
	if informative < 8 {
		t.Fatalf("only %d informative trials; generator drifted", informative)
	}
}

// TestEquivalenceStrategiesOff re-runs a slice of the harness with
// optimization strategy 2 disabled, pinning the optimized and plain label
// searches to the same answers.
func TestEquivalenceStrategiesOff(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		g := randomKeywordGraph(rng, 9, 4)
		s := searcherFor(t, g, trial%2 == 0)
		q := randomQuery(rng, g, 2)
		q.Budget = 1 + rng.Float64()*2

		on := DefaultOptions()
		off := DefaultOptions()
		off.DisableStrategy2 = true

		rOn, errOn := s.OSScaling(q, on)
		rOff, errOff := s.OSScaling(q, off)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("trial %d: strategies changed feasibility: %v vs %v", trial, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		// Deterministic regression pin: on these seeds the strategy does not
		// change the settled objective (they prune work, not answers), and
		// any hot-path change that moves one of them shows up here.
		if math.Abs(rOn.Best().Objective-rOff.Best().Objective) > 1e-9 {
			t.Fatalf("trial %d: strategies changed the answer: %v vs %v",
				trial, rOn.Best().Objective, rOff.Best().Objective)
		}
	}
}
