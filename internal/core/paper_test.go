package core

import (
	"errors"
	"math"
	"testing"

	"kor/internal/bitset"
	"kor/internal/graph"
)

// TestSection2QueryExamples replays the two KOR queries of §2: for
// Q = ⟨v0, v7, {t1,t2,t3}, 8⟩ the optimal route is ⟨v0,v3,v4,v7⟩ with
// OS 4 / BS 7; tightening Δ to 6 moves the optimum to ⟨v0,v3,v5,v7⟩ with
// OS 9 / BS 5.
func TestSection2QueryExamples(t *testing.T) {
	g := paperGraphMultiV7(t)
	for _, dense := range []bool{false, true} {
		s := searcherFor(t, g, dense)
		kws := terms(t, g, "t1", "t2", "t3")

		res, err := s.Exact(Query{Source: 0, Target: 7, Keywords: kws, Budget: 8}, DefaultOptions())
		if err != nil {
			t.Fatalf("dense=%v Exact Δ=8: %v", dense, err)
		}
		best := res.Best()
		wantNodes(t, best, 0, 3, 4, 7)
		if best.Objective != 4 || best.Budget != 7 {
			t.Errorf("Δ=8 route scores = %v/%v, want 4/7", best.Objective, best.Budget)
		}
		if !best.Feasible || !best.CoversAll {
			t.Errorf("Δ=8 route flags = %+v", best)
		}

		res, err = s.Exact(Query{Source: 0, Target: 7, Keywords: kws, Budget: 6}, DefaultOptions())
		if err != nil {
			t.Fatalf("dense=%v Exact Δ=6: %v", dense, err)
		}
		best = res.Best()
		wantNodes(t, best, 0, 3, 5, 7)
		if best.Objective != 9 || best.Budget != 5 {
			t.Errorf("Δ=6 route scores = %v/%v, want 9/5", best.Objective, best.Budget)
		}

		// Both approximation algorithms must find the same optima here: the
		// second-best feasible routes are far outside their bounds.
		for name, run := range map[string]func(Query, Options) (Result, error){
			"OSScaling":   s.OSScaling,
			"BucketBound": s.BucketBound,
		} {
			res, err := run(Query{Source: 0, Target: 7, Keywords: kws, Budget: 8}, DefaultOptions())
			if err != nil {
				t.Fatalf("%s Δ=8: %v", name, err)
			}
			if res.Best().Objective != 4 {
				t.Errorf("%s Δ=8 objective = %v, want 4", name, res.Best().Objective)
			}
			res, err = run(Query{Source: 0, Target: 7, Keywords: kws, Budget: 6}, DefaultOptions())
			if err != nil {
				t.Fatalf("%s Δ=6: %v", name, err)
			}
			if res.Best().Objective != 9 {
				t.Errorf("%s Δ=6 objective = %v, want 9", name, res.Best().Objective)
			}
		}
	}
}

// traceRecorder captures label events for trace assertions.
type traceRecorder struct {
	events []TraceEvent
}

func (r *traceRecorder) Trace(e TraceEvent) { r.events = append(r.events, e) }

func (r *traceRecorder) created() []LabelView {
	var out []LabelView
	for _, e := range r.events {
		if e.Kind == TraceCreated {
			out = append(out, e.Label)
		}
	}
	return out
}

// TestExample2Trace replays Example 2 of the paper: Q = ⟨v0, v7, {t1,t2},
// 10⟩ with ε = 0.5 on the Figure-1 graph. θ = 1/20, so Table 1's scaled
// scores are 20× the objective scores. Every label of Table 1 must be
// created with exactly the paper's (λ, ŌS, OS, BS) contents, and the final
// answer must be R1 = ⟨v0,v2,v3,v4,v7⟩ with OS 6, BS 10.
func TestExample2Trace(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	rec := &traceRecorder{}
	opts := DefaultOptions()
	opts.Epsilon = 0.5
	opts.Tracer = rec
	// The paper's walkthrough does not include the optimization strategies.
	opts.DisableStrategy2 = true

	kws := terms(t, g, "t1", "t2") // bit 0 = t1, bit 1 = t2
	res, err := s.OSScaling(Query{Source: 0, Target: 7, Keywords: kws, Budget: 10}, opts)
	if err != nil {
		t.Fatalf("OSScaling: %v", err)
	}
	best := res.Best()
	wantNodes(t, best, 0, 2, 3, 4, 7)
	if best.Objective != 6 || best.Budget != 10 {
		t.Fatalf("route scores = %v/%v, want 6/10 (R1 of Example 2)", best.Objective, best.Budget)
	}

	// Table 1, with masks over (bit0=t1, bit1=t2). λ intersects the query
	// keywords only, exactly as the table prints them.
	t1 := bitset.New(0)
	t2 := bitset.New(1)
	both := bitset.New(0, 1)
	none := bitset.Mask(0)
	wantLabels := []LabelView{
		{Node: 1, Covered: none, ScaledOS: 80, OS: 4, BS: 1},  // L0_1
		{Node: 2, Covered: t2, ScaledOS: 20, OS: 1, BS: 3},    // L0_2
		{Node: 3, Covered: t1, ScaledOS: 40, OS: 2, BS: 2},    // L0_3
		{Node: 3, Covered: both, ScaledOS: 80, OS: 4, BS: 5},  // L1_3 via v2
		{Node: 6, Covered: both, ScaledOS: 40, OS: 2, BS: 4},  // L0_6 (pruned: 4+7 > 10)
		{Node: 1, Covered: t1, ScaledOS: 60, OS: 3, BS: 4},    // L1_1 via v3
		{Node: 4, Covered: t1, ScaledOS: 60, OS: 3, BS: 4},    // L0_4
		{Node: 5, Covered: both, ScaledOS: 100, OS: 5, BS: 4}, // L0_5
	}
	created := rec.created()
	for _, want := range wantLabels {
		found := false
		for _, got := range created {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Table-1 label %+v never created; created: %+v", want, created)
		}
	}

	// L0_6 must be pruned by the budget condition: BS 4 + BS(σ(6,7)) 7 > 10.
	prunedL06 := false
	for _, e := range rec.events {
		if e.Kind == TracePrunedBudget && e.Label.Node == 6 && e.Label.BS == 4 {
			prunedL06 = true
		}
	}
	if !prunedL06 {
		t.Error("L0_6 was not budget-pruned as in Example 2 step (b)")
	}

	// Dequeue order of Example 2: L0_0 at v0, then L0_2 ≺ L0_3 ≺ L0_1.
	var dequeued []graph.NodeID
	for _, e := range rec.events {
		if e.Kind == TraceDequeued {
			dequeued = append(dequeued, e.Label.Node)
		}
	}
	if len(dequeued) < 3 || dequeued[0] != 0 || dequeued[1] != 2 || dequeued[2] != 3 {
		t.Errorf("dequeue order = %v, want it to start [0 2 3]", dequeued)
	}

	// The first upper bound must be U = 6, from L1_3 completed by τ(3,7)
	// (step (c): R1 with OS(R1) = 6).
	for _, e := range rec.events {
		if e.Kind == TraceUpperBound {
			if e.U != 6 {
				t.Errorf("first upper bound = %v, want 6", e.U)
			}
			break
		}
	}
}

// TestExample1Labels verifies the two label contents of Example 1: the
// paths v0→v2→v3→v4 and v0→v2→v6→v5→v4 produce labels (…,100,5,7) and
// (…,120,6,11) under Δ=10, ε=0.5 (θ=1/20). The second exceeds any feasible
// completion and is only observable through creation events with a large Δ,
// so the check recomputes the arithmetic directly on the fixture.
func TestExample1Labels(t *testing.T) {
	g := paperGraph(t)
	sumPath := func(nodes ...graph.NodeID) (os, bs float64) {
		for i := 1; i < len(nodes); i++ {
			found := false
			for _, e := range g.Out(nodes[i-1]) {
				if e.To == nodes[i] {
					os += e.Objective
					bs += e.Budget
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("fixture lost edge %d→%d", nodes[i-1], nodes[i])
			}
		}
		return os, bs
	}
	os, bs := sumPath(0, 2, 3, 4)
	if os != 5 || bs != 7 {
		t.Errorf("R1 of Example 1 = %v/%v, want 5/7", os, bs)
	}
	theta := 0.5 * 1 * 1 / 10.0 // ε·o_min·b_min/Δ = 1/20 per Example 1
	if got := math.Floor(os / theta); got != 100 {
		t.Errorf("scaled OS of R1 = %v, want 100", got)
	}
	os, bs = sumPath(0, 2, 6, 5, 4)
	if os != 6 || bs != 11 {
		t.Errorf("R2 of Example 1 = %v/%v, want 6/11", os, bs)
	}
	if got := math.Floor(os / theta); got != 120 {
		t.Errorf("scaled OS of R2 = %v, want 120", got)
	}
}

// TestDeltaSevenEnqueuesL05 checks the parenthetical in Example 2 step (e):
// with Δ=7 the completion of L0_5 through τ(5,7) busts the budget, so the
// label is enqueued instead, and the answer becomes ⟨v0,v3,v5,v7⟩.
func TestDeltaSevenEnqueuesL05(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	opts := DefaultOptions()
	opts.DisableStrategy2 = true
	kws := terms(t, g, "t1", "t2")
	res, err := s.OSScaling(Query{Source: 0, Target: 7, Keywords: kws, Budget: 7}, opts)
	if err != nil {
		t.Fatalf("OSScaling Δ=7: %v", err)
	}
	best := res.Best()
	wantNodes(t, best, 0, 3, 5, 7)
	if best.Objective != 9 || best.Budget != 5 {
		t.Errorf("Δ=7 route = %v, want OS 9 BS 5", best)
	}
}

func TestNoFeasibleRoute(t *testing.T) {
	g := paperGraph(t)
	for _, dense := range []bool{false, true} {
		s := searcherFor(t, g, dense)
		kws := terms(t, g, "t1", "t2")
		// Δ=4 cannot even reach v7 covering anything: min budget 0→7 is 5.
		for name, run := range map[string]func(Query, Options) (Result, error){
			"OSScaling": s.OSScaling, "BucketBound": s.BucketBound, "Exact": s.Exact,
		} {
			_, err := run(Query{Source: 0, Target: 7, Keywords: kws, Budget: 4}, DefaultOptions())
			if !errors.Is(err, ErrNoRoute) {
				t.Errorf("dense=%v %s with Δ=4: err = %v, want ErrNoRoute", dense, name, err)
			}
		}
		// An absent keyword combination: t4 at v1/v4 is reachable, but add
		// an impossible budget for coverage: t4 and back within 4.9.
		_, err := s.OSScaling(Query{Source: 0, Target: 7, Keywords: terms(t, g, "t4"), Budget: 4.9}, DefaultOptions())
		if !errors.Is(err, ErrNoRoute) {
			t.Errorf("dense=%v unreachable keyword: %v", dense, err)
		}
	}
}

func TestBadQueries(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, false)
	kws := terms(t, g, "t1")
	cases := []struct {
		name string
		q    Query
		o    Options
	}{
		{"bad source", Query{Source: 99, Target: 7, Keywords: kws, Budget: 5}, DefaultOptions()},
		{"bad target", Query{Source: 0, Target: -1, Keywords: kws, Budget: 5}, DefaultOptions()},
		{"zero budget", Query{Source: 0, Target: 7, Keywords: kws, Budget: 0}, DefaultOptions()},
		{"no keywords", Query{Source: 0, Target: 7, Budget: 5}, DefaultOptions()},
		{"bad term", Query{Source: 0, Target: 7, Keywords: []graph.Term{999}, Budget: 5}, DefaultOptions()},
		{"bad epsilon", Query{Source: 0, Target: 7, Keywords: kws, Budget: 5}, func() Options { o := DefaultOptions(); o.Epsilon = 1.5; return o }()},
		{"bad beta", Query{Source: 0, Target: 7, Keywords: kws, Budget: 5}, func() Options { o := DefaultOptions(); o.Beta = 0.9; return o }()},
		{"bad alpha", Query{Source: 0, Target: 7, Keywords: kws, Budget: 5}, func() Options { o := DefaultOptions(); o.Alpha = -1; return o }()},
	}
	for _, c := range cases {
		if _, err := s.OSScaling(c.q, c.o); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", c.name, err)
		}
	}
}

// TestSourceCoversAllKeywords: when the source itself covers the query, the
// answer degenerates to τ(s,t) — a case the paper's pseudocode misses and
// this implementation handles explicitly.
func TestSourceCoversAllKeywords(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	kws := terms(t, g, "t1") // v3 carries t1
	for name, run := range map[string]func(Query, Options) (Result, error){
		"OSScaling": s.OSScaling, "BucketBound": s.BucketBound, "Exact": s.Exact,
	} {
		res, err := run(Query{Source: 3, Target: 7, Keywords: kws, Budget: 10}, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		best := res.Best()
		wantNodes(t, best, 3, 4, 7)
		if best.Objective != 2 || best.Budget != 5 {
			t.Errorf("%s: route = %v, want OS 2 BS 5 (τ(3,7))", name, best)
		}
	}
}

// TestRoundTripQuery exercises source == target, the "to and from my hotel"
// query of the paper's introduction.
func TestRoundTripQuery(t *testing.T) {
	b := graph.NewBuilder()
	hotel := b.AddNode("hotel")
	cafe := b.AddNode("cafe")
	park := b.AddNode("park")
	for _, e := range []struct {
		from, to graph.NodeID
		o, c     float64
	}{
		{hotel, cafe, 1, 1}, {cafe, park, 1, 1}, {park, hotel, 1, 1}, {cafe, hotel, 5, 1},
	} {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	s := searcherFor(t, g, true)
	kws := terms(t, g, "cafe", "park")
	for name, run := range map[string]func(Query, Options) (Result, error){
		"OSScaling": s.OSScaling, "BucketBound": s.BucketBound, "Exact": s.Exact,
	} {
		res, err := run(Query{Source: hotel, Target: hotel, Keywords: kws, Budget: 3}, DefaultOptions())
		if err != nil {
			t.Fatalf("%s round trip: %v", name, err)
		}
		best := res.Best()
		wantNodes(t, best, hotel, cafe, park, hotel)
		if best.Objective != 3 || best.Budget != 3 {
			t.Errorf("%s round trip = %v, want OS 3 BS 3", name, best)
		}
	}
}
