package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kor/internal/bitset"
	"kor/internal/graph"
)

func TestGreedyOnPaperExamples(t *testing.T) {
	g := paperGraphMultiV7(t)
	s := searcherFor(t, g, true)
	kws := terms(t, g, "t1", "t2", "t3")
	for _, width := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Width = width
		res, err := s.Greedy(Query{Source: 0, Target: 7, Keywords: kws, Budget: 8}, opts)
		if err != nil {
			t.Fatalf("Greedy-%d: %v", width, err)
		}
		r := res.Best()
		if !r.CoversAll {
			t.Errorf("Greedy-%d keyword mode failed to cover: %v", width, r)
		}
		if !r.Feasible {
			t.Errorf("Greedy-%d found infeasible route %v on an easy query", width, r)
		}
		// The greedy answer may be suboptimal but never better than optimal.
		if r.Objective < 4-1e-9 {
			t.Errorf("Greedy-%d objective %v beats the optimum 4 — scores are wrong", width, r.Objective)
		}
	}
}

// TestGreedyBudgetViolationReported builds a query where covering keywords
// requires overshooting Δ; keyword-priority mode must return the route with
// ErrBudgetExceeded (this is what Figure 13 counts as a failure).
func TestGreedyBudgetViolationReported(t *testing.T) {
	g := paperGraphMultiV7(t)
	s := searcherFor(t, g, true)
	kws := terms(t, g, "t1", "t2", "t3")
	// Feasible routes need BS ≥ 5; force Δ below that.
	res, err := s.Greedy(Query{Source: 0, Target: 7, Keywords: kws, Budget: 4.5}, DefaultOptions())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if len(res.Routes) != 1 {
		t.Fatal("violating route not returned for inspection")
	}
	r := res.Best()
	if !r.CoversAll {
		t.Errorf("keyword-priority route must cover keywords: %v", r)
	}
	if r.Budget <= 4.5 {
		t.Errorf("route %v claims to fit a budget that is impossible", r)
	}
	if r.Feasible {
		t.Error("route flagged feasible despite budget violation")
	}
}

// TestGreedyBudgetPriority: the §3.4 modification respects Δ and may leave
// keywords uncovered. The fixture makes the keyword detour (budget 6)
// unaffordable under Δ=2 while the direct path (budget 1) fits.
func TestGreedyBudgetPriority(t *testing.T) {
	b := graph.NewBuilder()
	src := b.AddNode()
	gold := b.AddNode("gold")
	dst := b.AddNode()
	for _, e := range []struct {
		from, to graph.NodeID
		o, c     float64
	}{
		{src, dst, 1, 1}, {src, gold, 1, 3}, {gold, dst, 1, 3},
	} {
		if err := b.AddEdge(e.from, e.to, e.o, e.c); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	s := searcherFor(t, g, true)
	kws := terms(t, g, "gold")

	opts := DefaultOptions()
	opts.BudgetPriority = true
	res, err := s.Greedy(Query{Source: src, Target: dst, Keywords: kws, Budget: 2}, opts)
	if err != nil {
		t.Fatalf("budget-priority greedy: %v", err)
	}
	r := res.Best()
	if r.Budget > 2+1e-9 {
		t.Errorf("budget-priority route busts Δ: %v", r)
	}
	if r.CoversAll {
		t.Errorf("route %v covers gold within Δ=2, which is impossible", r)
	}
	wantNodes(t, r, src, dst)

	// Keyword priority on the same query covers gold and reports the
	// violation.
	res, err = s.Greedy(Query{Source: src, Target: dst, Keywords: kws, Budget: 2}, DefaultOptions())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("keyword-priority err = %v, want ErrBudgetExceeded", err)
	}
	if r := res.Best(); !r.CoversAll || r.Budget != 6 {
		t.Errorf("keyword-priority route = %v, want coverage with BS 6", r)
	}

	// Δ below any path to the target: budget-priority reports no route.
	if _, err := s.Greedy(Query{Source: src, Target: dst, Keywords: kws, Budget: 0.5}, opts); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unreachable Δ: err = %v, want ErrNoRoute", err)
	}
}

// TestGreedy2NoWorseOnAverage mirrors the paper's finding that Greedy-2
// consistently outperforms Greedy-1 (§4.2.2): across random workloads the
// wider beam must not lose on average, and each beam's feasible routes must
// satisfy the structural invariants.
func TestGreedy2NoWorseOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var os1, os2 float64
	wins2, count := 0, 0
	for trial := 0; trial < 40; trial++ {
		g := randomKeywordGraph(rng, 25, 6)
		s := searcherFor(t, g, false)
		q := randomQuery(rng, g, 2)
		q.Budget *= 2 // give greedy room so both widths usually succeed
		o1 := DefaultOptions()
		o2 := DefaultOptions()
		o2.Width = 2
		r1, err1 := s.Greedy(q, o1)
		r2, err2 := s.Greedy(q, o2)
		if err1 != nil || err2 != nil {
			continue
		}
		verifyRoute(t, g, q, r1.Best(), fmt.Sprintf("trial %d greedy-1", trial))
		verifyRoute(t, g, q, r2.Best(), fmt.Sprintf("trial %d greedy-2", trial))
		os1 += r1.Best().Objective
		os2 += r2.Best().Objective
		if r2.Best().Objective <= r1.Best().Objective+1e-9 {
			wins2++
		}
		count++
	}
	if count < 10 {
		t.Skipf("only %d comparable runs", count)
	}
	if os2 > os1*1.0001 {
		t.Errorf("Greedy-2 average %v worse than Greedy-1 average %v over %d runs", os2/float64(count), os1/float64(count), count)
	}
	if wins2 < count*3/4 {
		t.Errorf("Greedy-2 only matched or beat Greedy-1 on %d/%d runs", wins2, count)
	}
}

// TestGreedyNeverBeatsExact: greedy objective scores are bounded below by
// the exact optimum whenever both succeed.
func TestGreedyNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		g := randomKeywordGraph(rng, 15, 5)
		s := searcherFor(t, g, false)
		q := randomQuery(rng, g, 2)
		exact, errE := s.Exact(q, DefaultOptions())
		greedy, errG := s.Greedy(q, DefaultOptions())
		if errE != nil || errG != nil || !greedy.Best().Feasible {
			continue
		}
		checked++
		if greedy.Best().Objective < exact.Best().Objective-1e-9 {
			t.Fatalf("trial %d: greedy %v beats exact %v", trial,
				greedy.Best().Objective, exact.Best().Objective)
		}
	}
	if checked == 0 {
		t.Skip("no comparable runs")
	}
}

// TestGreedyUnreachableKeyword: a keyword present only on an unreachable
// node makes every branch die.
func TestGreedyUnreachableKeyword(t *testing.T) {
	g := paperGraph(t)
	s := searcherFor(t, g, true)
	// t5 sits only on v0; from v1 (no outgoing edges) nothing is reachable,
	// so ask from v4 toward v7 with keyword t5 (behind the source).
	_, err := s.Greedy(Query{Source: 4, Target: 7, Keywords: terms(t, g, "t5"), Budget: 100}, DefaultOptions())
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// TestGreedyAlphaExtremes: α=0 optimizes purely for budget, α=1 purely for
// objective; both must still return structurally valid routes.
func TestGreedyAlphaExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomKeywordGraph(rng, 30, 5)
	s := searcherFor(t, g, false)
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng, g, 2)
		q.Budget *= 3
		for _, alpha := range []float64{0, 0.5, 1} {
			opts := DefaultOptions()
			opts.Alpha = alpha
			res, err := s.Greedy(q, opts)
			if err != nil && !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrNoRoute) {
				t.Fatalf("α=%v: unexpected error %v", alpha, err)
			}
			if err == nil {
				verifyRoute(t, g, q, res.Best(), fmt.Sprintf("α=%v trial %d", alpha, trial))
			}
		}
	}
}

// TestBestCandidatesMatchesSortPrefix: for random candidate lists — scores
// drawn from a handful of values, so ties abound — and any beam width, the
// beam a scan keeps as it scores them is exactly the prefix of the full
// (score, node) sort, and its cut the width-th lowest score.
func TestBestCandidatesMatchesSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		cands := make([]greedyCandidate, n)
		for i, v := range rng.Perm(n) {
			cands[i] = greedyCandidate{node: graph.NodeID(v), score: float64(rng.Intn(5)), os: rng.Float64(), bs: rng.Float64()}
		}
		sorted := append([]greedyCandidate(nil), cands...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].score != sorted[j].score {
				return sorted[i].score < sorted[j].score
			}
			return sorted[i].node < sorted[j].node
		})
		for _, width := range []int{1, 2, 3, n, n + 4} {
			cut := beamCut{width: width}
			for _, c := range cands {
				cut.add(c)
			}
			if want := sorted[:min(width, n)]; !slices.Equal(cut.beam, want) {
				t.Fatalf("trial %d width %d: beam %v, sort prefix %v", trial, width, cut.beam, want)
			}
			wantCut := math.Inf(1)
			if width <= n {
				wantCut = sorted[width-1].score
			}
			if got := cut.best(); got != wantCut {
				t.Fatalf("trial %d width %d: cut %v, want %v", trial, width, got, wantCut)
			}
		}
	}
}

// TestKeywordNodesMatchesSet: for random sorted posting lists — empty ones,
// overlapping ones, a single one — keywordNodes returns every node of their
// union exactly once.
func TestKeywordNodesMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		p := &plan{postings: make([][]graph.NodeID, rng.Intn(6)), nodeMask: make([]bitset.Mask, 30)}
		seen := make(map[graph.NodeID]bool)
		for i := range p.postings {
			for v := 0; v < 30; v++ {
				if rng.Intn(3) == 0 && i%4 != 3 { // every fourth list stays empty
					p.postings[i] = append(p.postings[i], graph.NodeID(v))
					p.nodeMask[v] = p.nodeMask[v].With(i)
					seen[graph.NodeID(v)] = true
				}
			}
		}
		want := make([]graph.NodeID, 0, len(seen))
		for v := range seen {
			want = append(want, v)
		}
		slices.Sort(want)
		got := p.keywordNodes()
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %v gave %v, want %v", trial, p.postings, got, want)
		}
	}
}
