// Cityplanner replays the paper's §4.2.7 demonstration on the synthetic
// city: one day-trip query posed with a generous and then a tight distance
// budget, showing the returned most-popular route change — and compares all
// three algorithm families on the same query.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"

	"kor"
)

func main() {
	fmt.Println("generating the synthetic city (photo world → trip graph)...")
	g, err := kor.SyntheticCity(2012)
	if err != nil {
		log.Fatal(err)
	}
	st := g.ComputeStats()
	fmt.Printf("city: %d locations, %d trip edges, %d tags\n\n", st.Nodes, st.Edges, st.Terms)

	eng, err := kor.NewEngine(g, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Find a query exhibiting the paper's §4.2.7 effect: the most popular
	// covering route fits Δ=9 km but not Δ=6 km, so tightening the budget
	// changes the answer (the analogue of "jazz, imax, vegetarian,
	// cappuccino" from Dewitt Clinton Park to the UN Headquarters).
	from, to, keywords := pickScenario(g, eng)
	fmt.Printf("plan a trip %d → %d covering %v\n\n", from, to, keywords)

	ctx := context.Background()
	for _, delta := range []float64{9, 6} {
		// The paper's demonstration uses OSScaling, the most accurate of
		// the approximation algorithms.
		res, err := eng.Run(ctx, kor.Request{
			From: from, To: to, Keywords: keywords, Budget: delta,
			Algorithm: kor.AlgorithmOSScaling,
		})
		if errors.Is(err, kor.ErrNoRoute) {
			fmt.Printf("Δ=%v km: no feasible route\n", delta)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Δ=%v km: %v\n", delta, res.Best())
	}

	// The same query through each algorithm, with the paper's defaults.
	req := kor.Request{From: from, To: to, Keywords: keywords, Budget: 9}
	fmt.Println("\nalgorithm comparison at Δ=9 km:")
	req.Algorithm = kor.AlgorithmOSScaling
	if res, err := eng.Run(ctx, req); err == nil {
		fmt.Printf("  OSScaling   OS=%.3f BS=%.2f (labels created: %d)\n",
			res.Best().Objective, res.Best().Budget, res.Metrics.LabelsCreated)
	}
	req.Algorithm = kor.AlgorithmBucketBound
	if res, err := eng.Run(ctx, req); err == nil {
		fmt.Printf("  BucketBound OS=%.3f BS=%.2f (labels created: %d)\n",
			res.Best().Objective, res.Best().Budget, res.Metrics.LabelsCreated)
	}
	opts := kor.DefaultOptions()
	opts.Width = 2
	req.Algorithm, req.Options = kor.AlgorithmGreedy, &opts
	res, err := eng.Run(ctx, req)
	switch {
	case err == nil:
		fmt.Printf("  Greedy-2    OS=%.3f BS=%.2f\n", res.Best().Objective, res.Best().Budget)
	case errors.Is(err, kor.ErrBudgetExceeded):
		fmt.Printf("  Greedy-2    busted the budget (BS=%.2f > 9)\n", res.Best().Budget)
	default:
		fmt.Printf("  Greedy-2    failed: %v\n", err)
	}
}

// pickScenario scans for a query whose best Δ=9 route overruns 6 km while
// a different feasible route exists under Δ=6 — the crossover the paper
// demonstrates. Falls back to the first answerable query if the workload
// offers no crossover.
func pickScenario(g *kor.Graph, eng *kor.Engine) (kor.NodeID, kor.NodeID, []string) {
	// Rank tags by frequency; the scenario mixes very common tags with a
	// mid-frequency one, which forces a detour.
	counts := make(map[kor.Term]int)
	for v := kor.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, t := range g.Terms(v) {
			counts[t]++
		}
	}
	ranked := make([]kor.Term, 0, len(counts))
	for t := range counts {
		ranked = append(ranked, t)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if counts[ranked[i]] != counts[ranked[j]] {
			return counts[ranked[i]] > counts[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	name := func(i int) string { return g.Vocab().Name(ranked[i%len(ranked)]) }

	var fallbackFrom, fallbackTo kor.NodeID
	var fallbackKws []string
	for attempt := 0; attempt < 400; attempt++ {
		from := kor.NodeID((attempt * 131) % g.NumNodes())
		to := kor.NodeID((attempt*197 + 61) % g.NumNodes())
		if from == to {
			continue
		}
		d := g.Position(from).CityDistanceKm(g.Position(to))
		if d < 2 || d > 4 {
			continue
		}
		keywords := []string{name(attempt % 5), name(5 + attempt%10), name(15 + attempt%25)}
		req := kor.Request{From: from, To: to, Keywords: keywords, Budget: 9, Algorithm: kor.AlgorithmOSScaling}
		wide, err := eng.Run(context.Background(), req)
		if err != nil {
			continue
		}
		if fallbackKws == nil {
			fallbackFrom, fallbackTo, fallbackKws = from, to, keywords
		}
		if wide.Best().Budget <= 6 {
			continue // the generous route already fits the tight budget
		}
		req.Budget = 6
		if _, err := eng.Run(context.Background(), req); err != nil {
			continue // tight budget has no alternative at all
		}
		return from, to, keywords
	}
	if fallbackKws != nil {
		return fallbackFrom, fallbackTo, fallbackKws
	}
	return 0, kor.NodeID(g.NumNodes() - 1), []string{name(0), name(1), name(2)}
}
