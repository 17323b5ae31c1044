// Roadtrip runs KOR on a synthetic road network — the paper's scalability
// setting — and contrasts the oracle implementations: dense tables versus
// lazy per-query sweeps on a graph where |V|² tables would be wasteful.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"kor"
)

func main() {
	const nodes = 5000
	fmt.Printf("generating a %d-node road network...\n", nodes)
	g := kor.SyntheticRoadNetwork(2012, nodes)
	st := g.ComputeStats()
	fmt.Printf("network: %d nodes, %d edges, avg degree %.1f\n\n", st.Nodes, st.Edges, st.AvgOutDegree)

	// Lazy oracle: no pre-processing wall; sweeps are computed per query.
	start := time.Now()
	eng, err := kor.NewEngine(g, &kor.EngineConfig{Oracle: kor.OracleLazy})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine ready in %v (lazy oracle)\n", time.Since(start))

	// A cross-town errand: cover three common keyword categories within
	// 30 km of driving.
	keywords := []string{
		g.Vocab().Name(0),
		g.Vocab().Name(1),
		g.Vocab().Name(2),
	}
	req := kor.Request{From: 10, To: 4200, Keywords: keywords, Budget: 30}
	fmt.Printf("query: %d → %d covering %v within %v km\n\n", req.From, req.To, keywords, req.Budget)

	for _, run := range []struct {
		name string
		algo kor.Algorithm
	}{
		{"BucketBound", kor.AlgorithmBucketBound},
		{"OSScaling", kor.AlgorithmOSScaling},
		{"Greedy-1", kor.AlgorithmGreedy},
	} {
		req.Algorithm = run.algo
		t0 := time.Now()
		resp, err := eng.Run(context.Background(), req)
		elapsed := time.Since(t0)
		switch {
		case errors.Is(err, kor.ErrNoRoute):
			fmt.Printf("%-12s no feasible route (%v)\n", run.name, elapsed)
		case errors.Is(err, kor.ErrBudgetExceeded):
			fmt.Printf("%-12s covered keywords but busted Δ (%v)\n", run.name, elapsed)
		case err != nil:
			log.Fatal(err)
		default:
			r := resp.Best()
			fmt.Printf("%-12s OS=%.3f BS=%.1fkm hops=%d  (%v)\n",
				run.name, r.Objective, r.Budget, len(r.Nodes)-1, elapsed)
		}
	}
}
