package experiments

import (
	"testing"

	"kor/internal/apsp"
	"kor/internal/core"
)

// counterSlack is how far labels and plan sweeps may rise above their pinned
// values before TestCellWorkCounters fails — the ceiling CI's lazy-counter
// gate uses too. Failures are pinned exactly.
const counterSlack = 1.2

// TestCellWorkCounters replays fixed serving cells through the standard
// lineup and pins each cell's deterministic work over its 8 queries: how many
// queries went unanswered, the labels created and the plan sweeps run. No
// wall time is read. A failure count that moves means a query is answered
// differently, whatever the speed; labels or plan sweeps past counterSlack of
// their pins mean the search does more work for the same answers.
//
// The cells: the small Flickr-like matrix dataset at Δ = 6, and the
// 1,500-node road network at Δ = 9 on the lazy oracle and on an in-memory
// partitioned oracle. Both road oracles see the same queries and must give
// the same failures and labels; the partitioned oracle runs no plan sweeps.
func TestCellWorkCounters(t *testing.T) {
	cfg := Config{Seed: 2012, Queries: 8, FastFlickr: true}
	flickr, err := NewFlickrDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	road := NewRoadDataset(cfg, 1500)
	partitioned := core.NewSearcher(road.Graph, apsp.NewPartitionedOracle(road.Graph, apsp.DefaultCellSize), road.Index)
	flickrQs := flickr.Queries(cfg, 6, 6)
	roadQs := road.Queries(cfg, 6, 9)

	oss := Algorithm{Name: "OSScaling", Opts: core.DefaultOptions(), Kind: KindOSScaling}
	bb := Algorithm{Name: "BucketBound", Opts: core.DefaultOptions(), Kind: KindBucketBound}
	greedy := Algorithm{Name: "Greedy1", Opts: core.DefaultOptions(), Kind: KindGreedy}

	cells := []struct {
		workload string
		searcher *core.Searcher
		queries  []core.Query
		algo     Algorithm
		// Totals over the cell's queries.
		failures, labels, planSweeps int
	}{
		{"flickr", flickr.Searcher, flickrQs, oss, 2, 1114, 0},
		{"flickr", flickr.Searcher, flickrQs, bb, 2, 846, 0},
		{"flickr", flickr.Searcher, flickrQs, greedy, 2, 0, 0},
		{"road-lazy", road.Searcher, roadQs, oss, 5, 3806, 8},
		{"road-lazy", road.Searcher, roadQs, bb, 5, 2253, 8},
		{"road-lazy", road.Searcher, roadQs, greedy, 7, 0, 36},
		{"road-partitioned", partitioned, roadQs, oss, 5, 3806, 0},
		{"road-partitioned", partitioned, roadQs, bb, 5, 2253, 0},
		{"road-partitioned", partitioned, roadQs, greedy, 7, 0, 0},
	}
	for _, c := range cells {
		t.Run(c.workload+"/"+c.algo.Name, func(t *testing.T) {
			if len(c.queries) != cfg.Queries {
				t.Fatalf("generated %d queries, want %d", len(c.queries), cfg.Queries)
			}
			failures, labels, planSweeps := 0, 0, 0
			for _, q := range c.queries {
				res, err := c.algo.invoke(c.searcher, q)
				if err != nil || len(res.Routes) == 0 || !res.Routes[0].Feasible {
					failures++
				}
				labels += res.Metrics.LabelsCreated
				planSweeps += res.Metrics.PlanSweeps
			}
			if failures != c.failures {
				t.Errorf("failures = %d, want %d", failures, c.failures)
			}
			if float64(labels) > counterSlack*float64(c.labels) {
				t.Errorf("labels created = %d, pinned %d (ceiling %.1fx)", labels, c.labels, counterSlack)
			}
			if float64(planSweeps) > counterSlack*float64(c.planSweeps) {
				t.Errorf("plan sweeps = %d, pinned %d (ceiling %.1fx)", planSweeps, c.planSweeps, counterSlack)
			}
			t.Logf("failures %d, labels %d, plan sweeps %d", failures, labels, planSweeps)
		})
	}
}
