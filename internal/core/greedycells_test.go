package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kor/internal/apsp"
	"kor/internal/bitset"
	"kor/internal/gen"
	"kor/internal/graph"
)

// Tests for Greedy's cell scan on the distance index, which visits keyword
// nodes cell by cell in ascending order of Equation 1's lower bound and
// stops at the first cell that cannot make the cut.

// fullScanVector hides a vector's cell bounds, so Greedy scans every keyword
// node over the same scores.
type fullScanVector struct{ apsp.Vector }

// greedyFullScan is GreedyCtx with the τ tail stripped of its cell bounds:
// the scan of every keyword node over the slices the cell scan reads.
func greedyFullScan(s *Searcher, q Query, opts Options) (Result, error) {
	opts.DisableStrategy2 = true
	p, err := s.newPlan(context.Background(), q, opts)
	if err != nil {
		return Result{}, err
	}
	tail, _ := apsp.Into(s.oracle, q.Target, apsp.ByObjective, math.Inf(1), nil)
	p.tailTau = fullScanVector{tail}
	return p.runGreedy()
}

// cellScanCase is one partitioned graph and its query generator.
type cellScanCase struct {
	name  string
	g     *graph.Graph
	cells int
	query func(*rand.Rand, *graph.Graph) Query
}

func cellScanCases(rng *rand.Rand) []cellScanCase {
	random := func(rng *rand.Rand, g *graph.Graph) Query { return randomQuery(rng, g, 1+rng.Intn(4)) }
	road := func(rng *rand.Rand, g *graph.Graph) Query { return roadQuery(rng, g, 1+rng.Intn(4), 9) }
	return []cellScanCase{
		{"tied", tiedGraph(rng, 60, 6), 7, random},
		// Cells of three make most nodes borders, so many bounds are met
		// exactly and a bound tied with the cut must still be scanned.
		{"tied, small cells", tiedGraph(rng, 60, 4), 3, random},
		{"disconnected", disconnectedGraph(rng, 30, 6), 6, random},
		{"continuous", randomKeywordGraph(rng, 60, 6), 8, random},
		{"road", gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500}), apsp.DefaultCellSize, road},
	}
}

// randomGreedyOptions draws a width in 1..MaxWidth, α ∈ {0, 0.3, 0.5, 1} and
// either mode.
func randomGreedyOptions(rng *rand.Rand) Options {
	opts := DefaultOptions()
	opts.Alpha = []float64{0, 0.3, 0.5, 1}[rng.Intn(4)]
	opts.Width = 1 + rng.Intn(MaxWidth)
	opts.BudgetPriority = rng.Intn(2) == 0
	opts.DisableStrategy2 = true
	return opts
}

// TestCellCandidatesMatchFullScan: for random beam states on partitioned
// oracles — waypoint, keywords still uncovered, scores so far — the cell
// scan's width best candidates are, field for field and in order, those of
// a scan of every keyword node over the same slice vectors; and often it
// scores fewer nodes to get them.
func TestCellCandidatesMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4040))
	picked, pruned := 0, 0
	for _, tc := range cellScanCases(rng) {
		oracle := apsp.NewPartitionedOracle(tc.g, tc.cells)
		s := NewSearcher(tc.g, oracle, nil)
		n := tc.g.NumNodes()
		for trial := 0; trial < 25; trial++ {
			q := tc.query(rng, tc.g)
			opts := randomGreedyOptions(rng)
			p, err := s.newPlan(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			nodeSet := mergePostings(p.postings)
			waypoints := []graph.NodeID{q.Source, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			for step := 0; step < 10; step++ {
				st := greedyOutcome{
					covered: bitset.Mask(rng.Uint64()) & p.qMask,
					os:      float64(rng.Intn(4)),
					bs:      float64(rng.Intn(4)),
				}
				if st.covered == p.qMask {
					st.covered = 0
				}
				cur := waypoints[rng.Intn(len(waypoints))]
				uncovered := p.qMask.Diff(st.covered)
				out := apsp.OutOf(oracle, cur, apsp.ByObjective)
				if _, ok := out.(cellBounded); !ok {
					t.Fatal("a source slice offers no cell bounds")
				}
				got, err := p.nodeSetCandidates(st, cur, out, uncovered, nodeSet)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := p.scanNodes(st, cur, out, uncovered, nodeSet, nil, nil)
				if len(got) < len(want) {
					pruned++
				}
				got, want = bestCandidates(got, opts.Width), bestCandidates(want, opts.Width)
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d step %d (%+v, waypoint %d, state %+v): cell scan picks %v, full scan %v",
						tc.name, trial, step, opts, cur, st, got, want)
				}
				picked += len(want)
			}
			p.close()
		}
	}
	if picked < 500 || pruned < 100 {
		t.Fatalf("%d candidates picked, %d scans cut short: the states no longer exercise the cell scan", picked, pruned)
	}
}

// TestGreedyCellScanWholeQuery: whole Greedy queries on partitioned oracles
// return bit for bit the routes and errors of the full scan over the same
// slices, across widths, α and both modes.
func TestGreedyCellScanWholeQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(4041))
	answered := 0
	for _, tc := range cellScanCases(rng) {
		s := NewSearcher(tc.g, apsp.NewPartitionedOracle(tc.g, tc.cells), nil)
		for trial := 0; trial < 40; trial++ {
			q := tc.query(rng, tc.g)
			opts := randomGreedyOptions(rng)
			got, gotErr := s.Greedy(q, opts)
			want, wantErr := greedyFullScan(s, q, opts)
			if g, w := renderSweepOutcome(got, gotErr), renderSweepOutcome(want, wantErr); g != w {
				t.Fatalf("%s trial %d (%+v, query %+v):\ncell scan %s\nfull scan %s", tc.name, trial, opts, q, g, w)
			}
			if len(got.Routes) > 0 {
				answered++
			}
		}
	}
	if answered < 80 {
		t.Fatalf("%d of 200 queries answered: the cases no longer exercise whole routes", answered)
	}
}
