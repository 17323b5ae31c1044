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

// Tests for Greedy's lower-bound scan (scan.go), which visits keyword nodes
// in groups in ascending order of Equation 1's lower bound and stops at the
// first group that cannot make the cut: settled nodes on a frontier, cells
// on the distance index, every node at once on any other oracle.

// fullScanVector hides a vector's cell bounds, so Greedy reads it as the
// pair view: a scan of every keyword node over the same scores.
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

// scanRow is one oracle of the match-full-scan tests: its cases, the seed
// and options they are drawn with, and the pair-view plan a plan over the
// oracle is checked against.
type scanRow struct {
	oracle string
	seed   int64
	cases  func(*rand.Rand) []cellScanCase
	opts   func(*rand.Rand) Options
	trials int
	steps  int
	open   func(g *graph.Graph, cells int) RouteOracle
	// reference returns the oracle of the reference plan for q and whether
	// the reference reads the plan's own vectors with their cell bounds
	// hidden.
	reference func(g *graph.Graph, o RouteOracle, q Query) (RouteOracle, bool)
	// arm reports whether the vector out of a waypoint is read by the scan
	// this row is about.
	arm func(apsp.Vector) bool
	// minShort is how many scans must score fewer nodes than the full one.
	minShort int
}

// smallScanCases are the unpartitioned graphs of the lazy and matrix rows.
func smallScanCases(rng *rand.Rand) []cellScanCase {
	random := func(rng *rand.Rand, g *graph.Graph) Query { return randomQuery(rng, g, 1+rng.Intn(4)) }
	return []cellScanCase{
		{"tied", tiedGraph(rng, 50, 6), 0, random},
		{"disconnected", disconnectedGraph(rng, 25, 6), 0, random},
		{"continuous", randomKeywordGraph(rng, 50, 6), 0, random},
	}
}

// frontierScanOptions draws a width in 1..3, α ∈ {0, 0.3, 0.5, 1} and
// either mode.
func frontierScanOptions(rng *rand.Rand) Options {
	opts := DefaultOptions()
	opts.Alpha = []float64{0, 0.3, 0.5, 1}[rng.Intn(4)]
	opts.Width = 1 + rng.Intn(3)
	opts.BudgetPriority = rng.Intn(2) == 0
	opts.DisableStrategy2 = true
	return opts
}

func cellBounded(v apsp.Vector) bool {
	_, ok := v.(interface{ CellBound(int) (float64, float64) })
	return ok
}

// scanRows is the table of the match-full-scan tests, one row per oracle:
// on a lazy oracle, frontiers against full sweeps (graphs where exact ties
// are everywhere; the states revisit waypoints, so resumed frontiers are
// scanned too); on partitioned oracles, cells against the same slices with
// their cell bounds hidden, often scoring fewer nodes to get there; on the
// matrix, where the scan is the pair view, the scan against itself.
var scanRows = map[string]scanRow{
	"lazy": {
		oracle: "lazy", seed: 2704, cases: smallScanCases, opts: frontierScanOptions, trials: 30, steps: 12,
		open: func(g *graph.Graph, _ int) RouteOracle { return apsp.NewLazyOracle(g) },
		reference: func(g *graph.Graph, _ RouteOracle, q Query) (RouteOracle, bool) {
			return newFullSweepOracle(g, q.Target, true), false
		},
		arm: func(v apsp.Vector) bool { _, ok := v.(*waypointFrontier); return ok },
	},
	"partitioned": {
		oracle: "partitioned", seed: 4040, cases: cellScanCases, opts: randomGreedyOptions, trials: 25, steps: 10,
		open:      func(g *graph.Graph, cells int) RouteOracle { return apsp.NewPartitionedOracle(g, cells) },
		reference: func(_ *graph.Graph, o RouteOracle, _ Query) (RouteOracle, bool) { return o, true },
		arm:       cellBounded,
		minShort:  100,
	},
	"matrix": {
		oracle: "matrix", seed: 2705, cases: smallScanCases, opts: randomGreedyOptions, trials: 25, steps: 10,
		open:      func(g *graph.Graph, _ int) RouteOracle { return apsp.NewMatrixOracle(g) },
		reference: func(_ *graph.Graph, o RouteOracle, _ Query) (RouteOracle, bool) { return o, true },
		arm:       func(v apsp.Vector) bool { _, f := v.(*waypointFrontier); return !f && !cellBounded(v) },
		minShort:  100,
	},
}

// checkScanRow: for random beam states — waypoint, keywords still
// uncovered, scores so far — Greedy's lower-bound scan on the row's oracle
// picks, field for field and in order, the width best candidates of the
// pair-view scan of every keyword node over the same scores.
func checkScanRow(t *testing.T, row scanRow) {
	t.Helper()
	rng := rand.New(rand.NewSource(row.seed))
	picked, short := 0, 0
	for _, tc := range row.cases(rng) {
		oracle := row.open(tc.g, tc.cells)
		n := tc.g.NumNodes()
		for trial := 0; trial < row.trials; trial++ {
			q := tc.query(rng, tc.g)
			opts := row.opts(rng)
			refOracle, hide := row.reference(tc.g, oracle, q)
			p, err := NewSearcher(tc.g, oracle, nil).newPlan(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSearcher(tc.g, refOracle, nil).newPlan(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			// A beam wider than the graph never fills its cut, so the
			// reference scores every keyword node: no group and no node is
			// skipped.
			ref.opts.Width = n + 1
			p.keywords.fill, ref.keywords.fill = p.keywordNodes, ref.keywordNodes // as runGreedy does
			waypoints := []graph.NodeID{q.Source, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			for step := 0; step < row.steps; step++ {
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
				out := p.waypointOut(cur)
				if !row.arm(out) {
					t.Fatalf("%s: the vector out of a waypoint is a %T", row.oracle, out)
				}
				got, err := p.greedyCandidates(st, cur, out, uncovered)
				if err != nil {
					t.Fatal(err)
				}
				refOut := ref.waypointOut(cur)
				if hide {
					refOut = fullScanVector{refOut}
				}
				want, err := ref.greedyCandidates(st, cur, refOut, uncovered)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) < len(want) {
					short++
				}
				got, want = bestCandidates(got, opts.Width), bestCandidates(want, opts.Width)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s trial %d step %d (%+v, waypoint %d, state %+v): scan picks %v, full scan %v",
						row.oracle, tc.name, trial, step, opts, cur, st, got, want)
				}
				picked += len(want)
			}
			p.close()
			ref.close()
		}
	}
	if picked < 500 || short < row.minShort {
		t.Fatalf("%s: %d candidates picked, %d scans cut short: the states no longer exercise the scan", row.oracle, picked, short)
	}
}

// TestFrontierCandidatesMatchFullScan checks the scan on a lazy oracle, over
// frontiers, against full sweeps.
func TestFrontierCandidatesMatchFullScan(t *testing.T) { checkScanRow(t, scanRows["lazy"]) }

// TestCellCandidatesMatchFullScan checks the scan on partitioned oracles,
// over cells, against the same slices with their cell bounds hidden.
func TestCellCandidatesMatchFullScan(t *testing.T) { checkScanRow(t, scanRows["partitioned"]) }

// TestMatrixCandidatesMatchFullScan checks the scan on the matrix, where it
// is the pair view, against itself.
func TestMatrixCandidatesMatchFullScan(t *testing.T) { checkScanRow(t, scanRows["matrix"]) }

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
