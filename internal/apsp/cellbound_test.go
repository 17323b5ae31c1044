package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// wantCellBound is CellBound written from its definition, off the naive
// row-major overlay copy: (0, 0) in the root's cell, and elsewhere the least
// intra-region score between the root and its cell's borders plus the least
// overlay score from the first cell's borders to the second's, on each score
// apart, in Scores' order.
func wantCellBound(ref *naiveScores, root graph.NodeID, outbound bool, c int) (os, bs float64) {
	o, b := ref.o, len(ref.o.borders)
	rc := int(o.region[root])
	if c == rc {
		return 0, 0
	}
	cell := &o.cells[rc]
	k, l := len(cell.nodes), int(o.local[root])
	tP, tS, _ := cell.scoreTables(ref.m)
	rP, rS := math.Inf(1), math.Inf(1)
	for x := 0; x < cell.nb; x++ {
		at := x*k + l
		if outbound {
			at = l*k + x
		}
		rP, rS = math.Min(rP, tP[at]), math.Min(rS, tS[at])
	}
	from, to := &o.cells[c], cell
	if outbound {
		from, to = to, from
	}
	cP, cS := math.Inf(1), math.Inf(1)
	for _, u := range from.nodes[:from.nb] {
		for _, w := range to.nodes[:to.nb] {
			at := int(o.borderIdx[u])*b + int(o.borderIdx[w])
			cP, cS = math.Min(cP, ref.ovP[at]), math.Min(cS, ref.ovS[at])
		}
	}
	if ref.m == ByBudget {
		return rS + cS, rP + cP
	}
	return rP + cP, rS + cS
}

// checkCellBounds checks the slices of o rooted at roots, into and out of
// them under both metrics: Cell is the node's region, every cell's bound is
// wantCellBound bit for bit, and it is at most Scores on both scores for
// every node of the cell — none of which is reachable when the bound is
// +Inf. It returns how many (slice, cell) bounds were +Inf.
func checkCellBounds(t *testing.T, where string, o *PartitionedOracle, roots []graph.NodeID) (unreachable int) {
	t.Helper()
	n := o.g.NumNodes()
	for _, m := range []Metric{ByObjective, ByBudget} {
		ref := newNaiveScores(o, m)
		for _, root := range roots {
			for _, outbound := range []bool{false, true} {
				ts := o.TargetSlice(root, m)
				if outbound {
					ts = o.SourceSlice(root, m)
				}
				at := fmt.Sprintf("%s metric %d root %d outbound %v", where, m, root, outbound)
				for c := range o.cells {
					gotOS, gotBS := ts.CellBound(c)
					wantOS, wantBS := wantCellBound(ref, root, outbound, c)
					if gotOS != wantOS || gotBS != wantBS {
						t.Fatalf("%s cell %d: bound (%v,%v), want (%v,%v)", at, c, gotOS, gotBS, wantOS, wantBS)
					}
					if math.IsInf(gotOS, 1) {
						unreachable++
					}
				}
				for v := graph.NodeID(0); int(v) < n; v++ {
					c := ts.Cell(v)
					if c != int(o.region[v]) {
						t.Fatalf("%s: Cell(%d) = %d, region %d", at, v, c, o.region[v])
					}
					bOS, bBS := ts.CellBound(c)
					os, bs, ok := ts.Scores(v)
					if !ok {
						continue
					}
					if math.IsInf(bOS, 1) || bOS > os || bBS > bs {
						t.Fatalf("%s node %d (cell %d): bound (%v,%v) above scores (%v,%v)", at, v, c, bOS, bBS, os, bs)
					}
				}
			}
		}
	}
	return unreachable
}

// TestCellBoundBelowScores: a slice's cell bound never exceeds the scores of
// a node of the cell, on target and source slices, both metrics, memory- and
// file-backed oracles, on graphs with ties, long paths and unreachable
// pairs, and on road networks cut by bisection.
func TestCellBoundBelowScores(t *testing.T) {
	rng := rand.New(rand.NewSource(4012))
	allRoots := func(g *graph.Graph) []graph.NodeID {
		roots := make([]graph.NodeID, g.NumNodes())
		for i := range roots {
			roots[i] = graph.NodeID(i)
		}
		return roots
	}
	road := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500})
	cases := []struct {
		name     string
		g        *graph.Graph
		cellSize int
		roots    int // 0: every node
	}{
		{"ring", ringTestGraph(rng, 40), 6, 0},
		{"tied", tiedTestGraph(rng, 48), 7, 0},
		{"disconnected", sparseTestGraph(rng, 50), 6, 0},
		{"road 1500", road, DefaultCellSize, 12},
	}
	for _, tc := range cases {
		mem, disk, _ := writeTestIndex(t, tc.g, tc.cellSize)
		roots := allRoots(tc.g)
		if tc.roots > 0 {
			roots = sampleRoots(rng, tc.g, tc.roots)
		}
		for name, o := range map[string]*PartitionedOracle{"memory": mem, "disk": disk} {
			inf := checkCellBounds(t, tc.name+" "+name, o, roots)
			if tc.name == "disconnected" && inf == 0 {
				t.Fatalf("%s %s: no cell bound is +Inf; the case no longer has unreachable cells", tc.name, name)
			}
		}
	}

	// The bench road network, in memory: its index file is about 190 MB.
	bench := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 8000})
	checkCellBounds(t, "bench road", NewPartitionedOracle(bench, DefaultCellSize), sampleRoots(rng, bench, 6))
}

// TestPairMinMatchesBlockScan: the stored cell-pair minima equal, bit for
// bit, a scan of every overlay block under both metrics, on oracles built in
// memory and opened from their file, mapped and decoded.
func TestPairMinMatchesBlockScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4014))
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		cellSize int
	}{
		{"tied", tiedTestGraph(rng, 48), 7},
		{"disconnected", sparseTestGraph(rng, 50), 6},
		{"road 1500", gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500}), DefaultCellSize},
	} {
		mem, mapped, path := writeTestIndex(t, tc.g, tc.cellSize)
		for name, o := range map[string]*PartitionedOracle{"memory": mem, "mapped": mapped, "decoded": openDecoded(t, path, tc.g)} {
			nc := len(o.cells)
			for _, m := range []Metric{ByObjective, ByBudget} {
				if len(o.pairMin[m]) != nc*nc {
					t.Fatalf("%s %s metric %d: %d cell-pair minima for %d cells", tc.name, name, m, len(o.pairMin[m]), nc)
				}
				ref, b := newNaiveScores(o, m), len(o.borders)
				for i := range o.cells {
					for j := range o.cells {
						want := scorePair{math.Inf(1), math.Inf(1)}
						for _, u := range o.cells[i].nodes[:o.cells[i].nb] {
							for _, w := range o.cells[j].nodes[:o.cells[j].nb] {
								at := int(o.borderIdx[u])*b + int(o.borderIdx[w])
								want.prim, want.sec = math.Min(want.prim, ref.ovP[at]), math.Min(want.sec, ref.ovS[at])
							}
						}
						got := o.pairMin[m][i*nc+j]
						if math.Float64bits(got.prim) != math.Float64bits(want.prim) || math.Float64bits(got.sec) != math.Float64bits(want.sec) {
							t.Fatalf("%s %s metric %d cells (%d,%d): stored %v, block scan %v", tc.name, name, m, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// sampleRoots draws k distinct roots.
func sampleRoots(rng *rand.Rand, g *graph.Graph, k int) []graph.NodeID {
	perm := rng.Perm(g.NumNodes())[:k]
	roots := make([]graph.NodeID, k)
	for i, v := range perm {
		roots[i] = graph.NodeID(v)
	}
	return roots
}

// TestCellBoundConcurrent: goroutines asking a fresh oracle for cell bounds
// at once, each in its own order, all read the bounds of the definition
// while they create and share the slices those bounds belong to. The
// cell-pair table itself is built with the oracle and only read. Run with
// -race.
func TestCellBoundConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4013))
	g := tiedTestGraph(rng, 60)
	mem, disk, _ := writeTestIndex(t, g, 6)
	for name, o := range map[string]*PartitionedOracle{"memory": mem, "disk": disk} {
		refs := []*naiveScores{newNaiveScores(o, ByObjective), newNaiveScores(o, ByBudget)}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(order []int) {
				defer wg.Done()
				for _, i := range order {
					root, m, outbound := graph.NodeID(i/4), Metric(i%2), i%4 >= 2
					ts := o.TargetSlice(root, m)
					if outbound {
						ts = o.SourceSlice(root, m)
					}
					for c := range o.cells {
						gotOS, gotBS := ts.CellBound(c)
						if wantOS, wantBS := wantCellBound(refs[m], root, outbound, c); gotOS != wantOS || gotBS != wantBS {
							errs <- fmt.Sprintf("root %d metric %d outbound %v cell %d: (%v,%v), want (%v,%v)", root, m, outbound, c, gotOS, gotBS, wantOS, wantBS)
							return
						}
					}
				}
			}(rng.Perm(4 * g.NumNodes()))
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("%s: %s", name, msg)
		}
	}
}
