package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kor/internal/graph"
)

// wantCellBound is CellBound written from its definition, off the naive
// row-major overlay copy: (0, 0) in the root's cell, and elsewhere the least
// intra-region score between the root and its cell's borders plus the least
// overlay score from the first cell's borders to the second's, on each score
// apart, in Scores' order.
func wantCellBound(ref *naiveScores, root graph.NodeID, outbound bool, c int) (os, bs float64) {
	o := ref.o
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
	from, to := c, rc
	if outbound {
		from, to = to, from
	}
	cP, cS := ref.blockMin(from, to)
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

// blockMin is the least primary and the least secondary of the overlay block
// from cell i's borders to cell j's, +Inf for an empty block.
func (ref *naiveScores) blockMin(i, j int) (prim, sec float64) {
	o, b := ref.o, len(ref.o.borders)
	prim, sec = math.Inf(1), math.Inf(1)
	for _, u := range o.cells[i].nodes[:o.cells[i].nb] {
		for _, w := range o.cells[j].nodes[:o.cells[j].nb] {
			at := int(o.borderIdx[u])*b + int(o.borderIdx[w])
			prim, sec = math.Min(prim, ref.ovP[at]), math.Min(sec, ref.ovS[at])
		}
	}
	return prim, sec
}

// checkPairMin checks that o's stored cell-pair minima equal, bit for bit,
// a scan of every overlay block under both metrics.
func checkPairMin(t *testing.T, where string, o *PartitionedOracle) {
	t.Helper()
	nc := len(o.cells)
	for _, m := range []Metric{ByObjective, ByBudget} {
		if len(o.pairMin[m]) != nc*nc {
			t.Fatalf("%s metric %d: %d cell-pair minima for %d cells", where, m, len(o.pairMin[m]), nc)
		}
		ref := newNaiveScores(o, m)
		for i := range o.cells {
			for j := range o.cells {
				var want scorePair
				want.prim, want.sec = ref.blockMin(i, j)
				got := o.pairMin[m][i*nc+j]
				if math.Float64bits(got.prim) != math.Float64bits(want.prim) || math.Float64bits(got.sec) != math.Float64bits(want.sec) {
					t.Fatalf("%s metric %d cells (%d,%d): stored %v, block scan %v", where, m, i, j, got, want)
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
