package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"kor/internal/gen"
	"kor/internal/graph"
)

// barbellTestGraph is two two-way rings of ring nodes each joined by one
// two-way edge: partitioned at cell size ring, each ring is a cell with a
// single border node.
func barbellTestGraph(rng *rand.Rand, ring int) *graph.Graph {
	b := withNodes(2 * ring)
	both := func(u, v int) {
		_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.05+rng.Float64(), 0.05+rng.Float64())
		_ = b.AddEdge(graph.NodeID(v), graph.NodeID(u), 0.05+rng.Float64(), 0.05+rng.Float64())
	}
	for i := 0; i < ring; i++ {
		both(i, (i+1)%ring)
		both(ring+i, ring+(i+1)%ring)
	}
	both(ring/2, ring+ring/2)
	return b.MustBuild()
}

// touched counts the slice's published blocks, and computed the node scores
// published in them (the root's is answered without one).
func (ts *TargetSlice) touched() (blocks, computed int) {
	for i := range ts.blocks {
		blk := ts.blocks[i].Load()
		if blk == nil {
			continue
		}
		blocks++
		entries := unsafe.Slice(blk, len(ts.o.cells[i].nodes))
		for j := range entries {
			if entries[j].prim.Load() != 0 {
				computed++
			}
		}
	}
	return blocks, computed
}

// naiveScores is the reference the kernels are checked against: the pair
// assembly written the obvious way — a loop over every node of either cell
// that borderIdx calls a border, probing a row-major copy of the overlay —
// with none of the oracle's index arithmetic. The copy is made by walking
// the blocked tables in storage order: source cell, target cell, the
// source's borders, the target's borders.
type naiveScores struct {
	o        *PartitionedOracle
	m        Metric
	ovP, ovS []float64 // [b1*B+b2]
}

func newNaiveScores(o *PartitionedOracle, m Metric) *naiveScores {
	b := len(o.borders)
	ref := &naiveScores{o: o, m: m, ovP: make([]float64, b*b), ovS: make([]float64, b*b)}
	srcP, srcS, _ := o.overlayTables(m)
	pos := 0
	for i := range o.cells {
		for j := range o.cells {
			for x := 0; x < o.cells[i].nb; x++ {
				b1 := int(o.borderIdx[o.cells[i].nodes[x]])
				for y := 0; y < o.cells[j].nb; y++ {
					b2 := int(o.borderIdx[o.cells[j].nodes[y]])
					ref.ovP[b1*b+b2], ref.ovS[b1*b+b2] = srcP[pos], srcS[pos]
					pos++
				}
			}
		}
	}
	return ref
}

func lexLess(p, s, bestP, bestS float64) bool { return p < bestP || (p == bestP && s < bestS) }

// pair is the flat minimum over (b1, b2) of head + (mid + tail): what query
// and the target slices must return, bit for bit. (+Inf, +Inf): no path.
func (ref *naiveScores) pair(from, to graph.NodeID) (float64, float64) {
	return ref.assemble(from, to, func(head, mid, tail float64) float64 { return head + (mid + tail) })
}

func (ref *naiveScores) assemble(from, to graph.NodeID, sum func(head, mid, tail float64) float64) (float64, float64) {
	if from == to {
		return 0, 0
	}
	o, b := ref.o, len(ref.o.borders)
	ci, cj := &o.cells[o.region[from]], &o.cells[o.region[to]]
	ki, kj := len(ci.nodes), len(cj.nodes)
	li, lj := int(o.local[from]), int(o.local[to])
	iP, iS, _ := ci.scoreTables(ref.m)
	jP, jS, _ := cj.scoreTables(ref.m)
	bestP, bestS := math.Inf(1), math.Inf(1)
	if ci == cj {
		bestP, bestS = iP[li*ki+lj], iS[li*ki+lj]
	}
	for l1, v1 := range ci.nodes {
		b1 := int(o.borderIdx[v1])
		if b1 < 0 || math.IsInf(iP[li*ki+l1], 1) {
			continue
		}
		for l2, v2 := range cj.nodes {
			b2 := int(o.borderIdx[v2])
			if b2 < 0 || math.IsInf(jP[l2*kj+lj], 1) || math.IsInf(ref.ovP[b1*b+b2], 1) {
				continue
			}
			p := sum(iP[li*ki+l1], ref.ovP[b1*b+b2], jP[l2*kj+lj])
			s := sum(iS[li*ki+l1], ref.ovS[b1*b+b2], jS[l2*kj+lj])
			if lexLess(p, s, bestP, bestS) {
				bestP, bestS = p, s
			}
		}
	}
	return bestP, bestS
}

// sourcePair is the association source slices document: the best
// (head + mid) per border of to's cell first, then the best of those + tail.
func (ref *naiveScores) sourcePair(from, to graph.NodeID) (float64, float64) {
	if from == to {
		return 0, 0
	}
	o, b := ref.o, len(ref.o.borders)
	ci, cj := &o.cells[o.region[from]], &o.cells[o.region[to]]
	ki, kj := len(ci.nodes), len(cj.nodes)
	li, lj := int(o.local[from]), int(o.local[to])
	iP, iS, _ := ci.scoreTables(ref.m)
	jP, jS, _ := cj.scoreTables(ref.m)
	bestP, bestS := math.Inf(1), math.Inf(1)
	if ci == cj {
		bestP, bestS = iP[li*ki+lj], iS[li*ki+lj]
	}
	for l2, v2 := range cj.nodes {
		b2 := int(o.borderIdx[v2])
		if b2 < 0 {
			continue
		}
		hmP, hmS := math.Inf(1), math.Inf(1)
		for l1, v1 := range ci.nodes {
			b1 := int(o.borderIdx[v1])
			if b1 < 0 || math.IsInf(iP[li*ki+l1], 1) || math.IsInf(ref.ovP[b1*b+b2], 1) {
				continue
			}
			if p, s := iP[li*ki+l1]+ref.ovP[b1*b+b2], iS[li*ki+l1]+ref.ovS[b1*b+b2]; lexLess(p, s, hmP, hmS) {
				hmP, hmS = p, s
			}
		}
		if math.IsInf(hmP, 1) || math.IsInf(jP[l2*kj+lj], 1) {
			continue
		}
		if p, s := hmP+jP[l2*kj+lj], hmS+jS[l2*kj+lj]; lexLess(p, s, bestP, bestS) {
			bestP, bestS = p, s
		}
	}
	return bestP, bestS
}

// TestSliceScoresMatchNaiveAssembly checks every score the kernels serve —
// pair queries and both slice directions, both metrics, into and out of
// every root (48 on the larger generators) — against the naive assembly bit
// for bit, on every partitioned form of the table's generators and on cells
// with a single border. The
// layout's corners: one cell (no border, an empty overlay), cells of two
// nodes, tied and continuous weights, disconnected parts, and bisected
// partitions of a road and a grid with positions. The positioned graphs
// carry dyadic weights: the kernels and the naive loop group the sums and
// minima differently, which agrees to the last bit only while every sum is
// exact (the unpositioned continuous ring agrees by luck; the positioned
// continuous road is held to the pair interface instead, see
// TestPositionedContinuousMatchesMatrix).
func TestSliceScoresMatchNaiveAssembly(t *testing.T) {
	conform(t, "partitioned", func(c *confGraph) bool { return c.exactSums || !c.g.HasPositions() }, func(t *testing.T, c *confCase) {
		checkNaive(t, c.part, c.roots(48))
	})
	rng := rand.New(rand.NewSource(2405))
	road := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 150})
	barbell := NewPartitionedOracle(barbellTestGraph(rng, 8), 8)
	if len(barbell.cells) != 2 || barbell.cells[0].nb != 1 || barbell.cells[1].nb != 1 {
		t.Fatalf("the barbell's partition (%d cells, %d borders) has no single-border cells", len(barbell.cells), len(barbell.borders))
	}
	checkNaive(t, barbell, allNodes(barbell.g))
	dyadicRoad := rebuilt(road, road.Position, dyadic)
	checkNaive(t, NewPartitionedOracle(dyadicRoad, 20), allNodes(dyadicRoad))
}

// checkNaive holds every score o serves into and out of roots to the naive
// assembly: target slices and pair queries to the flat minimum, source
// slices to the association they document, which in turn agrees with the
// flat minimum on reachability and to 1e-9.
func checkNaive(t *testing.T, o *PartitionedOracle, roots []graph.NodeID) {
	t.Helper()
	n := o.g.NumNodes()
	for _, m := range metrics {
		ref := newNaiveScores(o, m)
		for _, root := range roots {
			into, outOf := o.TargetSlice(root, m), o.SourceSlice(root, m)
			for v := graph.NodeID(0); int(v) < n; v++ {
				where := fmt.Sprintf("metric %d %d→%d", m, v, root)
				wantP, wantS := ref.pair(v, root)
				if gotP, gotS := primSec(into, v); gotP != wantP || gotS != wantS {
					t.Fatalf("%s: target slice (%v,%v), naive assembly (%v,%v)", where, gotP, gotS, wantP, wantS)
				}
				gotP, gotS, ok := o.query(v, root, m)
				if !ok {
					gotP, gotS = math.Inf(1), math.Inf(1)
				}
				if gotP != wantP || gotS != wantS {
					t.Fatalf("%s: query (%v,%v), naive assembly (%v,%v)", where, gotP, gotS, wantP, wantS)
				}
				wantP, wantS = ref.sourcePair(root, v)
				if gotP, gotS := primSec(outOf, v); gotP != wantP || gotS != wantS {
					t.Fatalf("%s reversed: source slice (%v,%v), naive assembly (%v,%v)", where, gotP, gotS, wantP, wantS)
				}
				flatP, flatS := ref.pair(root, v)
				if reach := !math.IsInf(flatP, 1); reach == math.IsInf(wantP, 1) || (reach && (!feq(wantP, flatP) || !feq(wantS, flatS))) {
					t.Fatalf("%s reversed: source association (%v,%v) strays from the pair query's (%v,%v)", where, wantP, wantS, flatP, flatS)
				}
			}
		}
	}
}

// TestSliceAssemblesOnlyTouchedCells: a fresh slice holds its bookkeeping and the
// root's vector; one lookup adds exactly its cell's block — one score array,
// one border vector — and computes exactly one score; lookups that stay
// inside k cells publish exactly k blocks, and the byte count — what
// MemoStats reports — is the bookkeeping plus those, nothing for the rest.
func TestSliceAssemblesOnlyTouchedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := ringGraph(rng, 90, 3*90)
	o := NewPartitionedOracle(g, 8)
	if len(o.cells) < 6 {
		t.Fatalf("only %d cells", len(o.cells))
	}
	blockBytes := func(ci int) int64 { return 16 * int64(len(o.cells[ci].nodes)+o.cells[ci].nb) }
	var resident int64
	for _, outbound := range []bool{false, true} {
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		var ts *TargetSlice
		if outbound {
			ts = o.SourceSlice(root, ByBudget)
		} else {
			ts = o.TargetSlice(root, ByBudget)
		}
		base := ts.bytes.Load()
		if blocks, _ := ts.touched(); blocks != 0 || base != sliceBaseBytes+sliceBlockBytes*int64(len(o.cells))+16*int64(o.cells[o.region[root]].nb) {
			t.Fatalf("fresh slice: %d blocks, %d bytes", blocks, base)
		}
		want := base
		cells := rng.Perm(len(o.cells))[:5]
		var first graph.NodeID
		for first = o.cells[cells[0]].nodes[0]; first == root; {
			first = o.cells[cells[0]].nodes[1]
		}
		ts.Scores(first)
		if blocks, computed := ts.touched(); blocks != 1 || computed != 1 || ts.bytes.Load() != base+blockBytes(cells[0]) {
			t.Fatalf("outbound=%v: one lookup left %d blocks, %d scores, %d bytes; want 1, 1, %d",
				outbound, blocks, computed, ts.bytes.Load(), base+blockBytes(cells[0]))
		}
		for k, ci := range cells {
			for rep := 0; rep < 2; rep++ { // the second pass must find everything published
				for _, v := range o.cells[ci].nodes {
					ts.Scores(v)
				}
			}
			want += blockBytes(ci)
			if blocks, _ := ts.touched(); blocks != k+1 {
				t.Fatalf("outbound=%v: %d blocks after lookups in %d cells", outbound, blocks, k+1)
			}
			if got := ts.bytes.Load(); got != want {
				t.Fatalf("outbound=%v: slice counts %d bytes, want %d", outbound, got, want)
			}
		}
		if want >= o.sliceBytes() {
			t.Fatalf("a partly read slice counts %d bytes, the worst case is %d", want, o.sliceBytes())
		}
		resident += want
	}
	if st := o.MemoStats(); st.Entries != 2 || st.ResidentBytes != resident {
		t.Fatalf("MemoStats = %+v, the two slices hold %d bytes", st, resident)
	}

	// Every cell touched is the most a slice holds, and what it is charged —
	// but for the root's vector, charged at the widest cell's border count.
	ts := o.TargetSlice(0, ByObjective)
	for v := 0; v < g.NumNodes(); v++ {
		ts.Scores(graph.NodeID(v))
	}
	maxNB := 0
	for i := range o.cells {
		maxNB = max(maxNB, o.cells[i].nb)
	}
	if got, want := ts.bytes.Load(), o.sliceBytes()-16*int64(maxNB-o.cells[o.region[0]].nb); got != want {
		t.Fatalf("a fully read slice counts %d bytes, want %d (charged %d)", got, want, o.sliceBytes())
	}
}

// sliceBenchBalls: per root, the nodes a reverse σ sweep truncated at delta
// settles — the only nodes a label of a query with that budget can ask a
// slice into the root about.
func sliceBenchBalls(g *graph.Graph, roots []graph.NodeID, delta float64) [][]graph.NodeID {
	balls := make([][]graph.NodeID, len(roots))
	for i, root := range roots {
		sw := ReverseBoundedSweep(g, root, ByBudget, delta)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if _, _, ok := sw.Scores(v); ok {
				balls[i] = append(balls[i], v)
			}
		}
	}
	return balls
}

// BenchmarkSliceFirstTouch measures what one query pays for one candidate on
// a non-repeating stream: a cold slice into a root, looked up at the nodes
// within the budget Δ of it — the only nodes a label can ask about. The
// segments/slice metric is the deterministic work counter: how many of the
// partition's cells those lookups touch.
func BenchmarkSliceFirstTouch(b *testing.B) {
	const delta = 9 // km: the bench road-uniform stream's Δ on the same 40 km plane
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 2000})
	o := NewPartitionedOracle(g, DefaultCellSize)
	rng := rand.New(rand.NewSource(1))
	roots := make([]graph.NodeID, 8)
	for i := range roots {
		roots[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	balls := sliceBenchBalls(g, roots, delta)
	segments := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, root := range roots {
			ts := o.newSlice(root, ByBudget, false)
			for _, v := range balls[r] {
				ts.Scores(v)
			}
			blocks, _ := ts.touched()
			segments += blocks
		}
	}
	b.ReportMetric(float64(segments)/float64(b.N*len(roots)), "segments/slice")
	b.ReportMetric(float64(len(o.cells)), "cells")
}

// BenchmarkSliceColdBall is BenchmarkSweepBall's counterpart on the index:
// the same graph, roots and Δ, each iteration a fresh slice into the next
// root looked up at exactly the nodes the bounded sweep settles. scores/op
// is the deterministic work counter (over whole passes of the 256 roots):
// the node scores the slice computed, which must equal lookups/op — a slice
// computes what is read and nothing else.
func BenchmarkSliceColdBall(b *testing.B) {
	g, roots := sweepBenchRoots()
	o := NewPartitionedOracle(g, DefaultCellSize)
	balls := sliceBenchBalls(g, roots, 9)
	// The work counters come from an untimed pass: one fresh slice per root.
	lookups, scores := make([]int, len(roots)), make([]int, len(roots))
	for r, root := range roots {
		ts := o.newSlice(root, ByBudget, false)
		for _, v := range balls[r] {
			ts.Scores(v)
		}
		_, computed := ts.touched()
		lookups[r], scores[r] = len(balls[r]), computed+1 // the root is in its own ball and answered without an entry
	}
	totalLookups, totalScores := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % len(roots)
		ts := o.newSlice(roots[r], ByBudget, false)
		for _, v := range balls[r] {
			ts.Scores(v)
		}
		totalLookups += lookups[r]
		totalScores += scores[r]
	}
	b.ReportMetric(float64(totalLookups)/float64(b.N), "lookups/op")
	b.ReportMetric(float64(totalScores)/float64(b.N), "scores/op")
}

// primSec reads v off ts through Scores and returns the answer in the
// slice's metric order, +Inf on both when there is no path: the shape the
// naive assembly and the table queries answer in.
func primSec(ts *TargetSlice, v graph.NodeID) (prim, sec float64) {
	os, bs, ok := ts.Scores(v)
	switch {
	case !ok:
		return math.Inf(1), math.Inf(1)
	case ts.metric == ByBudget:
		return bs, os
	}
	return os, bs
}
