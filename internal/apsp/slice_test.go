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

// sparseTestGraph is a random directed graph with no connecting ring: plenty
// of pairs have no path, which the ring of randomTestGraph rules out.
func sparseTestGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	seen := make(map[[2]int]bool)
	for k := 0; k < 3*n/2; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		_ = b.AddEdge(graph.NodeID(from), graph.NodeID(to), float64(1+rng.Intn(3)), float64(1+rng.Intn(3)))
	}
	return b.MustBuild()
}

// assembled counts the slice's published segments.
func (ts *TargetSlice) assembled() int {
	n := 0
	for i := range ts.cells {
		if ts.cells[i].seg.Load() != nil {
			n++
		}
	}
	return n
}

// TestSliceFirstTouchConcurrent is the per-cell view's contract: whatever
// order lookups from 8 goroutines first land in a slice's cells — racing
// assemblies included — every Scores(v) of a target slice equals the pair
// query on primary and secondary bit for bit, unreachable pairs included,
// and source slices agree with the pair interface on reachability and up to
// floating-point association (TestSourceSliceAgreement's contract). Random
// graphs (tied weights, continuous weights, disconnected), both metrics,
// memory- and disk-backed oracles. Run with -race.
func TestSliceFirstTouchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2212))
	for trial := 0; trial < 6; trial++ {
		n := 24 + rng.Intn(40)
		var g *graph.Graph
		if trial%3 == 2 {
			g = sparseTestGraph(rng, n)
		} else {
			g = randomTestGraph(rng, n, trial%3 == 0)
		}
		mem, disk, _ := writeTestIndex(t, g, 4+rng.Intn(8))
		for name, o := range map[string]*PartitionedOracle{"memory": mem, "disk": disk} {
			unreachable := 0
			for _, m := range []Metric{ByObjective, ByBudget} {
				for r := 0; r < 4; r++ {
					root := graph.NodeID(rng.Intn(n))
					into, outOf := o.TargetSlice(root, m), o.SourceSlice(root, m)
					var wg sync.WaitGroup
					errs := make(chan string, 8)
					for w := 0; w < 8; w++ {
						wg.Add(1)
						go func(order []int) {
							defer wg.Done()
							for _, i := range order {
								v := graph.NodeID(i)
								wantP, wantS, ok := o.query(v, root, m)
								if !ok {
									wantP, wantS = math.Inf(1), math.Inf(1)
								}
								if gotP, gotS := into.Scores(v); gotP != wantP || gotS != wantS {
									errs <- fmt.Sprintf("target slice (%v,%v) != query (%v,%v) at %d→%d", gotP, gotS, wantP, wantS, v, root)
									return
								}
								wantP, wantS, ok = o.query(root, v, m)
								gotP, gotS := outOf.Scores(v)
								if math.IsInf(gotP, 1) == ok || (ok && (!feq(gotP, wantP) || !feq(gotS, wantS))) {
									errs <- fmt.Sprintf("source slice (%v,%v) vs query (%v,%v,%v) at %d→%d", gotP, gotS, wantP, wantS, ok, root, v)
									return
								}
							}
						}(rng.Perm(n))
					}
					wg.Wait()
					close(errs)
					for msg := range errs {
						t.Fatalf("trial %d %s metric %d: %s", trial, name, m, msg)
					}
					if got := into.assembled(); got != len(o.cells) {
						t.Fatalf("trial %d %s: %d of %d cells assembled after touching every node", trial, name, got, len(o.cells))
					}
					for v := 0; v < n; v++ {
						if p, _ := into.Scores(graph.NodeID(v)); math.IsInf(p, 1) {
							unreachable++
						}
					}
				}
			}
			if trial%3 == 2 && unreachable == 0 {
				t.Fatalf("trial %d %s: the disconnected graph produced no unreachable pair", trial, name)
			}
		}
	}
}

// TestSliceAssemblesOnlyTouchedCells: a slice whose lookups stay inside k
// cells holds exactly k segments, and its byte count — what MemoStats
// reports — is the bookkeeping plus those k segments, nothing for the rest.
func TestSliceAssemblesOnlyTouchedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTestGraph(rng, 90, false)
	o := NewPartitionedOracle(g, 8)
	if len(o.cells) < 6 {
		t.Fatalf("only %d cells", len(o.cells))
	}
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
		if got := ts.assembled(); got != 0 || base != sliceBaseBytes+sliceCellBytes*int64(len(o.cells)) {
			t.Fatalf("fresh slice: %d segments, %d bytes", got, base)
		}
		want := base
		for k, ci := range rng.Perm(len(o.cells))[:5] {
			for rep := 0; rep < 2; rep++ { // the second pass must find every segment published
				for _, v := range o.cells[ci].nodes {
					ts.Scores(v)
				}
			}
			want += scorePairBytes * int64(len(o.cells[ci].nodes))
			if got := ts.assembled(); got != k+1 {
				t.Fatalf("outbound=%v: %d segments after lookups in %d cells", outbound, got, k+1)
			}
			if got := ts.bytes.Load(); got != want {
				t.Fatalf("outbound=%v: slice counts %d bytes, want %d", outbound, got, want)
			}
		}
		if want >= sliceBytes(g.NumNodes()) {
			t.Fatalf("a partly assembled slice counts %d bytes, the worst case is %d", want, sliceBytes(g.NumNodes()))
		}
		resident += want
	}
	if st := o.MemoStats(); st.Entries != 2 || st.ResidentBytes != resident {
		t.Fatalf("MemoStats = %+v, the two slices hold %d bytes", st, resident)
	}
}

// BenchmarkSliceFirstTouch measures what one query pays for one candidate on
// a non-repeating stream: a cold slice into a root, looked up at the nodes
// within the budget Δ of it — the only nodes a label can ask about. The
// segments/slice metric is the deterministic work counter: how many of the
// partition's cells those lookups assemble.
func BenchmarkSliceFirstTouch(b *testing.B) {
	const delta = 9 // km: the bench road-uniform stream's Δ on the same 40 km plane
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 2000})
	o := NewPartitionedOracle(g, DefaultCellSize)
	rng := rand.New(rand.NewSource(1))
	roots := make([]graph.NodeID, 8)
	balls := make([][]graph.NodeID, len(roots))
	for i := range roots {
		roots[i] = graph.NodeID(rng.Intn(g.NumNodes()))
		sw := ReverseBoundedSweep(g, roots[i], ByBudget, delta)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if _, _, ok := sw.Scores(v); ok {
				balls[i] = append(balls[i], v)
			}
		}
	}
	segments := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, root := range roots {
			ts := o.newSlice(root, ByBudget, false)
			for _, v := range balls[r] {
				ts.Scores(v)
			}
			segments += ts.assembled()
		}
	}
	b.ReportMetric(float64(segments)/float64(b.N*len(roots)), "segments/slice")
	b.ReportMetric(float64(len(o.cells)), "cells")
}
