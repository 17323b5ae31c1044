package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kor/internal/graph"
)

// tiedTestGraph is a ring with random chords whose weights are all 1 or 2:
// every sum is an exact small integer, so scores tie often and a bound can
// be met exactly.
func tiedTestGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	add := func(from, to int) {
		if from != to {
			_ = b.AddEdge(graph.NodeID(from), graph.NodeID(to), float64(1+rng.Intn(2)), float64(1+rng.Intn(2)))
		}
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for k := 0; k < 2*n; k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// ringTestGraph is a two-way ring with continuous weights and no chords:
// optimal paths are long, so an ellipse cuts them at many points.
func ringTestGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j), 0.05+rng.Float64(), 0.05+rng.Float64())
		_ = b.AddEdge(graph.NodeID(j), graph.NodeID(i), 0.05+rng.Float64(), 0.05+rng.Float64())
	}
	return b.MustBuild()
}

// restrictedAgrees checks a sweep into c restricted to a source frontier out
// of s against the unrestricted sweep at the same bound and the full σ sweeps
// out of s (fromS) and into c (intoC): every node v with BS(σ(s,v)) +
// BS(σ(v,c)) ≤ bound is held, every held node carries the unrestricted
// scores and walk, and, when the graph's sums are exact, no held node but
// the root lies outside the bound. It returns the nodes held and the nodes
// the restriction dropped.
func restrictedAgrees(got, want *Sweep, fromS, intoC *sweep, c graph.NodeID, bound float64, exact bool) (held, dropped int, msg string) {
	for v := graph.NodeID(0); int(v) < len(fromS.primary); v++ {
		inside := fromS.primary[v]+intoC.primary[v] <= bound // +Inf when either is unreachable
		os, bs, ok := got.Scores(v)
		wos, wbs, wok := want.Scores(v)
		switch {
		case !ok && inside:
			return 0, 0, fmt.Sprintf("node %d inside the ellipse (%v + %v ≤ %v) is not held", v, fromS.primary[v], intoC.primary[v], bound)
		case !ok:
			if wok {
				dropped++
			}
			continue
		case v == c && (os != 0 || bs != 0):
			return 0, 0, fmt.Sprintf("the root scores (%v, %v)", os, bs)
		case v != c && exact && !inside:
			return 0, 0, fmt.Sprintf("node %d held outside the ellipse (%v + %v > %v)", v, fromS.primary[v], intoC.primary[v], bound)
		case !wok || os != wos || bs != wbs:
			return 0, 0, fmt.Sprintf("node %d: (%v, %v, %v), unrestricted (%v, %v, %v)", v, os, bs, ok, wos, wbs, wok)
		}
		gw, _ := got.Walk(v)
		if ww, _ := want.Walk(v); !slices.Equal(gw, ww) {
			return 0, 0, fmt.Sprintf("node %d: walk %v, unrestricted %v", v, gw, ww)
		}
		held++
	}
	return held, dropped, ""
}

// TestRestrictedSweep: a reverse σ sweep into c restricted to a source
// frontier out of s holds every node of the ellipse BS(σ(s,v)) + BS(σ(v,c))
// ≤ bound, each with the scores and walk of the unrestricted sweep, and on
// graphs with exact sums nothing outside it but the root; a negative bound
// holds the root only. One frontier serves a run of sweeps into different
// roots at different bounds and settles no node past the largest bound it
// was asked about.
func TestRestrictedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3401))
	graphs := []struct {
		name  string
		g     *graph.Graph
		exact bool
	}{
		{"random", randomTestGraph(rng, 70, false), false},
		{"tied", tiedTestGraph(rng, 70), true},
		{"ring", ringTestGraph(rng, 50), false},
		{"disconnected", sparseTestGraph(rng, 70), true},
	}
	for _, gc := range graphs {
		g, n := gc.g, gc.g.NumNodes()
		o := NewLazyOracle(g)
		var held, dropped int
		for trial := 0; trial < 40; trial++ {
			s := graph.NodeID(rng.Intn(n))
			fromS := dijkstra(g, s, ByBudget, false)
			src := o.Frontier(s, ByBudget, true)
			asked := math.Inf(-1)
			for k := 0; k < 6; k++ {
				c := graph.NodeID(rng.Intn(n))
				intoC := dijkstra(g, c, ByBudget, true)
				var bound float64
				switch v := graph.NodeID(rng.Intn(n)); {
				case k == 5:
					bound = -1
				case gc.exact && !math.IsInf(fromS.primary[v]+intoC.primary[v], 1):
					bound = fromS.primary[v] + intoC.primary[v] // met exactly at v
				default:
					bound = 12 * rng.Float64()
				}
				asked = max(asked, bound)
				name := fmt.Sprintf("%s trial %d: s %d, c %d, bound %v", gc.name, trial, s, c, bound)

				got := o.ReverseSweep(c, ByBudget, bound, src)
				want := ReverseBoundedSweep(g, c, ByBudget, bound)
				h, d, msg := restrictedAgrees(got, want, fromS, intoC, c, bound, gc.exact)
				if msg != "" {
					t.Fatalf("%s: %s", name, msg)
				}
				if bound < 0 && h != 1 {
					t.Fatalf("%s: a negative bound holds %d nodes, want the root only", name, h)
				}
				held += h
				dropped += d
			}
			for _, v := range src.Order() {
				if _, bs, _ := src.Scores(v); bs > asked {
					t.Fatalf("%s trial %d: the source frontier settled node %d at %v, past the largest bound asked, %v", gc.name, trial, v, bs, asked)
				}
			}
			src.Close()
		}
		if held < 500 || dropped < 100 {
			t.Fatalf("%s: %d nodes held, %d dropped by the restriction: the bounds no longer exercise it", gc.name, held, dropped)
		}
	}
}
