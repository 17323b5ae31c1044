package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kor/internal/graph"
)

// vectorCase is one vector under test with the pair interface it must agree
// with.
type vectorCase struct {
	name     string
	v        Vector
	outbound bool    // root→v rather than v→root
	bound    float64 // primary score past which the vector may report no path
	ref      Oracle  // the pair interface it answers for
	exact    bool    // bit for bit, or up to floating-point association
}

// pairScores asks o for the m-optimal pair from→to, in (os, bs, ok) order.
func pairScores(o Oracle, m Metric, from, to graph.NodeID) (os, bs float64, ok bool) {
	if m == ByObjective {
		return o.MinObjective(from, to)
	}
	return o.MinBudget(from, to)
}

// checkVector reads every node of g off c.v and compares Scores with the
// reference pair interface, in (os, bs, ok) order, and Walk with Scores: the
// walk runs between the right endpoints, in the vector's direction, and its
// edges re-add to the scores. A node the reference cannot reach, or reaches
// only past the vector's bound, gets ok=false and no walk.
func checkVector(g *graph.Graph, c vectorCase, root graph.NodeID, m Metric) string {
	for i := 0; i < g.NumNodes(); i++ {
		v := graph.NodeID(i)
		from, to := v, root
		if c.outbound {
			from, to = root, v
		}
		wos, wbs, wok := pairScores(c.ref, m, from, to)
		prim := wos
		if m == ByBudget {
			prim = wbs
		}
		os, bs, ok := c.v.Scores(v)
		path, pok := c.v.Walk(v)
		if !ok {
			if wok && prim <= c.bound {
				return fmt.Sprintf("%d→%d: no path, the pair interface has (%v, %v)", from, to, wos, wbs)
			}
			if pok {
				return fmt.Sprintf("%d→%d: no score but a walk %v", from, to, path)
			}
			continue
		}
		if !wok {
			return fmt.Sprintf("%d→%d: scores (%v, %v) for a pair the pair interface cannot reach", from, to, os, bs)
		}
		if c.exact && (os != wos || bs != wbs) || !c.exact && (!feq(os, wos) || !feq(bs, wbs)) {
			return fmt.Sprintf("%d→%d: scores (%v, %v), the pair interface (%v, %v)", from, to, os, bs, wos, wbs)
		}
		if !pok || len(path) == 0 || path[0] != from || path[len(path)-1] != to {
			return fmt.Sprintf("%d→%d: walk %v (ok %v)", from, to, path, pok)
		}
		var sumO, sumB float64
		for k := 1; k < len(path); k++ {
			e, found := hop(g, path[k-1], path[k], m)
			if !found {
				return fmt.Sprintf("%d→%d: walk %v takes a hop that is no edge", from, to, path)
			}
			sumO, sumB = sumO+e.Objective, sumB+e.Budget
		}
		if !feq(sumO, os) || !feq(sumB, bs) {
			return fmt.Sprintf("%d→%d: walk %v sums to (%v, %v), scores (%v, %v)", from, to, path, sumO, sumB, os, bs)
		}
	}
	return ""
}

// hop returns the edge a two-criteria search under m takes from a to b.
func hop(g *graph.Graph, a, b graph.NodeID, m Metric) (graph.Edge, bool) {
	var best graph.Edge
	found := false
	for _, e := range g.Out(a) {
		if e.To != b {
			continue
		}
		p, s, bp, bsec := e.Objective, e.Budget, best.Objective, best.Budget
		if m == ByBudget {
			p, s, bp, bsec = s, p, bsec, bp
		}
		if !found || lexLess(p, s, bp, bsec) {
			best, found = e, true
		}
	}
	return best, found
}

// TestVectorConformance holds every Vector implementation to the one
// contract the query plan reads — the matrix oracle's pair view, the lazy
// oracle's full and bounded sweeps into a root and its pair view out of one,
// frontiers both ways partly advanced and drained, and target
// and source slices of the partitioned oracle in memory and off disk — on
// the tied, ring and disconnected generators, both metrics, several roots.
// Dijkstra-backed vectors and target slices must match the pair interface
// bit for bit; source slices to 1e-9 (see SourceSliced).
func TestVectorConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(2801))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"tied", randomTestGraph(rng, 40, true)},
		{"ring", randomTestGraph(rng, 45, false)},
		{"disconnected", sparseTestGraph(rng, 50)},
	}
	inf := math.Inf(1)
	for _, gc := range graphs {
		g, n := gc.g, gc.g.NumNodes()
		matrix := NewMatrixOracle(g)
		lazy := NewLazyOracle(g) // its pair lookups run reverse frontiers
		mem, disk, _ := writeTestIndex(t, g, 6)

		if OpenFrontier(matrix, 0, ByObjective, true) != nil || OpenFrontier(mem, 0, ByObjective, true) != nil {
			t.Fatal("a table-backed oracle opened a frontier")
		}
		if _, ok := OutOf(lazy, 0, ByObjective).(*pairVector); !ok {
			t.Fatal("the lazy oracle's vector out of a root is not its pair view")
		}
		if _, ok := OutOf(disk, 0, ByObjective).(*sliceVector); !ok {
			t.Fatal("the partitioned oracle's vector out of a root is not a source slice")
		}
		unreachable := 0
		for r := 0; r < 4; r++ {
			root := graph.NodeID(rng.Intn(n))
			for _, m := range []Metric{ByObjective, ByBudget} {
				bound := 1 + 3*rng.Float64()
				into := func(o Oracle, bound float64) Vector {
					v, _ := Into(o, root, m, bound, nil)
					return v
				}

				partly := OpenFrontier(lazy, root, m, false)
				for k := rng.Intn(n); k > 0 && partly.Next(); k-- {
				}
				settled := append([]graph.NodeID(nil), partly.Order()...)
				for _, v := range settled {
					os, bs, ok := partly.Scores(v)
					wos, wbs, wok := pairScores(lazy, m, v, root)
					if !ok || !wok || os != wos || bs != wbs {
						t.Fatalf("%s root %d metric %d: settled node %d reads (%v, %v, %v), the pair interface (%v, %v, %v)",
							gc.name, root, m, v, os, bs, ok, wos, wbs, wok)
					}
				}
				if len(partly.Order()) != len(settled) {
					t.Fatalf("%s root %d metric %d: reading settled nodes advanced the frontier", gc.name, root, m)
				}
				drained := OpenFrontier(lazy, root, m, true)
				for drained.Next() {
				}

				for _, c := range []vectorCase{
					{name: "matrix into", v: into(matrix, bound), bound: inf, ref: matrix, exact: true},
					{name: "matrix out", v: OutOf(matrix, root, m), outbound: true, bound: inf, ref: matrix, exact: true},
					{name: "lazy full into", v: into(lazy, inf), bound: inf, ref: lazy, exact: true},
					{name: "lazy bounded into", v: into(lazy, bound), bound: bound, ref: lazy, exact: true},
					{name: "lazy pair view out", v: OutOf(lazy, root, m), outbound: true, bound: inf, ref: lazy, exact: true},
					{name: "frontier into, partly advanced", v: partly, bound: inf, ref: lazy, exact: true},
					{name: "frontier out, drained", v: drained, outbound: true, bound: inf, ref: matrix, exact: true},
					{name: "memory target slice", v: into(mem, bound), bound: inf, ref: mem, exact: true},
					{name: "disk target slice", v: into(disk, bound), bound: inf, ref: disk, exact: true},
					{name: "memory source slice", v: OutOf(mem, root, m), outbound: true, bound: inf, ref: mem},
					{name: "disk source slice", v: OutOf(disk, root, m), outbound: true, bound: inf, ref: disk},
				} {
					if msg := checkVector(g, c, root, m); msg != "" {
						t.Fatalf("%s root %d metric %d, %s: %s", gc.name, root, m, c.name, msg)
					}
				}
				for i := 0; i < n; i++ {
					if _, _, ok := matrix.MinObjective(graph.NodeID(i), root); !ok {
						unreachable++
					}
				}
				partly.Close()
				drained.Close()
			}
		}
		if gc.name == "disconnected" && unreachable == 0 {
			t.Fatal("the disconnected graph produced no unreachable pair")
		}
		if open, _ := lazy.FrontierStats(); open != 0 {
			t.Fatalf("%s: %d frontiers left open", gc.name, open)
		}
	}

	// An oracle that materializes no paths still scores through the pair
	// view, and walks nothing.
	g := randomTestGraph(rng, 12, true)
	v, _ := Into(scoresOnly{NewMatrixOracle(g)}, 0, ByObjective, inf, nil)
	if _, _, ok := v.Scores(1); !ok {
		t.Fatal("the pair view lost a score")
	}
	if _, ok := v.Walk(1); ok {
		t.Fatal("the pair view walked a path its oracle cannot materialize")
	}
}

// scoresOnly hides every capability of an oracle but its pair scores.
type scoresOnly struct{ o Oracle }

func (s scoresOnly) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	return s.o.MinObjective(from, to)
}

func (s scoresOnly) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return s.o.MinBudget(from, to)
}
