package apsp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// The oracle conformance table. The matrix, the lazy oracle and the
// partitioned index answer one contract — §3.1's τ and σ scores of every
// pair, the paths behind them and the vectors a query plan reads — and this
// file holds each of them to it: one set of generators (confGraphs) × one
// set of constructors (confOracles) × the properties below. Each test after
// the helpers is one row: a property over the constructors and generators it
// applies to, every cell of which runs as a subtest.

var metrics = []Metric{ByObjective, ByBudget}

// withNodes returns a builder holding n nodes.
func withNodes(n int) *graph.Builder {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	return b
}

// tiedGraph is a ring with random chords whose weights are all 1 or 2:
// every sum is an exact small integer, so scores tie often and a bound can
// be met exactly.
func tiedGraph(rng *rand.Rand, n int) *graph.Graph {
	b := withNodes(n)
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

// ringGraph is a two-way ring with continuous weights and the given number
// of random one-way chords: without chords optimal paths are long, so an
// ellipse or a partition cuts them at many points.
func ringGraph(rng *rand.Rand, n, chords int) *graph.Graph {
	b := withNodes(n)
	w := func() float64 { return 0.05 + rng.Float64() }
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j), w(), w())
		_ = b.AddEdge(graph.NodeID(j), graph.NodeID(i), w(), w())
	}
	for k := 0; k < chords; k++ {
		if from, to := rng.Intn(n), rng.Intn(n); from != to {
			_ = b.AddEdge(graph.NodeID(from), graph.NodeID(to), w(), w())
		}
	}
	return b.MustBuild()
}

// disconnectedGraph is a random directed graph with no connecting ring and
// integer weights: plenty of pairs have no path.
func disconnectedGraph(rng *rand.Rand, n int) *graph.Graph {
	b := withNodes(n)
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

// confGraph is one generator of the table, with its Floyd–Warshall tables.
type confGraph struct {
	name      string
	g         *graph.Graph
	exactSums bool // every path sum is exact in float64, so scores agree bit for bit whatever order they add in
	fw        [2]*floydTables
}

// confGraphs is the one set of generators: the paper's Figure 1; tied
// integer weights; a chordless ring with continuous weights; a graph in
// disconnected parts; and two positioned graphs, cut by bisection — a road
// network with continuous weights and a grid with dyadic ones, whose exact
// ties test the tie order along with positions.
var confGraphs = sync.OnceValue(func() []*confGraph {
	rng := rand.New(rand.NewSource(5001))
	grid := gen.GridRoad(gen.GridConfig{Seed: 2012, Nodes: 100})
	gs := []*confGraph{
		{name: "paper", g: buildPaperGraph(), exactSums: true},
		{name: "tied", g: tiedGraph(rng, 48), exactSums: true},
		{name: "ring", g: ringGraph(rng, 40, 0)},
		{name: "disconnected", g: disconnectedGraph(rng, 50), exactSums: true},
		{name: "road", g: gen.RoadNetwork(gen.RoadConfig{Seed: 7, Nodes: 140})},
		{name: "grid, dyadic", g: rebuilt(grid, grid.Position, dyadic), exactSums: true},
	}
	for _, c := range gs {
		c.fw = [2]*floydTables{floydWarshall(c.g, ByObjective), floydWarshall(c.g, ByBudget)}
	}
	return gs
})

// roots returns every node of a graph of at most k nodes and k seeded draws
// of a larger one.
func (c *confGraph) roots(k int) []graph.NodeID {
	if c.g.NumNodes() > k {
		return sampleRoots(rand.New(rand.NewSource(int64(k))), c.g, k)
	}
	return allNodes(c.g)
}

// allNodes lists g's nodes in ID order.
func allNodes(g *graph.Graph) []graph.NodeID {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

// targets returns up to k roots for the rows that read every node into
// each through the pair interface — up to lazyK on a lazy oracle over a
// graph of more than 50 nodes, where every pair is a frontier run.
func (c *confCase) targets(k, lazyK int) []graph.NodeID {
	if c.lazy != nil && c.g.NumNodes() > 50 {
		k = lazyK
	}
	return c.roots(k)
}

// confOracle is one constructor's oracle over one generator.
type confOracle struct {
	family, label string
	o             Oracle
	lazy          *LazyOracle
	part          *PartitionedOracle
	mem           *PartitionedOracle // the memory build a partitioned form was written from
	file          string             // and the index file it was written to
	optimalSec    bool               // its secondaries are the lexicographic optimum: no path crosses a cell
}

// confOracles builds the constructors of the named families over c: the
// matrix; the lazy oracle; and the partitioned index — "one-cell" at cell
// size |V|, "partitioned" at |V|, 2 and DefaultCellSize (when below |V|) —
// each in memory, opened mapped and opened decoded.
func confOracles(t *testing.T, c *confGraph, families string) []*confOracle {
	n := c.g.NumNodes()
	var out []*confOracle
	for _, family := range strings.Fields(families) {
		switch family {
		case "matrix":
			out = append(out, &confOracle{family: family, label: family, o: NewMatrixOracle(c.g), optimalSec: true})
		case "lazy":
			lazy := NewLazyOracle(c.g)
			out = append(out, &confOracle{family: family, label: family, o: lazy, lazy: lazy, optimalSec: true})
		case "partitioned", "one-cell":
			sizes := []int{n}
			if family == "partitioned" {
				sizes = append(sizes, 2)
				if DefaultCellSize < n {
					sizes = append(sizes, DefaultCellSize)
				}
			}
			for _, size := range sizes {
				mem, mapped, path := writeTestIndex(t, c.g, size)
				for i, p := range []*PartitionedOracle{mem, mapped, openDecoded(t, path, c.g)} {
					out = append(out, &confOracle{family: "partitioned", label: fmt.Sprintf("cell size %d, %s", size, []string{"memory", "mapped", "decoded"}[i]),
						o: p, part: p, mem: mem, file: path, optimalSec: len(p.borders) == 0})
				}
			}
		}
	}
	return out
}

// confCase is one cell of the table: a generator and an oracle over it.
type confCase struct {
	*confGraph
	*confOracle
}

// conform runs check on every oracle of the named families over every
// generator graphs accepts (nil: all), one subtest per pair.
func conform(t *testing.T, families string, graphs func(*confGraph) bool, check func(*testing.T, *confCase)) {
	for _, cg := range confGraphs() {
		if graphs != nil && !graphs(cg) {
			continue
		}
		for _, co := range confOracles(t, cg, families) {
			t.Run(cg.name+"/"+co.label, func(t *testing.T) { check(t, &confCase{cg, co}) })
		}
	}
}

func positioned(c *confGraph) bool   { return c.g.HasPositions() }
func unpositioned(c *confGraph) bool { return !c.g.HasPositions() }

func feq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// ranked orders a pair's (objective, budget) scores as metric m ranks them.
func ranked(m Metric, os, bs float64) (prim, sec float64) {
	if m == ByBudget {
		return bs, os
	}
	return os, bs
}

// pair asks the oracle for the m-optimal pair from→to and holds it to
// Floyd–Warshall: the same reachability; the primary bit for bit on a graph
// whose sums are exact and to 1e-9 otherwise; the secondary the same way
// when the oracle's secondaries are optimal and no better than the optimum
// otherwise. It returns the primary and secondary, +Inf without a path.
func (c *confCase) pair(from, to graph.NodeID, m Metric) (p, s float64, msg string) {
	os, bs, ok := pairScores(c.o, m, from, to)
	p, s = ranked(m, os, bs)
	wp, ws, wok := c.fw[m].at(from, to)
	eq := feq
	if c.exactSums {
		eq = func(a, b float64) bool { return a == b }
	}
	if ok != wok || ok && (!eq(p, wp) || c.optimalSec && !eq(s, ws) || s < ws-1e-9) {
		return p, s, fmt.Sprintf("%d→%d metric %d: (%v, %v, %v), Floyd–Warshall (%v, %v, %v)", from, to, m, p, s, ok, wp, ws, wok)
	}
	if !ok {
		return math.Inf(1), math.Inf(1), ""
	}
	return p, s, ""
}

// vector resolves the vector the oracle hands out around root — into it at
// bound, or out of it — held to the pair interface bit for bit, but for
// source slices, to 1e-9 (see SourceSliced), and the secondary of a target
// slice crossing cells of a bisected graph with continuous weights, to 1e-9
// (it takes the least border completion before adding the head, so among
// primaries that round equal it may keep a secondary a last bit apart).
func (c *confCase) vector(root graph.NodeID, m Metric, outbound bool, bound float64) vectorCase {
	vc := vectorCase{outbound: outbound, bound: math.Inf(1), ref: c.o}
	switch {
	case outbound:
		vc.v = OutOf(c.o, root, m)
		if c.part != nil {
			vc.loose = 2
		}
	default:
		var ran bool
		if vc.v, ran = Into(c.o, root, m, bound, nil); ran {
			vc.bound = bound
		}
		if c.part != nil && !c.optimalSec && c.g.HasPositions() && !c.exactSums {
			vc.loose = 1
		}
	}
	return vc
}

// vectorCase is one vector under test with the pair interface it must agree
// with.
type vectorCase struct {
	v        Vector
	outbound bool    // root→v rather than v→root
	bound    float64 // primary score past which the vector may report no path
	ref      Oracle  // the pair interface it answers for
	loose    int     // 0: bit for bit; 1: the secondary to 1e-9; 2: both scores to 1e-9
}

// pairScores asks o for the m-optimal pair from→to, in (os, bs, ok) order.
func pairScores(o Oracle, m Metric, from, to graph.NodeID) (os, bs float64, ok bool) {
	if m == ByObjective {
		return o.MinObjective(from, to)
	}
	return o.MinBudget(from, to)
}

// checkVector runs checkNode at every node of g.
func checkVector(g *graph.Graph, c vectorCase, root graph.NodeID, m Metric) string {
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if msg := checkNode(g, c, root, v, m); msg != "" {
			return msg
		}
	}
	return ""
}

// checkNode reads v off c.v and compares Scores with the reference pair
// interface and Walk with Scores: the walk runs between the right endpoints,
// in the vector's direction, and its edges re-add to the scores. A node the
// reference cannot reach, or reaches only past the vector's bound, gets
// ok=false and no walk.
func checkNode(g *graph.Graph, c vectorCase, root, v graph.NodeID, m Metric) string {
	from, to := v, root
	if c.outbound {
		from, to = root, v
	}
	wos, wbs, wok := pairScores(c.ref, m, from, to)
	os, bs, ok := c.v.Scores(v)
	path, pok := c.v.Walk(v)
	p, s := ranked(m, os, bs)
	wp, ws := ranked(m, wos, wbs)
	switch {
	case !ok && wok && wp <= c.bound:
		return fmt.Sprintf("%d→%d: no path, the pair interface has (%v, %v)", from, to, wos, wbs)
	case !ok && pok:
		return fmt.Sprintf("%d→%d: no score but a walk %v", from, to, path)
	case !ok:
		return ""
	case !wok:
		return fmt.Sprintf("%d→%d: scores (%v, %v) for a pair the pair interface cannot reach", from, to, os, bs)
	case !(p == wp || c.loose == 2 && feq(p, wp)) || !(s == ws || c.loose >= 1 && feq(s, ws)):
		return fmt.Sprintf("%d→%d: scores (%v, %v), the pair interface (%v, %v)", from, to, os, bs, wos, wbs)
	case !pok || len(path) == 0 || path[0] != from || path[len(path)-1] != to:
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

// scoresOnly hides every capability of an oracle but its pair scores.
type scoresOnly struct{ o Oracle }

func (s scoresOnly) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	return s.o.MinObjective(from, to)
}

func (s scoresOnly) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return s.o.MinBudget(from, to)
}

// settleOrder lists the nodes a dense sweep reached in the order a run
// settles them: ascending (primary, secondary, node ID). With positive edge
// weights every label is final before the first node of its primary score
// settles, so this is the array scan's order too.
func settleOrder(ref *sweep) []graph.NodeID {
	var order []graph.NodeID
	for v, p := range ref.primary {
		if !math.IsInf(p, 1) {
			order = append(order, graph.NodeID(v))
		}
	}
	slices.SortFunc(order, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(ref.primary[a], ref.primary[b]), cmp.Compare(ref.secondary[a], ref.secondary[b]), cmp.Compare(a, b))
	})
	return order
}

// frontierAgrees drives f, a fresh run around root, until it drains,
// checking it after every step against the reference sweep: the head is the
// next node's primary score (+Inf once drained), the settle order is the
// reference's, and the node just settled carries its scores, parent and
// walk.
func frontierAgrees(f *Frontier, ref *sweep, root graph.NodeID, reverse bool, m Metric) string {
	order := settleOrder(ref)
	walk := walkForward
	if reverse {
		walk = walkReverse
	}
	for k := 0; ; k++ {
		head := math.Inf(1)
		if k < len(order) {
			head = ref.primary[order[k]]
		}
		if got := f.Head(); got != head {
			return fmt.Sprintf("%d settled: head %v, want %v", k, got, head)
		}
		if f.Next() != (k < len(order)) {
			return fmt.Sprintf("%d of %d settled: the run drains at the wrong step", k, len(order))
		}
		if k == len(order) {
			return ""
		}
		v := order[k]
		os, bs, ok := f.Scores(v)
		wos, wbs, _ := ref.scores(v, m)
		if got := f.Order(); len(got) != k+1 || got[k] != v || !f.Settled(v) {
			return fmt.Sprintf("%d settled: order ends %v, want node %d", k, got[max(0, len(got)-3):], v)
		}
		if !ok || os != wos || bs != wbs || f.sc.parent[v] != ref.parent[v] {
			return fmt.Sprintf("node %d: (%v, %v, parent %d), want (%v, %v, parent %d)", v, os, bs, f.sc.parent[v], wos, wbs, ref.parent[v])
		}
		got, _ := f.Walk(v)
		if want, _ := walk(ref, root, v); !slices.Equal(got, want) {
			return fmt.Sprintf("node %d: walk %v, want %v", v, got, want)
		}
	}
}

// someBound draws a bound for a sweep whose reference is ref: a random
// node's score (met exactly, or +Inf when it is unreachable), half of one,
// or +Inf.
func someBound(rng *rand.Rand, ref *sweep) float64 {
	p := ref.primary[rng.Intn(len(ref.primary))]
	switch rng.Intn(4) {
	case 0:
		return p / 2
	case 1:
		return math.Inf(1)
	}
	return p
}

// sweepAgrees runs sweep around a random one of c's first roots nodes,
// under a random metric, at a bound someBound draws, and holds it to the
// reference sweep in the direction reverse names (sameWithin).
func sweepAgrees(rng *rand.Rand, c *confCase, roots int, reverse bool, sweep func(graph.NodeID, Metric, float64) *sweep) string {
	root, m := graph.NodeID(rng.Intn(roots)), Metric(rng.Intn(2))
	ref := referenceSweep(c.g, root, m, reverse)
	bound := someBound(rng, ref)
	return sameWithin(sweep(root, m, bound), ref, root, bound)
}

// wear runs count random runs in sc, every other one a bounded sweep and the
// rest frontiers abandoned part way, labels still queued.
func wear(rng *rand.Rand, c *confCase, sc *sweepScratch, count int) {
	n := c.g.NumNodes()
	for i := 0; i < count; i++ {
		root, m, reverse := graph.NodeID(rng.Intn(n)), Metric(rng.Intn(2)), rng.Intn(2) == 0
		if i%2 == 0 {
			sc.run(c.g, root, m, reverse, c.fw[m].primary[rng.Intn(n*n)])
			continue
		}
		sc.start(c.g, root, m, reverse)
		for k := rng.Intn(n); k > 0 && sc.step(math.Inf(1)); k-- {
		}
	}
}

// concurrently runs read on 8 goroutines at once, each with its own random
// source and reps times, and fails on the first difference any reports.
// Run with -race.
func concurrently(t *testing.T, reps int, read func(rng *rand.Rand) string) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				if msg := read(rng); msg != "" {
					t.Error(msg)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
}

// fixtureDir holds the index files of fixtures built once per test binary.
var fixtureDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "apsp-test-")
	if err != nil {
		panic(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// roadIndex is the bench-scale fixture, built once per test binary: the
// 1,500-node road network cut by bisection at DefaultCellSize (12 cells,
// 363 borders), in memory and opened from its file, mapped and decoded.
// Under the race detector with atomic coverage its build takes about 25 s on
// a 2-CPU host, most of what the checks that read it cost.
var roadIndex = sync.OnceValues(func() (map[string]*PartitionedOracle, error) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500})
	mem := NewPartitionedOracle(g, DefaultCellSize)
	path := filepath.Join(fixtureDir, "road.kori")
	if err := mem.WriteIndexFile(path); err != nil {
		return nil, err
	}
	mapped, err := OpenIndex(path, g)
	if err != nil {
		return nil, err
	}
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	decoded, err := OpenIndex(path, g)
	return map[string]*PartitionedOracle{"memory": mem, "mapped": mapped, "decoded": decoded}, err
})

// TestOraclesAgreeWithFloydWarshall: every oracle answers every pair of
// every generator (into confCase.targets), both metrics, as Floyd–Warshall
// does (confCase.pair) — bit for bit where the sums are exact, to 1e-9
// otherwise, with a partitioned secondary no better than the optimum.
func TestOraclesAgreeWithFloydWarshall(t *testing.T) {
	conform(t, "matrix lazy partitioned", nil, func(t *testing.T, c *confCase) {
		for _, to := range c.targets(c.g.NumNodes(), 8) {
			for from := graph.NodeID(0); int(from) < c.g.NumNodes(); from++ {
				for _, m := range metrics {
					if _, _, msg := c.pair(from, to, m); msg != "" {
						t.Fatal(msg)
					}
				}
			}
		}
	})
}

// TestSelfPair: every oracle scores every node to itself (0, 0) under both
// metrics, and walks it as the one-node path.
func TestSelfPair(t *testing.T) {
	conform(t, "matrix lazy partitioned", nil, func(t *testing.T, c *confCase) {
		for _, v := range c.targets(c.g.NumNodes(), 8) {
			for _, m := range metrics {
				pv := &pairVector{c.o, v, m, false}
				os, bs, ok := pv.Scores(v)
				path, pok := pv.Walk(v)
				if !ok || os != 0 || bs != 0 || !pok || !slices.Equal(path, []graph.NodeID{v}) {
					t.Fatalf("metric %d: %d→%d scores (%v, %v, %v) walking %v (ok %v)", m, v, v, os, bs, ok, path, pok)
				}
			}
		}
	})
}

// TestUnreachable: on the generators with pairs that have no path — one-way
// edges of the paper's graph, the parts of the disconnected one — every
// oracle reports ok=false for each such pair into confCase.targets, under
// both metrics, and walks no path there.
func TestUnreachable(t *testing.T) {
	hasUnreachable := func(c *confGraph) bool { return c.name == "paper" || c.name == "disconnected" }
	conform(t, "matrix lazy partitioned", hasUnreachable, func(t *testing.T, c *confCase) {
		unreachable := 0
		for _, to := range c.targets(c.g.NumNodes(), 8) {
			for from := graph.NodeID(0); int(from) < c.g.NumNodes(); from++ {
				for _, m := range metrics {
					if _, _, wok := c.fw[m].at(from, to); wok {
						continue
					}
					unreachable++
					pv := &pairVector{c.o, to, m, false}
					os, bs, ok := pv.Scores(from)
					if path, pok := pv.Walk(from); ok || pok {
						t.Fatalf("metric %d: %d→%d has no path, the oracle scores (%v, %v, %v) walking %v (ok %v)", m, from, to, os, bs, ok, path, pok)
					}
				}
			}
		}
		if unreachable == 0 {
			t.Fatal("no unreachable pair asked")
		}
	})
}

// TestOracleTriangleInequality: every oracle's primary scores respect the
// triangle inequality, the property every pruning rule in the search
// algorithms leans on: on 200 sampled triples (i, k, j) per metric, k and j
// among confCase.targets, a pair reachable via k is reachable, and its
// score is at most the score via k.
func TestOracleTriangleInequality(t *testing.T) {
	conform(t, "matrix lazy partitioned", nil, func(t *testing.T, c *confCase) {
		n, targets, rng := c.g.NumNodes(), c.targets(c.g.NumNodes(), 8), rand.New(rand.NewSource(13))
		for _, m := range metrics {
			for probe := 0; probe < 200; probe++ {
				i, k, j := graph.NodeID(rng.Intn(n)), targets[rng.Intn(len(targets))], targets[rng.Intn(len(targets))]
				ij, okIJ := primary(c.o, m, i, j)
				ik, okIK := primary(c.o, m, i, k)
				kj, okKJ := primary(c.o, m, k, j)
				if okIK && okKJ && (!okIJ || ij > ik+kj+1e-9) {
					t.Fatalf("metric %d: %d→%d scores (%v, ok %v), via %d %v", m, i, j, ij, okIJ, k, ik+kj)
				}
			}
		}
	})
}

// primary is the m-optimal primary score from→to.
func primary(o Oracle, m Metric, from, to graph.NodeID) (float64, bool) {
	os, bs, ok := pairScores(o, m, from, to)
	p, _ := ranked(m, os, bs)
	return p, ok
}

// TestTauSigmaConsistency: every oracle keeps the trade-off of the two
// families on every pair into up to 24 roots (8 lazy, confCase.targets):
// both metrics reach it or neither, σ's budget is at most τ's and τ's
// objective at most σ's.
func TestTauSigmaConsistency(t *testing.T) {
	conform(t, "matrix lazy partitioned", nil, func(t *testing.T, c *confCase) {
		for _, to := range c.targets(24, 8) {
			for from := graph.NodeID(0); int(from) < c.g.NumNodes(); from++ {
				tauOS, tauBS, tauOK := c.o.MinObjective(from, to)
				sigOS, sigBS, sigOK := c.o.MinBudget(from, to)
				if tauOK != sigOK || tauOK && (sigBS > tauBS+1e-9 || tauOS > sigOS+1e-9) {
					t.Fatalf("%d→%d: τ (%v, %v, %v), σ (%v, %v, %v)", from, to, tauOS, tauBS, tauOK, sigOS, sigBS, sigOK)
				}
			}
		}
	})
}

// checkPaths walks every pair into up to 24 roots (4 lazy, confCase.targets)
// through the pair view — Min*Path, for from == to the one-node path — and
// holds each walk to the pair's scores (checkNode): a real path between the
// right endpoints whose edges re-add to them, and no path where there is no
// score.
func checkPaths(t *testing.T, c *confCase) {
	for _, root := range c.targets(24, 4) {
		for _, m := range metrics {
			if msg := checkVector(c.g, vectorCase{v: &pairVector{c.o, root, m, false}, bound: math.Inf(1), ref: c.o}, root, m); msg != "" {
				t.Fatalf("root %d metric %d: %s", root, m, msg)
			}
		}
	}
}

// TestPathScoresMatchReportedScores: the matrix's and the lazy oracle's
// paths realise their scores.
func TestPathScoresMatchReportedScores(t *testing.T) { conform(t, "matrix lazy", nil, checkPaths) }

// TestPartitionedIndexedPaths: the partitioned oracle's table walks realise
// their scores, in memory and off disk.
func TestPartitionedIndexedPaths(t *testing.T) { conform(t, "partitioned", nil, checkPaths) }

// TestOneCellMatchesMatrix: a partitioned oracle at cell size |V| — one cell,
// or on a disconnected graph without positions one per part, and no border —
// answers every pair with the matrix's scores, bit for bit, and on a graph
// with positions with the matrix's paths. Bisection lists the one cell in
// ascending node ID, so local index is node ID and the cell fill breaks
// exact ties as the matrix's does. A graph without positions grows its cells
// breadth-first, whose local order is not node-ID order, so among exactly
// tied paths the two may pick different ones: there only the scores, which
// do not depend on tie order, must agree.
func TestOneCellMatchesMatrix(t *testing.T) {
	conform(t, "one-cell", nil, func(t *testing.T, c *confCase) {
		if len(c.part.borders) != 0 {
			t.Fatalf("%d borders at cell size |V|", len(c.part.borders))
		}
		walks := 0
		if c.g.HasPositions() {
			walks = c.g.NumNodes()
		}
		sameAnswers(t, c.g, c.o, NewMatrixOracle(c.g), walks)
	})
}

// sameAnswers fails unless got answers every pair of g, both metrics, with
// want's scores bit for bit, and walks want's paths into the first walks
// nodes.
func sameAnswers(t *testing.T, g *graph.Graph, got, want Oracle, walks int) {
	t.Helper()
	for from := graph.NodeID(0); int(from) < g.NumNodes(); from++ {
		for to := graph.NodeID(0); int(to) < g.NumNodes(); to++ {
			for _, m := range metrics {
				gos, gbs, gok := pairScores(got, m, from, to)
				wos, wbs, wok := pairScores(want, m, from, to)
				var gp, wp []graph.NodeID
				if int(to) < walks {
					gp, _ = (&pairVector{got, to, m, false}).Walk(from)
					wp, _ = (&pairVector{want, to, m, false}).Walk(from)
				}
				if gos != wos || gbs != wbs || gok != wok || !slices.Equal(gp, wp) {
					t.Fatalf("metric %d %d→%d: (%v, %v, %v) walking %v, want (%v, %v, %v) walking %v", m, from, to, gos, gbs, gok, gp, wos, wbs, wok, wp)
				}
			}
		}
	}
}

// checkVectors resolves, for four roots (two on a lazy oracle over a large
// graph, confCase.targets) and both metrics, every vector the oracle hands
// out — Into at a bound, OutOf, and on the lazy oracle Into unbounded and
// OpenFrontier's runs, one part advanced and one drained — and holds each to
// the pair interface (confCase.vector, checkVector). The resolvers pick by
// capability: the lazy oracle's vector out of a root is its pair view, a
// partitioned oracle's are slices, and only the lazy oracle opens
// frontiers.
func checkVectors(t *testing.T, c *confCase) {
	g, n, inf := c.g, c.g.NumNodes(), math.Inf(1)
	rng := rand.New(rand.NewSource(2801))
	kinds := map[string]string{"matrix": "*apsp.pairVector *apsp.pairVector false", "lazy": "*apsp.Sweep *apsp.pairVector true",
		"partitioned": "*apsp.sliceVector *apsp.sliceVector false"}[c.family]
	var opened []*Frontier
	for _, root := range c.targets(4, 2) {
		for _, m := range metrics {
			bound, _, _ := c.fw[m].at(graph.NodeID(rng.Intn(n)), root)
			cases := []vectorCase{c.vector(root, m, false, bound), c.vector(root, m, true, inf)}
			drained := OpenFrontier(c.o, root, m, true)
			if got := fmt.Sprintf("%T %T %v", cases[0].v, cases[1].v, drained != nil); got != kinds {
				t.Fatalf("Into, OutOf and OpenFrontier resolve %s, want %s", got, kinds)
			}
			if drained != nil {
				for drained.Next() {
				}
				partly := OpenFrontier(c.o, root, m, false)
				for k := rng.Intn(n); k > 0 && partly.Next(); k-- {
				}
				settled := len(partly.Order())
				for _, v := range partly.Order() {
					partly.Scores(v)
				}
				if len(partly.Order()) != settled {
					t.Fatal("reading settled nodes advanced the frontier")
				}
				opened = append(opened, partly, drained)
				cases = append(cases, c.vector(root, m, false, inf), vectorCase{v: partly, bound: inf, ref: c.o},
					vectorCase{v: drained, outbound: true, bound: inf, ref: NewMatrixOracle(g)})
			}
			if c.family == "matrix" { // an oracle without paths still scores through the pair view
				v, _ := Into(scoresOnly{c.o}, root, m, inf, nil)
				if _, _, ok := v.Scores(root); !ok {
					t.Fatal("the pair view lost a score")
				}
				if _, ok := v.Walk(root); ok {
					t.Fatal("the pair view walked a path its oracle cannot materialize")
				}
			}
			for i, vc := range cases {
				if msg := checkVector(g, vc, root, m); msg != "" {
					t.Fatalf("root %d metric %d, vector %d: %s", root, m, i, msg)
				}
			}
		}
	}
	for _, f := range opened {
		f.Close()
	}
	if c.lazy != nil {
		if open, _ := c.lazy.FrontierStats(); open != 0 {
			t.Fatalf("%d frontiers left open", open)
		}
	}
}

// TestVectorConformance: the matrix's and the lazy oracle's vectors agree
// with their pair interfaces bit for bit.
func TestVectorConformance(t *testing.T) { conform(t, "matrix lazy", nil, checkVectors) }

// TestSourceSliceAgreement: on graphs without positions, a partitioned
// oracle's target slices agree with its pair interface bit for bit and its
// source slices to 1e-9, with the same reachability.
func TestSourceSliceAgreement(t *testing.T) { conform(t, "partitioned", unpositioned, checkVectors) }

// TestPositionedContinuousMatchesMatrix: the same on bisected graphs, where
// on continuous weights a target slice's secondary may stray a last bit.
func TestPositionedContinuousMatchesMatrix(t *testing.T) {
	conform(t, "partitioned", positioned, checkVectors)
}

// TestFrontierMatchesSweep: a frontier advanced node by node in a scratch
// worn by bounded runs and abandoned frontiers is at every step the
// reference sweep (frontierAgrees), both metrics, both directions; frontiers
// in pooled scratches are TestFrontierPoolConcurrent's.
func TestFrontierMatchesSweep(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		rng := rand.New(rand.NewSource(2701))
		worn := getScratch(c.g.NumNodes()) // kept out of the pool: the test owns its history
		for _, root := range c.roots(3) {
			for _, m := range metrics {
				for _, reverse := range []bool{false, true} {
					ref := referenceSweep(c.g, root, m, reverse)
					wear(rng, c, worn, 100)
					worn.start(c.g, root, m, reverse)
					if msg := frontierAgrees(&Frontier{sc: worn, root: root}, ref, root, reverse, m); msg != "" {
						t.Fatalf("root %d metric %d reverse %v: %s", root, m, reverse, msg)
					}
				}
			}
		}
	})
}

// TestSweepFormsAgree is the contract of the pooled Dijkstra: whatever form
// a sweep is computed and stored in — full and dense, truncated and compact,
// run in a scratch hundreds of runs have been through, or in one a frontier
// left mid-run — it is the reference sweep, bit for bit on primary,
// secondary and parent, at every node within its bound, and nothing beyond
// it. A bound below 0 (or NaN) still settles the root: it is radius 0.
func TestSweepFormsAgree(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		g, n := c.g, c.g.NumNodes()
		rng := rand.New(rand.NewSource(2301))
		worn := getScratch(n) // kept out of the pool: the test owns its history
		wear(rng, c, worn, 400)
		for _, m := range metrics {
			for _, reverse := range []bool{false, true} {
				root := graph.NodeID(rng.Intn(n))
				ref := referenceSweep(g, root, m, reverse)
				if full := dijkstra(g, root, m, reverse); full.slots != nil || !reflect.DeepEqual(full, ref) {
					t.Fatalf("root %d metric %d reverse %v: the full sweep is not the dense reference", root, m, reverse)
				}
				order := settleOrder(ref)
				p := ref.primary[order[rng.Intn(len(order))]]
				for _, bound := range []float64{-1, math.NaN(), 0, p / 2, p, 1e9} {
					s := dijkstraBounded(g, root, m, reverse, bound)
					name := fmt.Sprintf("root %d metric %d reverse %v bound %v", root, m, reverse, bound)
					if !(bound >= 0) {
						bound = 0
					}
					if s.slots == nil {
						t.Fatalf("%s: a truncated sweep is not compact", name)
					}
					if msg := sameWithin(s, ref, root, bound); msg != "" {
						t.Fatalf("%s: %s", name, msg)
					}
					worn.run(g, root, m, reverse, bound)
					if !reflect.DeepEqual(worn.compact(), s) {
						t.Fatalf("%s: a worn scratch produced a different sweep", name)
					}
					worn.start(g, root, 1-m, !reverse) // a frontier left mid-run
					for k := rng.Intn(n); k > 0 && worn.step(math.Inf(1)); k-- {
					}
					if worn.run(g, root, m, reverse, bound); !reflect.DeepEqual(worn.compact(), s) {
						t.Fatalf("%s: a scratch left mid-frontier produced a different sweep", name)
					}
				}
			}
		}
	})
}

// TestReverseBoundedSweepMatchesOracle: the exported reverse sweeps —
// ReverseBoundedSweep and the lazy oracle's ReverseSweep without a source
// frontier — hold every node within their bound with the reference sweep's
// scores, parent and walk, and nothing past it; the oracle counts each run
// and the nodes it settled.
func TestReverseBoundedSweepMatchesOracle(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		rng := rand.New(rand.NewSource(42))
		var settled int64
		for _, root := range c.roots(8) {
			for _, m := range metrics {
				ref := referenceSweep(c.g, root, m, true)
				bound := someBound(rng, ref)
				own := c.lazy.ReverseSweep(root, m, bound, nil)
				settled += int64(own.s.count())
				for _, sw := range []*Sweep{ReverseBoundedSweep(c.g, root, m, bound), own} {
					if msg := sameWithin(sw.s, ref, root, bound); msg != "" {
						t.Fatalf("root %d metric %d bound %v: %s", root, m, bound, msg)
					}
				}
			}
		}
		if runs := int64(2 * len(c.roots(8))); c.lazy.SweepCount() != runs || c.lazy.SweepSettled() != settled {
			t.Fatalf("the oracle counts %d sweeps settling %d nodes, want %d settling %d", c.lazy.SweepCount(), c.lazy.SweepSettled(), runs, settled)
		}
	})
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
// holds the root only. The source frontier's Within answers whether a node
// scores within a limit, and one frontier serves a run of sweeps into
// different roots at different bounds while settling no node past the
// largest bound or limit it was asked about.
func TestRestrictedSweep(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		g, n, o := c.g, c.g.NumNodes(), c.lazy
		rng := rand.New(rand.NewSource(3401))
		var held, dropped int
		for trial := 0; trial < 40; trial++ {
			s := graph.NodeID(rng.Intn(n))
			fromS := dijkstra(g, s, ByBudget, false)
			src := o.Frontier(s, ByBudget, true)
			asked := math.Inf(-1)
			for k := 0; k < 6; k++ {
				c2 := graph.NodeID(rng.Intn(n))
				intoC := dijkstra(g, c2, ByBudget, true)
				v := graph.NodeID(rng.Intn(n))
				bound := fromS.primary[v] + intoC.primary[v] // met exactly at v
				switch {
				case k == 5:
					bound = -1
				case math.IsInf(bound, 1):
					bound = 12 * rng.Float64()
				case !c.exactSums:
					bound *= 0.5 + rng.Float64()
				}
				if w, limit := graph.NodeID(rng.Intn(n)), bound/2; src.Within(w, limit) != (fromS.primary[w] <= limit) {
					t.Fatalf("trial %d: Within(%d, %v) with the node at %v", trial, w, limit, fromS.primary[w])
				}
				asked = max(asked, bound)
				got := o.ReverseSweep(c2, ByBudget, bound, src)
				h, d, msg := restrictedAgrees(got, ReverseBoundedSweep(g, c2, ByBudget, bound), fromS, intoC, c2, bound, c.exactSums)
				if msg != "" {
					t.Fatalf("trial %d: s %d, c %d, bound %v: %s", trial, s, c2, bound, msg)
				}
				if bound < 0 && h != 1 {
					t.Fatalf("trial %d: a negative bound holds %d nodes, want the root only", trial, h)
				}
				held, dropped = held+h, dropped+d
			}
			for _, v := range src.Order() {
				if _, bs, _ := src.Scores(v); bs > asked {
					t.Fatalf("trial %d: the source frontier settled node %d at %v, past the largest bound asked, %v", trial, v, bs, asked)
				}
			}
			src.Close()
		}
		if held < 300 || dropped < 300 {
			t.Fatalf("%d nodes held, %d dropped by the restriction: the bounds no longer exercise it", held, dropped)
		}
	})
}

// TestCellBoundBelowScores: a slice's cell bound is the bound of its
// definition and never exceeds the scores of a node of the cell
// (checkCellBounds), on target and source slices into up to 48 roots, both
// metrics, every partitioned form and generator — on the disconnected one
// with cells no path reaches — and on the bench-scale road fixture's twelve
// bisected cells at DefaultCellSize, into twelve roots.
func TestCellBoundBelowScores(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) {
		if inf := checkCellBounds(t, c.label, c.part, c.roots(48)); c.name == "disconnected" && len(c.part.cells) > 1 && inf == 0 {
			t.Fatal("no cell bound is +Inf; the case no longer has unreachable cells")
		}
	})
	road, err := roadIndex()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4012))
	for name, o := range road {
		checkCellBounds(t, "road 1500 "+name, o, sampleRoots(rng, o.g, 12))
	}
}

// TestPairMinMatchesBlockScan: every partitioned form's stored cell-pair
// minima are the block scan's (checkPairMin), on every generator and on the
// bench-scale road fixture.
func TestPairMinMatchesBlockScan(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) { checkPairMin(t, c.label, c.part) })
	road, err := roadIndex()
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range road {
		checkPairMin(t, "road 1500 "+name, o)
	}
}

// concurrentReads runs readers sharing c's oracle — pair lookups, prefetch
// hints, path walks and the vectors into and out of a root — and holds each
// answer to the table's pair and vector checks.
func concurrentReads(t *testing.T, c *confCase) {
	n := c.g.NumNodes()
	concurrently(t, 25, func(rng *rand.Rand) string {
		root, v, m := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), Metric(rng.Intn(2))
		PrefetchTarget(c.o, root)
		if _, _, msg := c.pair(v, root, m); msg != "" {
			return msg
		}
		if msg := checkNode(c.g, vectorCase{v: &pairVector{c.o, root, m, false}, bound: math.Inf(1), ref: c.o}, root, v, m); msg != "" {
			return msg
		}
		return checkNode(c.g, c.vector(root, m, rng.Intn(2) == 0, math.Inf(1)), root, v, m)
	})
}

// TestLazyOracleConcurrent: concurrent readers of one matrix or one lazy
// oracle, the lazy ones sharing its scratch pool, get what a lone reader
// gets (concurrentReads).
func TestLazyOracleConcurrent(t *testing.T) { conform(t, "matrix lazy", nil, concurrentReads) }

// TestSweepPoolConcurrent: goroutines drawing scratches from the one pool
// get the bounded sweeps they would get alone.
func TestSweepPoolConcurrent(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		concurrently(t, 8, func(rng *rand.Rand) string {
			reverse := rng.Intn(2) == 0
			return sweepAgrees(rng, c, c.g.NumNodes(), reverse, func(root graph.NodeID, m Metric, bound float64) *sweep {
				return dijkstraBounded(c.g, root, m, reverse, bound)
			})
		})
	})
}

// TestMemoSweepProperty: whatever interleaving of requests the lazy oracle
// serves — a few roots, so requests collide on a root at different bounds —
// every sweep it hands out is the reference sweep at the requested bound,
// and every request runs its own.
func TestMemoSweepProperty(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		concurrently(t, 8, func(rng *rand.Rand) string {
			return sweepAgrees(rng, c, min(6, c.g.NumNodes()), true, func(root graph.NodeID, m Metric, bound float64) *sweep {
				return c.lazy.ReverseSweep(root, m, bound, nil).s
			})
		})
		if got := c.lazy.SweepCount(); got != 8*8 {
			t.Fatalf("%d requests ran %d sweeps: every request runs its own", 8*8, got)
		}
	})
}

// TestFrontierPoolConcurrent: goroutines opening frontiers through one lazy
// oracle, scratches shared through the one pool, each drive theirs through
// the reference sweep (frontierAgrees), and every frontier is accounted for
// once closed.
func TestFrontierPoolConcurrent(t *testing.T) {
	conform(t, "lazy", nil, func(t *testing.T, c *confCase) {
		n := c.g.NumNodes()
		var settled atomic.Int64
		concurrently(t, 6, func(rng *rand.Rand) string {
			root, m, outbound := graph.NodeID(rng.Intn(n)), Metric(rng.Intn(2)), rng.Intn(2) == 0
			ref := referenceSweep(c.g, root, m, !outbound)
			settled.Add(int64(len(settleOrder(ref))))
			f := c.lazy.Frontier(root, m, outbound)
			defer f.Close()
			return frontierAgrees(f, ref, root, !outbound, m)
		})
		if open, got := c.lazy.FrontierStats(); open != 0 || got != settled.Load() {
			t.Fatalf("frontier stats: %d open, %d settled; want 0 open, %d settled", open, got, settled.Load())
		}
	})
}

// TestTargetSliceConcurrency: concurrent readers of one partitioned oracle
// whose slice memo holds six slices, so slices are evicted while read, get
// what a lone reader gets (concurrentReads).
func TestTargetSliceConcurrency(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) {
		c.part.slices.budget = 6 * c.part.slices.charge
		concurrentReads(t, c)
	})
}

// TestSliceFirstTouchConcurrent is the slices' publication contract: 8
// goroutines read every node of one cold target slice and one cold source
// slice, each in its own random order, so first touches of a cell and first
// lookups of a node race — and every read agrees with the pair interface
// (confCase.vector), and once all is read every block and every score but
// the root's is published.
func TestSliceFirstTouchConcurrent(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) {
		n := c.g.NumNodes()
		for _, root := range c.roots(1) {
			for _, m := range metrics {
				into, out := c.vector(root, m, false, math.Inf(1)), c.vector(root, m, true, math.Inf(1))
				concurrently(t, 1, func(rng *rand.Rand) string {
					for _, v := range rng.Perm(n) {
						for _, vc := range []vectorCase{into, out} {
							if msg := checkNode(c.g, vc, root, graph.NodeID(v), m); msg != "" {
								return msg
							}
						}
					}
					return ""
				})
				for _, vc := range []vectorCase{into, out} {
					if blocks, computed := vc.v.(*sliceVector).ts.touched(); blocks != len(c.part.cells) || computed != n-1 {
						t.Fatalf("root %d metric %d: %d of %d blocks and %d of %d scores published after reading every node",
							root, m, blocks, len(c.part.cells), computed, n-1)
					}
				}
			}
		}
	})
}

// TestCellBoundConcurrent: goroutines asking a fresh oracle for cell bounds
// at once, each in its own order, all read the bounds of the definition
// while they create and share the slices those bounds belong to.
func TestCellBoundConcurrent(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) {
		refs := []*naiveScores{newNaiveScores(c.part, ByObjective), newNaiveScores(c.part, ByBudget)}
		roots := c.roots(12)
		concurrently(t, 1, func(rng *rand.Rand) string {
			for _, i := range rng.Perm(4 * len(roots)) {
				root, m, outbound := roots[i/4], Metric(i%2), i%4 >= 2
				ts := c.part.TargetSlice(root, m)
				if outbound {
					ts = c.part.SourceSlice(root, m)
				}
				for cell := range c.part.cells {
					gotOS, gotBS := ts.CellBound(cell)
					if wantOS, wantBS := wantCellBound(refs[m], root, outbound, cell); gotOS != wantOS || gotBS != wantBS {
						return fmt.Sprintf("root %d metric %d outbound %v cell %d: (%v, %v), want (%v, %v)", root, m, outbound, cell, gotOS, gotBS, wantOS, wantBS)
					}
				}
			}
			return ""
		})
	})
}

// TestIsOnDemand pins each constructor's capability set — IsOnDemand,
// HasIndexedPaths, SliceIndexed, SourceSliced, Prefetcher — which the query
// plan and the benchmark's oracle labels pick by.
func TestIsOnDemand(t *testing.T) {
	want := map[string][5]bool{
		"matrix":      {false, true, false, false, false},
		"lazy":        {true, false, false, false, true},
		"partitioned": {false, true, true, true, false},
	}
	conform(t, "matrix lazy partitioned", func(c *confGraph) bool { return c.name == "paper" }, func(t *testing.T, c *confCase) {
		_, slices := c.o.(SliceIndexed)
		_, sources := c.o.(SourceSliced)
		_, hints := c.o.(Prefetcher)
		if got := [5]bool{IsOnDemand(c.o), HasIndexedPaths(c.o), slices, sources, hints}; got != want[c.family] {
			t.Fatalf("capabilities %v, want %v", got, want[c.family])
		}
	})
}
