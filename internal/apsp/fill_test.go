package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// arrayScanCellTables is the reference for the cell fill: every row of every
// cell by a Dijkstra whose frontier is a scan of the row, settling the
// unsettled node of least (primary, secondary), the lowest local index on an
// exact tie. The tables come back in the cells' order and layout.
func arrayScanCellTables(o *PartitionedOracle) []cellTables {
	ref := make([]cellTables, len(o.cells))
	for ci := range o.cells {
		cell := &ref[ci]
		cell.nodes = o.cells[ci].nodes
		k := len(cell.nodes)
		cell.tauP, cell.tauS = infs(k*k), infs(k*k)
		cell.sigP, cell.sigS = infs(k*k), infs(k*k)
		cell.tauPar, cell.sigPar = noParents(k*k), noParents(k*k)
		for src := 0; src < k; src++ {
			arrayScanSweep(o, cell, src, ByObjective)
			arrayScanSweep(o, cell, src, ByBudget)
		}
	}
	return ref
}

// arrayScanSweep writes row src of the cell's metric-m tables.
func arrayScanSweep(o *PartitionedOracle, cell *cellTables, src int, m Metric) {
	prim, sec, par := cell.scoreTables(m)
	k := len(cell.nodes)
	row := src * k
	prim[row+src], sec[row+src] = 0, 0
	done := make([]bool, k)
	for {
		best := -1
		for i := 0; i < k; i++ {
			if done[i] || math.IsInf(prim[row+i], 1) {
				continue
			}
			if best == -1 || prim[row+i] < prim[row+best] ||
				(prim[row+i] == prim[row+best] && sec[row+i] < sec[row+best]) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		done[best] = true
		v := cell.nodes[best]
		for _, e := range o.g.Out(v) {
			if o.region[e.To] != o.region[v] {
				continue
			}
			li := int(o.local[e.To])
			p, s := prim[row+best]+e.Objective, sec[row+best]+e.Budget
			if m == ByBudget {
				p, s = prim[row+best]+e.Budget, sec[row+best]+e.Objective
			}
			if p < prim[row+li] || (p == prim[row+li] && s < sec[row+li]) {
				prim[row+li], sec[row+li], par[row+li] = p, s, int32(best)
			}
		}
	}
}

func infs(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Inf(1)
	}
	return s
}

func noParents(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = noParent
	}
	return s
}

// TestCellFillMatchesArrayScan: the cell fill's six tables equal the array
// scan's entry for entry — scores bit for bit, parents exactly — on graphs
// with many exact ties (tied, quantized random, the paper's) and without
// (ring), at cell sizes from 2 to one cell for the whole graph. None of these
// graphs has positions, so their cells are grown breadth-first and a cell's
// local order is not node-ID order: a fill that broke ties by node ID would
// pick other parents.
func TestCellFillMatchesArrayScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4601))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"tied", tiedTestGraph(rng, 70)},
		{"ring", ringTestGraph(rng, 50)},
		{"random quantized", randomTestGraph(rng, 40, true)},
		{"paper", buildPaperGraph(t)},
	}
	for _, tc := range graphs {
		for _, size := range []int{2, 3, 16, tc.g.NumNodes()} {
			o := NewPartitionedOracle(tc.g, size)
			ref := arrayScanCellTables(o)
			for ci := range o.cells {
				got, want := &o.cells[ci], &ref[ci]
				for _, m := range []Metric{ByObjective, ByBudget} {
					gp, gs, gpar := got.scoreTables(m)
					wp, ws, wpar := want.scoreTables(m)
					for i := range wp {
						if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) ||
							math.Float64bits(gs[i]) != math.Float64bits(ws[i]) || gpar[i] != wpar[i] {
							k := len(got.nodes)
							t.Fatalf("%s, cell size %d, cell %d, metric %d, row %d col %d: fill (%v,%v,%d), array scan (%v,%v,%d)",
								tc.name, size, ci, m, i/k, i%k, gp[i], gs[i], gpar[i], wp[i], ws[i], wpar[i])
						}
					}
				}
			}
		}
	}
}

// TestOneCellMatchesMatrix: a partitioned oracle whose one cell is the whole
// graph answers every pair with the matrix's scores, bit for bit, and on a
// graph with positions with the matrix's paths. Bisection lists the one cell
// in ascending node ID and it has no borders, so local index is node ID and
// the cell fill breaks exact ties as the matrix's Dijkstra does. A graph
// without positions grows its cell breadth-first, whose local order is not
// node-ID order, so among exactly tied paths the two may pick different ones:
// there only the scores, which do not depend on tie order, must agree.
func TestOneCellMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4602))
	road := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 150})
	grid := gen.GridRoad(gen.GridConfig{Seed: 2012, Nodes: 140})
	cases := []struct {
		name      string
		g         *graph.Graph
		samePaths bool
	}{
		{"road", road, true},
		{"grid", grid, true},
		{"road, dyadic", rebuilt(road, road.Position, dyadic), true},
		{"grid, dyadic", rebuilt(grid, grid.Position, dyadic), true},
		{"tied, no positions", tiedTestGraph(rng, 60), false},
		{"random quantized, no positions", randomTestGraph(rng, 60, true), false},
	}
	type answer struct {
		os, bs float64
		ok     bool
		path   []graph.NodeID
	}
	ask := func(o interface {
		Oracle
		PathMaterializer
	}, from, to graph.NodeID, m Metric, paths bool) answer {
		var a answer
		if m == ByObjective {
			a.os, a.bs, a.ok = o.MinObjective(from, to)
			if paths {
				a.path, _ = o.MinObjectivePath(from, to)
			}
		} else {
			a.os, a.bs, a.ok = o.MinBudget(from, to)
			if paths {
				a.path, _ = o.MinBudgetPath(from, to)
			}
		}
		return a
	}
	for _, tc := range cases {
		n := tc.g.NumNodes()
		one, matrix := NewPartitionedOracle(tc.g, n), NewMatrixOracle(tc.g)
		if len(one.cells) != 1 || len(one.borders) != 0 {
			t.Fatalf("%s: %d cells and %d borders at cell size |V|", tc.name, len(one.cells), len(one.borders))
		}
		for from := graph.NodeID(0); int(from) < n; from++ {
			for to := graph.NodeID(0); int(to) < n; to++ {
				for _, m := range []Metric{ByObjective, ByBudget} {
					got, want := ask(one, from, to, m, tc.samePaths), ask(matrix, from, to, m, tc.samePaths)
					if got.os != want.os || got.bs != want.bs || got.ok != want.ok || !slices.Equal(got.path, want.path) {
						t.Fatalf("%s metric %d %d→%d: one cell %+v, matrix %+v", tc.name, m, from, to, got, want)
					}
				}
			}
		}
	}
}

// dijkstraMatrix is the reference for the matrix fill: every row two dense
// dijkstra sweeps, one per metric, their parents copied into the parent
// tables and their scores into the target-major score tables.
func dijkstraMatrix(g *graph.Graph) *MatrixOracle {
	n := g.NumNodes()
	ref := &MatrixOracle{
		g: g, n: n,
		tau: make([]scorePair, n*n), sig: make([]scorePair, n*n),
		tauPar: make([]int32, n*n), sigPar: make([]int32, n*n),
	}
	for from := 0; from < n; from++ {
		tau := dijkstra(g, graph.NodeID(from), ByObjective, false)
		sig := dijkstra(g, graph.NodeID(from), ByBudget, false)
		copy(ref.tauPar[from*n:], tau.parent)
		copy(ref.sigPar[from*n:], sig.parent)
		for to := 0; to < n; to++ {
			ref.tau[to*n+from] = scorePair{tau.primary[to], tau.secondary[to]}
			ref.sig[to*n+from] = scorePair{sig.primary[to], sig.secondary[to]}
		}
	}
	return ref
}

// dijkstraOverlay is the reference for the overlay fill: every row of o's
// border graph one dense dijkstra sweep per metric, its parents copied into
// the parent table and its scores cut into the blocked score tables (the
// border graph carries the sweep's primary in the Objective slot). The tables
// come back as the overlay fields of an otherwise empty oracle.
func dijkstraOverlay(o *PartitionedOracle) *PartitionedOracle {
	b := len(o.borders)
	ref := &PartitionedOracle{}
	ref.ovTauP, ref.ovTauS = make([]float64, b*b), make([]float64, b*b)
	ref.ovSigP, ref.ovSigS = make([]float64, b*b), make([]float64, b*b)
	ref.ovTauPar, ref.ovSigPar = make([]int32, b*b), make([]int32, b*b)
	for _, m := range []Metric{ByObjective, ByBudget} {
		overlay := o.overlayGraph(m)
		prim, sec, par := ref.overlayTables(m)
		for from := 0; from < b; from++ {
			s := dijkstra(overlay, graph.NodeID(from), ByObjective, false)
			ci := &o.cells[o.region[o.borders[from]]]
			for j := range o.cells {
				cj := &o.cells[j]
				at := o.block(ci, cj) + (from-ci.start)*cj.nb
				copy(prim[at:at+cj.nb], s.primary[cj.start:])
				copy(sec[at:at+cj.nb], s.secondary[cj.start:])
			}
			copy(par[from*b:], s.parent)
		}
	}
	return ref
}

// firstDiff returns the first index where the tables differ — a float64
// entry in any bit — or -1 when they are the same.
func firstDiff[T float64 | int32](got, want []T) int {
	bits := func(x T) uint64 {
		if f, ok := any(x).(float64); ok {
			return math.Float64bits(f)
		}
		return uint64(uint32(any(x).(int32)))
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestTableFillMatchesDijkstra: the matrix's four tables and the overlay's
// six, filled by the decrease-key kernel (rowFill), equal the tables the
// lazy-heap dijkstra filled row by row — scores bit for bit, parents
// exactly — on graphs with many exact ties (tied, quantized random, the
// paper's) and without (ring), the overlay at cell sizes 2, 3 and 16.
func TestTableFillMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(4701))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"tied", tiedTestGraph(rng, 70)},
		{"ring", ringTestGraph(rng, 50)},
		{"random quantized", randomTestGraph(rng, 40, true)},
		{"paper", buildPaperGraph(t)},
	}
	for _, tc := range graphs {
		got, want := NewMatrixOracle(tc.g), dijkstraMatrix(tc.g)
		n := tc.g.NumNodes()
		for _, tab := range []struct {
			name      string
			got, want []scorePair
		}{{"τ", got.tau, want.tau}, {"σ", got.sig, want.sig}} {
			for i := range tab.want {
				g, w := tab.got[i], tab.want[i]
				if math.Float64bits(g.prim) != math.Float64bits(w.prim) || math.Float64bits(g.sec) != math.Float64bits(w.sec) {
					t.Fatalf("%s: matrix %s score %d→%d: fill %v, dijkstra %v", tc.name, tab.name, i%n, i/n, g, w)
				}
			}
		}
		if i := firstDiff(got.tauPar, want.tauPar); i >= 0 {
			t.Fatalf("%s: matrix τ parent %d→%d: fill %d, dijkstra %d", tc.name, i/n, i%n, got.tauPar[i], want.tauPar[i])
		}
		if i := firstDiff(got.sigPar, want.sigPar); i >= 0 {
			t.Fatalf("%s: matrix σ parent %d→%d: fill %d, dijkstra %d", tc.name, i/n, i%n, got.sigPar[i], want.sigPar[i])
		}

		for _, size := range []int{2, 3, 16} {
			o := NewPartitionedOracle(tc.g, size)
			ref := dijkstraOverlay(o)
			for _, m := range []Metric{ByObjective, ByBudget} {
				gp, gs, gpar := o.overlayTables(m)
				wp, ws, wpar := ref.overlayTables(m)
				for _, tab := range []struct {
					name string
					i    int
				}{{"primary", firstDiff(gp, wp)}, {"secondary", firstDiff(gs, ws)}, {"parent", firstDiff(gpar, wpar)}} {
					if tab.i >= 0 {
						t.Fatalf("%s, cell size %d (%d borders), metric %d: overlay %s differs at entry %d",
							tc.name, size, len(o.borders), m, tab.name, tab.i)
					}
				}
			}
		}
	}
}

// TestRowFillPopOrder: under random inserts and decrease-keys over at most
// 64 IDs, keys drawn from a few values so that exact (primary, secondary)
// ties are common, the indexed heap pops the live items in the order a lazy
// itemHeap fed the same pushes pops them, skipping its stale copies: lessItem
// order, node ID last.
func TestRowFillPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4702))
	const unlabelled, queued, popped = 0, 1, 2
	for trial := 0; trial < 500; trial++ {
		ids := 1 + rng.Intn(64)
		f := newRowFill(ids)
		var lazy itemHeap
		label := make([]dijkstraItem, ids)
		state := make([]int, ids)
		popBoth := func() {
			got := f.pop()
			for {
				want := lazy.pop()
				if state[want.node] != queued || want != label[want.node] {
					continue // a stale copy
				}
				if got != want {
					t.Fatalf("trial %d: indexed heap popped %+v, lazy heap %+v", trial, got, want)
				}
				state[want.node] = popped
				return
			}
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				if len(f.heap) > 0 {
					popBoth()
				}
				continue
			}
			v := rng.Intn(ids)
			it := dijkstraItem{node: graph.NodeID(v), primary: float64(rng.Intn(6)), secondary: float64(rng.Intn(3))}
			if state[v] == popped || (state[v] == queued && !lessItem(&it, &label[v])) {
				continue // keys only fall, and a popped node is settled
			}
			label[v], state[v] = it, queued
			f.update(it)
			lazy.push(it)
		}
		for len(f.heap) > 0 {
			popBoth()
		}
		for len(lazy) > 0 {
			if it := lazy.pop(); state[it.node] == queued && it == label[it.node] {
				t.Fatalf("trial %d: the indexed heap drained with %+v live in the lazy heap", trial, it)
			}
		}
		for v, s := range f.slot {
			if s != -1 {
				t.Fatalf("trial %d: node %d left at slot %d after the heap drained", trial, v, s)
			}
		}
	}
}

// BenchmarkTableBuild times the table fill on a 1,500-node road network: the
// matrix, a partitioned oracle of one cell (the same |V|² tables through the
// cell fill) and one at the default cell size. The one-cell to matrix ratio
// is what deciding between the two costs at build time.
func BenchmarkTableBuild(b *testing.B) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500})
	builds := []struct {
		name  string
		build func() Oracle
	}{
		{"matrix", func() Oracle { return NewMatrixOracle(g) }},
		{"one-cell", func() Oracle { return NewPartitionedOracle(g, g.NumNodes()) }},
		{fmt.Sprintf("cell-%d", DefaultCellSize), func() Oracle { return NewPartitionedOracle(g, DefaultCellSize) }},
	}
	for _, bb := range builds {
		b.Run(bb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				builtTables = bb.build()
			}
		})
	}
}

// builtTables keeps the benchmark's builds live.
var builtTables Oracle

// TestFillTablesStops: once stop is closed the pool hands out no further
// job and reports the fill incomplete; BuildMatrixOracle then returns no
// tables, and with a stop that never closes it builds NewMatrixOracle's.
func TestFillTablesStops(t *testing.T) {
	const blocks = 64
	stop := make(chan struct{})
	var mu sync.Mutex
	jobs := 0
	complete := fillTables(stop, []int{blocks * fillRows}, func() func(_, _, _ int) {
		return func(_, _, _ int) {
			mu.Lock()
			defer mu.Unlock()
			if jobs++; jobs == 1 {
				close(stop)
			}
		}
	})
	if complete || jobs >= blocks {
		t.Fatalf("fill after stop: complete %v, %d of %d jobs run", complete, jobs, blocks)
	}

	g := ringTestGraph(rand.New(rand.NewSource(7)), 40)
	if o := BuildMatrixOracle(stop, g); o != nil {
		t.Fatal("a stopped build returned tables")
	}
	got, want := BuildMatrixOracle(make(chan struct{}), g), NewMatrixOracle(g)
	if !slices.Equal(got.tau, want.tau) || !slices.Equal(got.sig, want.sig) ||
		!slices.Equal(got.tauPar, want.tauPar) || !slices.Equal(got.sigPar, want.sigPar) {
		t.Fatal("BuildMatrixOracle's tables differ from NewMatrixOracle's")
	}
}
