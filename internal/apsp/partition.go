package apsp

import (
	"cmp"
	"math"
	"slices"

	"kor/internal/graph"
)

// PartitionedOracle implements the pre-processing design the paper sketches
// as future work in §6: partition the graph into subgraphs, pre-process τ/σ
// only within each subgraph, and additionally store the best objective and
// budget scores between every pair of border nodes. A pair query is then
// assembled as
//
//	score(i,j) = min over borders b1 of region(i), b2 of region(j) of
//	             intra(i,b1) + overlay(b1,b2) + intra(b2,j)
//
// taking the direct intra-region score as a further candidate when i and j
// share a region. The overlay scores are computed on the border graph —
// border nodes connected by intra-region shortcuts and by the original
// cross-region edges — so any excursion through other regions is accounted
// for and the primary scores are exact. Among equal-primary paths the
// reported secondary score is that of the assembled decomposition, which can
// differ from the Dijkstra oracles' tie-break on exactly tied paths.
//
// The tables are laid out so that this assembly scans memory instead of
// probing it: a region lists its border nodes first, the overlay is numbered
// region by region, and the overlay scores are stored one region pair's
// block after another (PartitionGraph, block) — a node's scores to its
// region's borders are the head of its table row, and the border×border
// scores two regions share are one contiguous run.
//
// Beyond the scores, the tables carry parent pointers (per-cell and on the
// overlay), so paths materialize as table walks (IndexedPaths), and the
// whole index serializes to a versioned on-disk format (persist.go) keyed to
// the graph fingerprint, for offline builds and mmap warm starts.
//
// All tables are immutable once built; the per-target slices (slice.go) and
// the memo that holds them are internally synchronized, so a
// PartitionedOracle is safe for concurrent use.
type PartitionedOracle struct {
	g        *graph.Graph
	cellSize int

	region []int32 // node → region index
	local  []int32 // node → index within its region's node list
	cells  []cellTables

	// Overlay numbering is cell by cell: cell c's borders are the overlay
	// indices [c.start, c.start+c.nb), in the order of c.nodes[:c.nb].
	borders   []graph.NodeID // overlay index → node
	borderIdx []int32        // node → overlay index, -1 for interior nodes

	// Overlay score tables, blocked by cell pair: the nb(i)×nb(j) scores from
	// cell i's borders to cell j's are one row-major run starting at
	// block(i, j), the blocks of one source cell back to back in target-cell
	// order — so whatever two cells a lookup joins, it scans contiguous
	// memory. Unreachable pairs hold +Inf in both tables.
	ovTauP, ovTauS []float64
	ovSigP, ovSigS []float64
	// Overlay parent tables, row-major [from*b+to]: overlay indices (noParent
	// at from == to or unreachable). Only path walks read them.
	ovTauPar, ovSigPar []int32

	// slices memoizes the per-target and per-source slices (slice.go).
	slices *memo[*TargetSlice]
	// pairMin bounds the overlay per ordered cell pair, one table per
	// metric: entry i*len(cells)+j holds the least primary and the least
	// secondary of block(i, j), each on its own, +Inf on both for an empty
	// block. Built with the overlay (buildPairMin) and stored in the index
	// file, so a bound never reads the overlay.
	pairMin [2][]scorePair

	// Disk-load state (persist.go): the mapping backing the aliased tables,
	// if any, and the source file size.
	mapped    []byte
	fileBytes int64
}

// cellTables holds one region's restricted all-pairs tables, row-major
// [from*k+to] over local indices. Paths counted here stay inside the region;
// excursions are the overlay's job. Parent entries are local indices within
// the region. The region's nb border nodes come first — local index x < nb is
// overlay index start+x — so the scores from a node to the region's borders
// are the first nb entries of its table row.
type cellTables struct {
	nodes          []graph.NodeID
	start, nb      int // overlay index of the first border node; border count
	tauP, tauS     []float64
	sigP, sigS     []float64
	tauPar, sigPar []int32
}

// scoreTables returns the cell's (primary, secondary, parent) tables for m.
func (c *cellTables) scoreTables(m Metric) ([]float64, []float64, []int32) {
	if m == ByObjective {
		return c.tauP, c.tauS, c.tauPar
	}
	return c.sigP, c.sigS, c.sigPar
}

// overlayTables returns the overlay (primary, secondary, parent) tables.
func (o *PartitionedOracle) overlayTables(m Metric) ([]float64, []float64, []int32) {
	if m == ByObjective {
		return o.ovTauP, o.ovTauS, o.ovTauPar
	}
	return o.ovSigP, o.ovSigS, o.ovSigPar
}

// block returns where the overlay score block from ci's borders to cj's
// starts: entry (x, y) — ci's x-th border to cj's y-th — is at
// block + x*cj.nb + y. Source cell ci owns the ci.nb*B entries from
// ci.start*B, and the ci.nb*cj.start of them before cj's block belong to the
// target cells numbered before it.
func (o *PartitionedOracle) block(ci, cj *cellTables) int {
	return ci.start*len(o.borders) + ci.nb*cj.start
}

// DefaultCellSize is the region-size cap used when partitioning.
const DefaultCellSize = 128

// Partition is the lightweight region decomposition underlying both the
// partitioned oracle and the cluster shard cut (internal/cluster): every
// node assigned to exactly one region of at most CellSize nodes, plus the
// border set — nodes with any cross-region edge. It carries no score
// tables, so computing one costs O(V+E) plus the bisection's sorts,
// O(V log² V); the oracle layers its τ/σ tables on
// top, and the shard cut groups regions into shards.
type Partition struct {
	// CellSize is the region-size cap the partition was cut with (after
	// clamping to ≥ 2).
	CellSize int
	// Region maps node → region index.
	Region []int32
	// Local maps node → its index within Cells[Region[node]].
	Local []int32
	// Cells lists each region's nodes: its border nodes first, then its
	// interior nodes, each group in the order the partition rule lists the
	// region (ascending node ID for bisection, BFS order for growing).
	Cells [][]graph.NodeID
	// Borders lists the border nodes cell by cell, each cell's in the order
	// they lead its node list: Borders[BorderStart[c]:BorderStart[c+1]] is
	// Cells[c][:nb]. BorderIdx maps node → its index in Borders, -1 for
	// interior nodes; BorderStart has one entry per cell plus the total.
	Borders     []graph.NodeID
	BorderIdx   []int32
	BorderStart []int32
}

// PartitionGraph partitions g into regions of at most cellSize nodes, then
// marks the border nodes and numbers them. Deterministic for a given graph
// and cell size.
//
// On a graph with positions the regions are cut by recursive coordinate
// bisection. A node set of L > cellSize nodes needs leaves = ⌈L/cellSize⌉
// regions: it is sorted along the longer side of its bounding box (ties by
// the other coordinate, then by node ID), the first ⌊L·⌊leaves/2⌋/leaves⌋
// nodes form the left half and the rest the right, and each half is cut the
// same way. The leaves, left first and depth first, are the regions, each
// listing its nodes in ascending ID. The regions come out full (⌈n/cellSize⌉
// of them, within one node of each other in size) and compact, so few nodes
// are borders, and consecutive regions are spatial neighbours, which the
// shard cut (internal/cluster) relies on.
//
// A graph without positions has no geometry to cut, so its regions are grown
// breadth-first over the undirected skeleton from each unassigned seed in
// node-ID order, each region claiming nodes while members plus queue stay
// under the cap. No coordinate-free rule measured better: bisection over
// hop-distance landmark coordinates and growing from Hilbert-ordered seeds
// both left more borders than bisection over real positions (DESIGN.md
// *Oracles*). Every loader and generator in the repository sets positions.
func PartitionGraph(g *graph.Graph, cellSize int) *Partition {
	if cellSize < 2 {
		cellSize = 2
	}
	if g.HasPositions() {
		return numberCells(g, cellSize, bisectCells(g, cellSize))
	}
	return numberCells(g, cellSize, growCells(g, cellSize))
}

// numberCells lays the partition out over the given regions: it assigns each
// node its region, marks the borders and numbers both for scanning.
func numberCells(g *graph.Graph, cellSize int, cells [][]graph.NodeID) *Partition {
	n := g.NumNodes()
	p := &Partition{CellSize: cellSize, Region: make([]int32, n), Local: make([]int32, n), Cells: cells}
	for r, nodes := range cells {
		for _, v := range nodes {
			p.Region[v] = int32(r)
		}
	}

	// A border node is one with any cross-region edge.
	isBorder := func(v graph.NodeID) bool {
		for _, e := range g.Out(v) {
			if p.Region[e.To] != p.Region[v] {
				return true
			}
		}
		for _, e := range g.In(v) {
			if p.Region[e.To] != p.Region[v] {
				return true
			}
		}
		return false
	}

	// Numbering: within each cell the borders move to the front (a stable
	// split, so both groups keep the order the rule listed), and the overlay
	// indices run cell by cell. A cell's borders are then one run of local
	// indices and one run of overlay indices, which is what lets the score
	// tables be scanned instead of probed.
	p.BorderIdx = make([]int32, n)
	p.BorderStart = make([]int32, 0, len(p.Cells)+1)
	var interior []graph.NodeID
	for _, nodes := range p.Cells {
		start := len(p.Borders)
		p.BorderStart = append(p.BorderStart, int32(start))
		interior = interior[:0]
		for _, v := range nodes {
			if isBorder(v) {
				p.BorderIdx[v] = int32(len(p.Borders))
				p.Borders = append(p.Borders, v)
			} else {
				p.BorderIdx[v] = -1
				interior = append(interior, v)
			}
		}
		nb := copy(nodes, p.Borders[start:])
		copy(nodes[nb:], interior)
		for li, v := range nodes {
			p.Local[v] = int32(li)
		}
	}
	p.BorderStart = append(p.BorderStart, int32(len(p.Borders)))
	return p
}

// bisectCells cuts g's nodes into regions by recursive coordinate bisection
// (PartitionGraph). The regions are disjoint subslices of one node array.
func bisectCells(g *graph.Graph, cellSize int) [][]graph.NodeID {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	var cells [][]graph.NodeID
	var cut func(set []graph.NodeID)
	cut = func(set []graph.NodeID) {
		l := len(set)
		if l <= cellSize {
			slices.Sort(set)
			cells = append(cells, set[:l:l])
			return
		}
		lo, hi := g.Position(set[0]), g.Position(set[0])
		for _, v := range set[1:] {
			p := g.Position(v)
			lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
			hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
		}
		byY := hi.Y-lo.Y > hi.X-lo.X
		slices.SortFunc(set, func(a, b graph.NodeID) int {
			pa, pb := g.Position(a), g.Position(b)
			if byY {
				pa.X, pa.Y, pb.X, pb.Y = pa.Y, pa.X, pb.Y, pb.X
			}
			return cmp.Or(cmp.Compare(pa.X, pb.X), cmp.Compare(pa.Y, pb.Y), cmp.Compare(a, b))
		})
		leaves := (l + cellSize - 1) / cellSize
		left := l * (leaves / 2) / leaves
		cut(set[:left])
		cut(set[left:])
	}
	if len(nodes) > 0 {
		cut(nodes)
	}
	return cells
}

// growCells grows g's regions breadth-first (PartitionGraph).
func growCells(g *graph.Graph, cellSize int) [][]graph.NodeID {
	region := make([]int32, g.NumNodes())
	for i := range region {
		region[i] = -1
	}
	var cells [][]graph.NodeID
	for seed := range region {
		if region[seed] != -1 {
			continue
		}
		r := int32(len(cells))
		var nodes []graph.NodeID
		queue := []graph.NodeID{graph.NodeID(seed)}
		region[seed] = r
		claim := func(edges []graph.Edge) {
			for _, e := range edges {
				if region[e.To] == -1 && len(nodes)+len(queue) < cellSize {
					region[e.To] = r
					queue = append(queue, e.To)
				}
			}
		}
		for len(queue) > 0 && len(nodes) < cellSize {
			v := queue[0]
			queue = queue[1:]
			nodes = append(nodes, v)
			claim(g.Out(v))
			claim(g.In(v))
		}
		// Anything still queued was claimed for this region: flush it in.
		cells = append(cells, append(nodes, queue...))
	}
	return cells
}

// NewPartitionedOracle partitions g into regions of at most cellSize nodes
// (PartitionGraph) and pre-computes the intra-region and border-overlay
// tables, their rows swept in blocks on the shared fill pool (fillTables).
func NewPartitionedOracle(g *graph.Graph, cellSize int) *PartitionedOracle {
	return newPartitionedOracle(g, PartitionGraph(g, cellSize))
}

// newPartitionedOracle builds the tables over partition p of g.
func newPartitionedOracle(g *graph.Graph, p *Partition) *PartitionedOracle {
	o := &PartitionedOracle{
		g:         g,
		cellSize:  p.CellSize,
		region:    p.Region,
		local:     p.Local,
		borders:   p.Borders,
		borderIdx: p.BorderIdx,
	}
	o.cells = make([]cellTables, len(p.Cells))
	for i, nodes := range p.Cells {
		o.cells[i].nodes = nodes
		o.cells[i].start = int(p.BorderStart[i])
		o.cells[i].nb = int(p.BorderStart[i+1] - p.BorderStart[i])
	}

	o.buildCellTables()
	o.buildOverlay()
	o.buildPairMin()
	o.initSlices()
	return o
}

// buildCellTables fills every cell's tables on the shared pool, one job per
// block of a cell's source rows, so one large cell keeps every CPU busy. A
// cell row is the table-fill kernel (rowFill) over the cell's own graph
// (cellGraph), so it never leaves the region, and its node IDs, hence its
// tie order and its parents, are local indices.
func (o *PartitionedOracle) buildCellTables() {
	rows := make([]int, len(o.cells))
	local := make([]*graph.Graph, len(o.cells))
	largest := 0
	for ci := range o.cells {
		cell := &o.cells[ci]
		k := len(cell.nodes)
		rows[ci], largest = k, max(largest, k)
		cell.tauP, cell.tauS = make([]float64, k*k), make([]float64, k*k)
		cell.sigP, cell.sigS = make([]float64, k*k), make([]float64, k*k)
		cell.tauPar, cell.sigPar = make([]int32, k*k), make([]int32, k*k)
		local[ci] = o.cellGraph(cell)
	}
	fillTables(rows, func() func(ci, first, count int) {
		f := newRowFill(largest)
		return func(ci, first, count int) {
			cell := &o.cells[ci]
			k := len(cell.nodes)
			for src := first; src < first+count; src++ {
				for _, m := range []Metric{ByObjective, ByBudget} {
					prim, sec, par := cell.scoreTables(m)
					f.row(local[ci], src, m, prim[src*k:(src+1)*k], sec[src*k:(src+1)*k], par[src*k:(src+1)*k])
				}
			}
		}
	})
}

// cellGraph returns the cell's region-local graph: node x is cell.nodes[x],
// and its edges are those of g that stay inside the region.
func (o *PartitionedOracle) cellGraph(cell *cellTables) *graph.Graph {
	bld := graph.NewBuilder()
	for range cell.nodes {
		bld.AddNode()
	}
	for x, v := range cell.nodes {
		for _, e := range o.g.Out(v) {
			if o.region[e.To] == o.region[v] {
				_ = bld.AddEdge(graph.NodeID(x), graph.NodeID(o.local[e.To]), e.Objective, e.Budget)
			}
		}
	}
	return bld.MustBuild()
}

// buildOverlay assembles the border graph per metric and fills all-pairs
// scores and parents over it, the rows of both metrics swept by the
// table-fill kernel on the shared pool. A row's parents go straight into the
// parent table; its scores are cut into their per-cell runs of the blocked
// score tables. Those runs cover the row, so every entry is written.
func (o *PartitionedOracle) buildOverlay() {
	b := len(o.borders)
	o.ovTauP, o.ovTauS = make([]float64, b*b), make([]float64, b*b)
	o.ovSigP, o.ovSigS = make([]float64, b*b), make([]float64, b*b)
	o.ovTauPar, o.ovSigPar = make([]int32, b*b), make([]int32, b*b)
	if b == 0 {
		return
	}
	overlay := [...]*graph.Graph{ByObjective: o.overlayGraph(ByObjective), ByBudget: o.overlayGraph(ByBudget)}
	fillTables([]int{ByObjective: b, ByBudget: b}, func() func(m, first, count int) {
		f := newRowFill(b)
		rowP, rowS := make([]float64, b), make([]float64, b)
		return func(m, first, count int) {
			prim, sec, par := o.overlayTables(Metric(m))
			for from := first; from < first+count; from++ {
				// The overlay graph stores the sweep's primary metric in the
				// Objective slot regardless of m, so sweep with ByObjective.
				f.row(overlay[m], from, ByObjective, rowP, rowS, par[from*b:(from+1)*b])
				ci := &o.cells[o.region[o.borders[from]]]
				x := from - ci.start
				for j := range o.cells {
					cj := &o.cells[j]
					at := o.block(ci, cj) + x*cj.nb
					copy(prim[at:at+cj.nb], rowP[cj.start:])
					copy(sec[at:at+cj.nb], rowS[cj.start:])
				}
			}
		}
	})
}

// buildPairMin fills pairMin with one scan of the finished overlay.
func (o *PartitionedOracle) buildPairMin() {
	nc := len(o.cells)
	for _, m := range []Metric{ByObjective, ByBudget} {
		ovP, ovS, _ := o.overlayTables(m)
		mins := make([]scorePair, nc*nc)
		for i := range o.cells {
			ci := &o.cells[i]
			for j := range o.cells {
				cj := &o.cells[j]
				at, n := o.block(ci, cj), ci.nb*cj.nb
				least := scorePair{math.Inf(1), math.Inf(1)}
				for k, p := range ovP[at : at+n] {
					if p < least.prim {
						least.prim = p
					}
					if s := ovS[at+k]; s < least.sec {
						least.sec = s
					}
				}
				mins[i*nc+j] = least
			}
		}
		o.pairMin[m] = mins
	}
}

// overlayGraph builds the border graph for metric m. Edge Objective carries
// the primary score and Budget the secondary, whatever m is.
func (o *PartitionedOracle) overlayGraph(m Metric) *graph.Graph {
	bld := graph.NewBuilder()
	for range o.borders {
		bld.AddNode()
	}
	// Intra-region shortcuts between a region's border nodes.
	for ci := range o.cells {
		cell := &o.cells[ci]
		k := len(cell.nodes)
		prim, sec, _ := cell.scoreTables(m)
		for x := 0; x < cell.nb; x++ {
			for y := 0; y < cell.nb; y++ {
				p := prim[x*k+y]
				if x == y || math.IsInf(p, 1) {
					continue
				}
				// Ignore the impossible error: scores of distinct reachable
				// border pairs are positive by edge validation.
				_ = bld.AddEdge(graph.NodeID(cell.start+x), graph.NodeID(cell.start+y), p, sec[x*k+y])
			}
		}
	}
	// Original cross-region edges.
	for v := graph.NodeID(0); int(v) < o.g.NumNodes(); v++ {
		if o.borderIdx[v] == -1 {
			continue
		}
		for _, e := range o.g.Out(v) {
			if o.region[e.To] == o.region[v] || o.borderIdx[e.To] == -1 {
				continue
			}
			var p, s float64
			if m == ByObjective {
				p, s = e.Objective, e.Budget
			} else {
				p, s = e.Budget, e.Objective
			}
			_ = bld.AddEdge(graph.NodeID(o.borderIdx[v]), graph.NodeID(o.borderIdx[e.To]), p, s)
		}
	}
	return bld.MustBuild()
}

// best assembles the pair score of from ≠ to under metric m and names the
// decomposition that achieves it: x, y are the local indices of the winning
// border of from's cell and of to's cell, or -1, -1 when the direct
// intra-region path wins. The candidates are ordered lexicographically by
// (primary, secondary), an earlier one winning exact ties; the primary sum is
// associated as head + (mid + tail) — the ordering the target slices
// (slice.go) use — so both lookup paths produce bit-identical primaries
// (and secondaries while the sums are exact; see TargetSlice.score). An
// unreachable leg is +Inf on both scores and loses every comparison, so the
// loops need not look for it.
func (o *PartitionedOracle) best(from, to graph.NodeID, m Metric) (prim, sec float64, x, y int, ok bool) {
	ci, cj := &o.cells[o.region[from]], &o.cells[o.region[to]]
	ki, kj := len(ci.nodes), len(cj.nodes)
	li, lj := int(o.local[from]), int(o.local[to])

	iPrim, iSec, _ := ci.scoreTables(m)
	jPrim, jSec, _ := cj.scoreTables(m)
	ovP, ovS, _ := o.overlayTables(m)

	bestP, bestS := math.Inf(1), math.Inf(1)
	x, y = -1, -1
	if ci == cj {
		bestP = iPrim[li*ki+lj]
		bestS = iSec[li*ki+lj]
	}
	headP, headS := iPrim[li*ki:li*ki+ci.nb], iSec[li*ki:li*ki+ci.nb]
	at := o.block(ci, cj)
	for bx, head := range headP {
		midP, midS := ovP[at:at+cj.nb], ovS[at:at+cj.nb]
		at += cj.nb
		for by, mid := range midP {
			p := head + (mid + jPrim[by*kj+lj])
			if p > bestP {
				continue // the secondary sum only matters to a winner or a tie
			}
			s := headS[bx] + (midS[by] + jSec[by*kj+lj])
			if p < bestP || s < bestS {
				bestP, bestS = p, s
				x, y = bx, by
			}
		}
	}
	return bestP, bestS, x, y, !math.IsInf(bestP, 1)
}

// query returns the pair score under metric m.
func (o *PartitionedOracle) query(from, to graph.NodeID, m Metric) (float64, float64, bool) {
	if from == to {
		return 0, 0, true
	}
	p, s, _, _, ok := o.best(from, to, m)
	if !ok {
		return 0, 0, false
	}
	return p, s, true
}

// MinObjective returns the scores of τ(from,to).
func (o *PartitionedOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	p, s, ok := o.query(from, to, ByObjective)
	return p, s, ok // primary is objective, secondary is budget
}

// MinBudget returns the scores of σ(from,to).
func (o *PartitionedOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	p, s, ok := o.query(from, to, ByBudget)
	return s, p, ok // primary is budget, secondary is objective
}

// path materializes the metric-optimal path from→to as table walks over the
// decomposition best names: the head cell walk, the expanded overlay chain
// and the tail cell walk, or the one direct cell walk.
func (o *PartitionedOracle) path(from, to graph.NodeID, m Metric) ([]graph.NodeID, bool) {
	if from == to {
		return []graph.NodeID{from}, true
	}
	_, _, x, y, ok := o.best(from, to, m)
	if !ok {
		return nil, false
	}
	ci, cj := &o.cells[o.region[from]], &o.cells[o.region[to]]
	li, lj := int(o.local[from]), int(o.local[to])
	if x < 0 {
		return o.cellPath(ci, li, lj, m, nil)
	}
	path, ok := o.cellPath(ci, li, x, m, nil)
	if !ok {
		return nil, false
	}
	chain, ok := o.overlayChain(ci.start+x, cj.start+y, m)
	if !ok {
		return nil, false
	}
	for h := 1; h < len(chain); h++ {
		vx, vy := o.borders[chain[h-1]], o.borders[chain[h]]
		if o.region[vx] == o.region[vy] {
			// The overlay edge was an intra-region shortcut: expand it to the
			// region-optimal walk it stands for.
			c := &o.cells[o.region[vx]]
			seg, ok := o.cellPath(c, int(o.local[vx]), int(o.local[vy]), m, nil)
			if !ok {
				return nil, false
			}
			path = append(path, seg[1:]...)
		} else {
			// An original cross-region edge: vy is adjacent.
			path = append(path, vy)
		}
	}
	tail, ok := o.cellPath(cj, y, lj, m, nil)
	if !ok {
		return nil, false
	}
	return append(path, tail[1:]...), true
}

// cellPath walks the cell's parent row src back from dst, appending the
// region-restricted metric-optimal walk src→dst (inclusive) to buf.
func (o *PartitionedOracle) cellPath(cell *cellTables, src, dst int, m Metric, buf []graph.NodeID) ([]graph.NodeID, bool) {
	_, _, par := cell.scoreTables(m)
	k := len(cell.nodes)
	row := par[src*k : (src+1)*k]
	var rev []int32
	for v := int32(dst); ; {
		rev = append(rev, v)
		if int(v) == src {
			break
		}
		p := row[v]
		if p == noParent {
			return nil, false
		}
		v = p
	}
	for i := len(rev) - 1; i >= 0; i-- {
		buf = append(buf, cell.nodes[rev[i]])
	}
	return buf, true
}

// overlayChain walks the overlay parent row b1 back from b2, returning the
// overlay-index sequence b1..b2 inclusive.
func (o *PartitionedOracle) overlayChain(b1, b2 int, m Metric) ([]int32, bool) {
	_, _, par := o.overlayTables(m)
	b := len(o.borders)
	row := par[b1*b : (b1+1)*b]
	var rev []int32
	for v := int32(b2); ; {
		rev = append(rev, v)
		if int(v) == b1 {
			break
		}
		p := row[v]
		if p == noParent {
			return nil, false
		}
		v = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// MinObjectivePath materializes τ(from,to) as a table walk.
func (o *PartitionedOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByObjective)
}

// MinBudgetPath materializes σ(from,to) as a table walk.
func (o *PartitionedOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByBudget)
}

// IndexedPaths marks the path methods as table walks (see apsp.Indexed).
func (o *PartitionedOracle) IndexedPaths() bool { return true }

// NumRegions reports how many regions the partition produced.
func (o *PartitionedOracle) NumRegions() int { return len(o.cells) }

// NumBorders reports the size of the border overlay.
func (o *PartitionedOracle) NumBorders() int { return len(o.borders) }

// CellSize reports the region-size cap the partition was built with.
func (o *PartitionedOracle) CellSize() int { return o.cellSize }
