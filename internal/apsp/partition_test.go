package apsp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kor/internal/gen"
	"kor/internal/geo"
	"kor/internal/graph"
)

// growRegions is the region growing rule for graphs without positions,
// written out on its own: breadth-first from each unassigned seed over in+out
// neighbours, a region claiming nodes while members plus queue stay under the
// cap. It returns each region's nodes in discovery order, the region of each
// node and the border flags — what PartitionGraph must keep whatever
// numbering it lays on top.
func growRegions(g *graph.Graph, cellSize int) (cells [][]graph.NodeID, region []int32, border []bool) {
	n := g.NumNodes()
	region = make([]int32, n)
	for i := range region {
		region[i] = -1
	}
	for seed := 0; seed < n; seed++ {
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
		cells = append(cells, append(nodes, queue...))
	}
	return cells, region, borderFlags(g, region)
}

// bisectRegions is the bisection rule for graphs with positions, written out
// on its own: a set of L > cellSize nodes needs leaves = ⌈L/cellSize⌉
// regions; it is ordered along the longer side of its bounding box (ties by
// the other coordinate, then by node ID), and its first
// ⌊L·⌊leaves/2⌋/leaves⌋ nodes are cut the same way before the rest. A set of
// at most cellSize nodes is a region, its nodes in ascending ID.
func bisectRegions(g *graph.Graph, cellSize int) (cells [][]graph.NodeID, region []int32, border []bool) {
	var cut func(set []graph.NodeID)
	cut = func(set []graph.NodeID) {
		if len(set) <= cellSize {
			cell := slices.Clone(set)
			sort.Slice(cell, func(i, j int) bool { return cell[i] < cell[j] })
			cells = append(cells, cell)
			return
		}
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, v := range set {
			p := g.Position(v)
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		major := func(p geo.Point) (float64, float64) { return p.X, p.Y }
		if maxY-minY > maxX-minX {
			major = func(p geo.Point) (float64, float64) { return p.Y, p.X }
		}
		ordered := slices.Clone(set)
		sort.Slice(ordered, func(i, j int) bool {
			a1, a2 := major(g.Position(ordered[i]))
			b1, b2 := major(g.Position(ordered[j]))
			if a1 != b1 {
				return a1 < b1
			}
			if a2 != b2 {
				return a2 < b2
			}
			return ordered[i] < ordered[j]
		})
		leaves := int(math.Ceil(float64(len(set)) / float64(cellSize)))
		left := len(set) * (leaves / 2) / leaves
		cut(ordered[:left])
		cut(ordered[left:])
	}
	n := g.NumNodes()
	if n > 0 {
		all := make([]graph.NodeID, n)
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		cut(all)
	}
	region = make([]int32, n)
	for r, cell := range cells {
		for _, v := range cell {
			region[v] = int32(r)
		}
	}
	return cells, region, borderFlags(g, region)
}

// borderFlags marks the nodes with any cross-region edge.
func borderFlags(g *graph.Graph, region []int32) []bool {
	border := make([]bool, len(region))
	for v := graph.NodeID(0); int(v) < len(region); v++ {
		for _, edges := range [][]graph.Edge{g.Out(v), g.In(v)} {
			for _, e := range edges {
				border[v] = border[v] || region[e.To] != region[v]
			}
		}
	}
	return border
}

// rebuilt copies g's nodes and edges into a new graph, node v at pos(v) and
// every edge weight passed through w.
func rebuilt(g *graph.Graph, pos func(graph.NodeID) geo.Point, w func(float64) float64) *graph.Graph {
	b := graph.NewBuilder()
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if err := b.SetPosition(b.AddNode(), pos(v)); err != nil {
			panic(err)
		}
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, e := range g.Out(v) {
			if err := b.AddEdge(v, e.To, w(e.Objective), w(e.Budget)); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}

// dyadic rounds a weight up to a multiple of 1/4: every path sum of such
// weights is exact in float64, so the pair query and the naive assembly agree
// bit for bit whatever order they add in, and equal sums tie.
func dyadic(x float64) float64 { return math.Ceil(4*x) / 4 }

// TestPartitionNumbering: PartitionGraph assigns the regions and marks the
// borders its rule yields — bisection on graphs with positions, growing on
// graphs without — and numbers them for scanning: each cell lists its
// borders first, then its interior, both in the rule's order; the overlay
// indices run cell by cell, so a cell's borders are one run of Borders; and
// Local, BorderIdx and BorderStart all agree with those lists. No cell
// exceeds the cap.
func TestPartitionNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ring := ringGraph(rng, 150, 3*150)
	graphs := map[string]*graph.Graph{
		"tied ring":    tiedGraph(rng, 120),
		"disconnected": disconnectedGraph(rng, 90),
		"barbell":      barbellTestGraph(rng, 8),
		"road":         gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500}),
		"grid":         gen.GridRoad(gen.GridConfig{Seed: 2012, Nodes: 1000}),
		"one point": rebuilt(ring, func(graph.NodeID) geo.Point { return geo.Point{X: 3, Y: 3} },
			func(w float64) float64 { return w }),
		"collinear": rebuilt(ring, func(v graph.NodeID) geo.Point {
			x := float64((int(v) * 37) % 150) // a permutation of the IDs along y = 2x
			return geo.Point{X: x, Y: 2 * x}
		}, func(w float64) float64 { return w }),
	}
	for name, g := range graphs {
		for _, cellSize := range []int{1, 8, 37, DefaultCellSize, 4000} {
			p := PartitionGraph(g, cellSize)
			capped := max(cellSize, 2)
			rule, order := growRegions, "discovery order"
			if g.HasPositions() {
				rule, order = bisectRegions, "ascending ID"
			}
			cells, region, border := rule(g, capped)
			if !slices.Equal(p.Region, region) || len(p.Cells) != len(cells) {
				t.Fatalf("%s cell size %d: region assignment differs from the partition rule", name, cellSize)
			}
			if len(p.BorderStart) != len(cells)+1 || int(p.BorderStart[len(cells)]) != len(p.Borders) {
				t.Fatalf("%s cell size %d: BorderStart %v does not close on %d borders", name, cellSize, p.BorderStart, len(p.Borders))
			}
			for c, listed := range cells {
				if len(listed) > capped {
					t.Fatalf("%s cell size %d: cell %d holds %d nodes", name, cellSize, c, len(listed))
				}
				var want, interior []graph.NodeID
				for _, v := range listed {
					if border[v] {
						want = append(want, v)
					} else {
						interior = append(interior, v)
					}
				}
				nb := len(want)
				if run := p.Borders[p.BorderStart[c]:p.BorderStart[c+1]]; !slices.Equal(run, want) {
					t.Fatalf("%s cell size %d: cell %d's overlay run is %v, its borders in %s %v", name, cellSize, c, run, order, want)
				}
				if want = append(want, interior...); !slices.Equal(p.Cells[c], want) {
					t.Fatalf("%s cell size %d: cell %d lists %v, want borders then interior %v", name, cellSize, c, p.Cells[c], want)
				}
				for l, v := range p.Cells[c] {
					idx := int32(-1)
					if l < nb {
						idx = p.BorderStart[c] + int32(l)
					}
					if p.Local[v] != int32(l) || p.BorderIdx[v] != idx {
						t.Fatalf("%s cell size %d: node %d at %d of cell %d has Local %d, BorderIdx %d (want %d)",
							name, cellSize, v, l, c, p.Local[v], p.BorderIdx[v], idx)
					}
				}
			}
			for b, v := range p.Borders {
				if p.BorderIdx[v] != int32(b) {
					t.Fatalf("%s cell size %d: Borders[%d] = %d, whose BorderIdx is %d", name, cellSize, b, v, p.BorderIdx[v])
				}
			}
			// With every node on one point the only order left is node ID:
			// the cells are consecutive ID ranges.
			if name == "one point" {
				next := graph.NodeID(0)
				for c, listed := range cells {
					for _, v := range listed {
						if v != next {
							t.Fatalf("one point cell size %d: cell %d lists node %d, want %d", cellSize, c, v, next)
						}
						next++
					}
				}
			}
		}
	}
}

// TestPartitionBenchGraph pins what bisection does on the 8,000-node bench
// graph at the default cap: ⌈8000/128⌉ = 63 full cells, and fewer than a
// quarter of the nodes borders (BFS growing from seeds in ID order left 152
// cells averaging 53 nodes and 2,480 borders).
func TestPartitionBenchGraph(t *testing.T) {
	p := PartitionGraph(gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 8000}), DefaultCellSize)
	if len(p.Cells) != 63 {
		t.Fatalf("%d cells, want 63", len(p.Cells))
	}
	for c, nodes := range p.Cells {
		if len(nodes) < 64 || len(nodes) > DefaultCellSize {
			t.Fatalf("cell %d holds %d nodes", c, len(nodes))
		}
	}
	if len(p.Borders) > 2000 {
		t.Fatalf("%d borders, want at most 2,000", len(p.Borders))
	}
	t.Logf("%d cells, %d borders", len(p.Cells), len(p.Borders))
}
