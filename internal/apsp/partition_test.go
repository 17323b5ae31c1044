package apsp

import (
	"math/rand"
	"slices"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// growRegions is the region growing and border rule written out on its own:
// breadth-first from each unassigned seed over in+out neighbours, a region
// claiming nodes while members plus queue stay under the cap, borders the
// nodes with any cross-region edge. It returns each region's nodes in
// discovery order and the border flags — what PartitionGraph must keep
// whatever numbering it lays on top.
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
	border = make([]bool, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		for _, edges := range [][]graph.Edge{g.Out(v), g.In(v)} {
			for _, e := range edges {
				border[v] = border[v] || region[e.To] != region[v]
			}
		}
	}
	return cells, region, border
}

// TestPartitionNumbering: PartitionGraph assigns the regions and marks the
// borders the growing rule yields, and numbers them for scanning — each
// cell lists its borders first, then its interior, both in discovery order;
// the overlay indices run cell by cell, so a cell's borders are one run of
// Borders; and Local, BorderIdx and BorderStart all agree with those lists.
func TestPartitionNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := map[string]*graph.Graph{
		"tied ring":    randomTestGraph(rng, 120, true),
		"disconnected": sparseTestGraph(rng, 90),
		"barbell":      barbellTestGraph(rng, 8),
		"road":         gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 1500}),
	}
	for name, g := range graphs {
		for _, cellSize := range []int{1, 8, 37, DefaultCellSize, 4000} {
			p := PartitionGraph(g, cellSize)
			cells, region, border := growRegions(g, max(cellSize, 2))
			if !slices.Equal(p.Region, region) || len(p.Cells) != len(cells) {
				t.Fatalf("%s cell size %d: region assignment differs from the growing rule", name, cellSize)
			}
			if len(p.BorderStart) != len(cells)+1 || int(p.BorderStart[len(cells)]) != len(p.Borders) {
				t.Fatalf("%s cell size %d: BorderStart %v does not close on %d borders", name, cellSize, p.BorderStart, len(p.Borders))
			}
			for c, discovered := range cells {
				var want, interior []graph.NodeID
				for _, v := range discovered {
					if border[v] {
						want = append(want, v)
					} else {
						interior = append(interior, v)
					}
				}
				nb := len(want)
				if run := p.Borders[p.BorderStart[c]:p.BorderStart[c+1]]; !slices.Equal(run, want) {
					t.Fatalf("%s cell size %d: cell %d's overlay run is %v, its borders in discovery order %v", name, cellSize, c, run, want)
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
		}
	}
}
