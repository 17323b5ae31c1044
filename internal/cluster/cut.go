package cluster

import (
	"fmt"
	"sort"

	"kor/internal/apsp"
	"kor/internal/graph"
)

// CutConfig parameterizes a shard cut.
type CutConfig struct {
	// Shards is the number of shards to cut the graph into (≥ 1; clamped to
	// the number of partition cells).
	Shards int
	// CellSize is the apsp partition region cap (0 = apsp.DefaultCellSize).
	CellSize int
	// Halo is how many undirected BFS hops beyond a shard's owned nodes are
	// replicated into its graph. A larger halo answers more cross-border
	// routes shard-locally at the cost of duplicated storage; routes that
	// leave the closure entirely are not found by that shard.
	Halo int
}

// Cut is the result of CutGraph: one graph per shard plus the map tying
// them together.
type Cut struct {
	Map *ShardMap
	// Graphs is the per-shard graph, index-aligned with Map.Shards. Every
	// shard graph keeps the full node set — global node IDs are valid
	// verbatim on every shard, so the router never translates IDs and
	// keyword deltas address the same node everywhere — but only closure
	// nodes (owned ∪ halo) keep their edges and keywords.
	Graphs []*graph.Graph
}

// CutGraph partitions g with the apsp region partitioner, groups the
// regions into cfg.Shards contiguous shards balanced by node count, and
// builds each shard's graph: the full node set (names and positions
// preserved), with edges and keywords restricted to the shard's closure.
// Every shard graph shares g's exact vocabulary and term numbering, so a
// keyword unknown to one shard is unknown to all, and saved shard graphs
// reload with identical Term IDs.
func CutGraph(g *graph.Graph, cfg CutConfig) (*Cut, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: cut needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Halo < 0 {
		return nil, fmt.Errorf("cluster: negative halo %d", cfg.Halo)
	}
	cellSize := cfg.CellSize
	if cellSize == 0 {
		cellSize = apsp.DefaultCellSize
	}
	n := g.NumNodes()
	part := apsp.PartitionGraph(g, cellSize)

	nShards := cfg.Shards
	if nShards > len(part.Cells) {
		nShards = len(part.Cells)
	}

	// Sequential fill: walk cells in partition order into the current shard
	// until it reaches the target node count. The last shard takes the
	// remainder. On a graph with positions the order is that of the
	// bisection's leaves, left first and depth first, so consecutive cells
	// are spatial neighbours and each shard is a compact block of them
	// (apsp.PartitionGraph).
	cellShard := make([]int, len(part.Cells))
	target := (n + nShards - 1) / nShards
	shard, filled := 0, 0
	regions := make([]int, nShards)
	for ci, nodes := range part.Cells {
		if shard < nShards-1 && filled >= target {
			shard++
			filled = 0
		}
		cellShard[ci] = shard
		regions[shard]++
		filled += len(nodes)
	}

	nodeShard := make([]int, n)
	for v := 0; v < n; v++ {
		nodeShard[v] = cellShard[part.Region[v]]
	}

	cut := &Cut{
		Map: &ShardMap{
			Version:         ShardMapVersion,
			FullFingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
			CellSize:        cellSize,
			Halo:            cfg.Halo,
			Nodes:           n,
			Edges:           g.NumEdges(),
			Terms:           g.Vocab().Len(),
			MinObjective:    g.MinObjective(),
			MaxObjective:    g.MaxObjective(),
			MinBudget:       g.MinBudget(),
			MaxBudget:       g.MaxBudget(),
			NodeShard:       nodeShard,
		},
		Graphs: make([]*graph.Graph, nShards),
	}

	for s := 0; s < nShards; s++ {
		closure := make([]bool, n)
		owned := 0
		var frontier []graph.NodeID
		for v := 0; v < n; v++ {
			if nodeShard[v] == s {
				closure[v] = true
				owned++
				frontier = append(frontier, graph.NodeID(v))
			}
		}
		// Halo: breadth-first over the undirected skeleton.
		for hop := 0; hop < cfg.Halo; hop++ {
			var next []graph.NodeID
			for _, v := range frontier {
				for _, e := range g.Out(v) {
					if !closure[e.To] {
						closure[e.To] = true
						next = append(next, e.To)
					}
				}
				for _, e := range g.In(v) {
					if !closure[e.To] {
						closure[e.To] = true
						next = append(next, e.To)
					}
				}
			}
			frontier = next
		}

		sg, info, err := buildShardGraph(g, closure)
		if err != nil {
			return nil, fmt.Errorf("cluster: building shard %d: %w", s, err)
		}
		info.ID = s
		info.Regions = regions[s]
		info.Owned = owned
		// Owned-node keyword counts: summed across shards these are exact
		// global counts (ownership partitions the nodes), which the router
		// serves from /v1/keywords instead of halo-overlapping shard counts.
		kwOwned := make(map[string]int)
		for v := 0; v < n; v++ {
			if nodeShard[v] != s {
				continue
			}
			for _, t := range g.Terms(graph.NodeID(v)) {
				kwOwned[g.Vocab().Name(t)]++
			}
		}
		if len(kwOwned) > 0 {
			info.KeywordOwned = kwOwned
		}
		cut.Graphs[s] = sg
		cut.Map.Shards = append(cut.Map.Shards, info)
	}
	cut.Map.index()
	return cut, nil
}

// buildShardGraph copies g restricted to the closure: all nodes exist (with
// their names and positions) but only closure nodes keep keywords, and only
// edges with both endpoints in the closure survive.
func buildShardGraph(g *graph.Graph, closure []bool) (*graph.Graph, ShardInfo, error) {
	// A fresh vocabulary interned in g's order reproduces g's exact Term
	// numbering without sharing the mutable vocabulary across graphs.
	vocab := graph.NewVocabulary()
	for _, name := range g.Vocab().Names() {
		vocab.Intern(name)
	}
	b := graph.NewBuilderWithVocab(vocab)

	n := g.NumNodes()
	keywords := make(map[string]struct{})
	closureCount := 0
	var kwScratch []string
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		kwScratch = kwScratch[:0]
		if closure[v] {
			closureCount++
			for _, t := range g.Terms(id) {
				name := g.Vocab().Name(t)
				kwScratch = append(kwScratch, name)
				keywords[name] = struct{}{}
			}
		}
		nv := b.AddNode(kwScratch...)
		if g.HasPositions() {
			if err := b.SetPosition(nv, g.Position(id)); err != nil {
				return nil, ShardInfo{}, err
			}
		}
		if name := g.Name(id); name != "" {
			if err := b.SetName(nv, name); err != nil {
				return nil, ShardInfo{}, err
			}
		}
	}
	edges := 0
	for v := 0; v < n; v++ {
		if !closure[v] {
			continue
		}
		for _, e := range g.Out(graph.NodeID(v)) {
			if !closure[e.To] {
				continue
			}
			if err := b.AddEdge(graph.NodeID(v), e.To, e.Objective, e.Budget); err != nil {
				return nil, ShardInfo{}, err
			}
			edges++
		}
	}
	sg, err := b.Build()
	if err != nil {
		return nil, ShardInfo{}, err
	}
	kws := make([]string, 0, len(keywords))
	for kw := range keywords {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	return sg, ShardInfo{
		Fingerprint: fmt.Sprintf("%016x", sg.Fingerprint()),
		Closure:     closureCount,
		Edges:       edges,
		Keywords:    kws,
	}, nil
}
