package layers

import (
	"testing"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/gen"
	"kor/internal/graph"
)

func TestSliceHitIsPointerIdentity(t *testing.T) {
	seen := make(map[string]*apsp.TargetSlice)
	a, b := &apsp.TargetSlice{}, &apsp.TargetSlice{}
	if SliceHit(seen, "k", a) {
		t.Error("first sight of a key counted as a hit")
	}
	if !SliceHit(seen, "k", a) {
		t.Error("same pointer for the same key not counted as a hit")
	}
	if SliceHit(seen, "k", b) {
		t.Error("a rebuilt slice (new pointer) counted as a hit")
	}
	if !SliceHit(seen, "k", b) {
		t.Error("the rebuilt slice returned again not counted as a hit")
	}
	if SliceHit(seen, "other", b) {
		t.Error("another key's first sight counted as a hit")
	}
}

// The wrappers must not hide the capabilities core discovers by type
// assertion, or the traced replay would run a different plan than the
// server does.
func TestWrappersKeepOracleCapabilities(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 1, Nodes: 200})
	p := newProbe(nil)

	var lazy core.RouteOracle = tracedLazy{apsp.NewLazyOracle(g), p}
	if !apsp.IsOnDemand(lazy) {
		t.Error("traced lazy oracle lost OnDemand")
	}
	if _, ok := lazy.(apsp.Prefetcher); !ok {
		t.Error("traced lazy oracle lost Prefetcher")
	}

	var matrix core.RouteOracle = tracedMatrix{apsp.NewMatrixOracle(g), p}
	if !apsp.HasIndexedPaths(matrix) {
		t.Error("traced matrix oracle lost Indexed")
	}

	var part core.RouteOracle = tracedPartitioned{apsp.NewPartitionedOracle(g, 32), p}
	if _, ok := part.(apsp.SliceIndexed); !ok {
		t.Error("traced partitioned oracle lost SliceIndexed")
	}
	if _, ok := part.(apsp.SourceSliced); !ok {
		t.Error("traced partitioned oracle lost SourceSliced")
	}
	if !apsp.HasIndexedPaths(part) {
		t.Error("traced partitioned oracle lost Indexed")
	}

	// And they observe: one slice built, then served from cache.
	so := part.(apsp.SliceIndexed)
	so.TargetSlice(graph.NodeID(5), apsp.ByBudget)
	so.TargetSlice(graph.NodeID(5), apsp.ByBudget)
	if p.sliceCalls != 2 || p.sliceHits != 1 {
		t.Errorf("slice calls=%d hits=%d, want 2 and 1", p.sliceCalls, p.sliceHits)
	}
	part.MinObjective(0, 5)
	if p.pairLookups != 1 {
		t.Errorf("pair lookups=%d, want 1", p.pairLookups)
	}
}
