// Package apsp implements the paper's pre-processing stage (§3.1): for node
// pairs (vi, vj), the scores of two distinguished paths —
//
//	τ(i,j): the path minimizing the objective score, and
//	σ(i,j): the path minimizing the budget score.
//
// Only the objective and budget scores of τ and σ feed the search algorithms;
// the paths themselves are materialized on demand for presenting final
// routes. The algorithms read both through one view, Vector (vector.go):
// the scores between every node and one fixed root, with the paths behind
// them. Into, OutOf and OpenFrontier resolve it for any oracle, picking the
// implementation by the oracle's capabilities — a sweep or a frontier, a
// slice, or the pair interface seen from the root.
//
// Three interchangeable oracles are provided:
//
//   - MatrixOracle: dense |V|² score tables, the faithful rendition of the
//     paper's Floyd-Warshall pre-processing. Tables are filled by repeated
//     two-criteria Dijkstra, which yields identical scores in
//     O(|V|·|E|·log|V|) instead of O(|V|³).
//   - LazyOracle: single-target Dijkstra runs made on demand, each query
//     its own. Semantically identical, but scales to the 20k-node graphs
//     of the paper's Figure 17 without |V|² memory.
//   - PartitionedOracle (partition.go): the paper's §6 future-work design —
//     graph partition, per-cell tables and a border overlay.
//
// The partitioned oracle's per-target and per-source slices live in one
// keyed, single-flighted, byte-bounded store, the oracle memo (memo.go);
// there is no other cache in this package. The lazy oracle's sweeps and
// frontiers belong to the query plan that ran them.
//
// Ties between equal-score paths are broken by the secondary attribute
// (τ prefers the cheaper-budget path among equal-objective paths, σ the
// cheaper-objective one), making every oracle deterministic and mutually
// consistent.
package apsp

import "kor/internal/graph"

// Metric selects which edge attribute a search minimizes.
type Metric int

const (
	// ByObjective minimizes the objective attribute (the τ paths).
	ByObjective Metric = iota
	// ByBudget minimizes the budget attribute (the σ paths).
	ByBudget
)

// Oracle answers τ/σ score queries between node pairs. Implementations
// return ok=false when no path exists; scores are then undefined.
//
// All package oracles are safe for concurrent readers: MatrixOracle and
// PartitionedOracle's tables are immutable after construction, the oracle
// memo synchronizes itself, and LazyOracle shares nothing between queries
// but counters and a scratch pool. Custom implementations must
// uphold the same contract — one oracle instance serves every concurrent
// query of an engine.
type Oracle interface {
	// MinObjective returns the objective and budget score of τ(from,to).
	MinObjective(from, to graph.NodeID) (os, bs float64, ok bool)
	// MinBudget returns the objective and budget score of σ(from,to).
	MinBudget(from, to graph.NodeID) (os, bs float64, ok bool)
}

// PathMaterializer recovers the concrete τ/σ paths, used when presenting a
// final route to the user. The paper's tables store scores only; recovering
// a path costs one single-source run.
type PathMaterializer interface {
	// MinObjectivePath returns the node sequence of τ(from,to), inclusive of
	// both endpoints. For from == to it returns [from].
	MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool)
	// MinBudgetPath returns the node sequence of σ(from,to).
	MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool)
}

// Prefetcher is an optional oracle capability: a hint that many queries into
// a fixed target are coming. No oracle of this package acts on it; the lazy
// oracle keeps the method as a no-op for callers that still hint.
type Prefetcher interface {
	// PrefetchTarget hints that τ/σ queries into this target are imminent.
	PrefetchTarget(to graph.NodeID)
}

// PrefetchTarget forwards the hint if the oracle supports it.
func PrefetchTarget(o Oracle, to graph.NodeID) {
	if p, ok := o.(Prefetcher); ok {
		p.PrefetchTarget(to)
	}
}
