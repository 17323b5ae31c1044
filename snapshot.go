package kor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/graph"
)

// Live graph updates. An Engine no longer owns one graph forever: everything
// derived from a graph — the graph itself, the τ/σ oracle, the in-memory
// inverted index, the searcher and the memoized stats — lives in an
// immutable snapshot behind an atomic pointer. The oracle depends on the
// edges alone, so snapshots whose graphs have the same edges share it. Every engine follows live
// updates. Engine.Swap installs a whole new graph, Engine.Patch applies an
// incremental Delta to the current one; both build the new snapshot off the
// query path and publish it with a single pointer store, so in-flight
// queries finish against the snapshot they started on while new queries see
// the new graph immediately. The result cache is keyed by the snapshot
// fingerprint (stale entries can never be served) and is additionally
// cleared on every swap so dead entries stop squatting LRU capacity.

// ErrBadDelta wraps validation failures of a Patch delta: unknown nodes,
// edges that do not exist, out-of-domain attributes.
var ErrBadDelta = errors.New("kor: bad delta")

// SnapshotInfo identifies one graph snapshot of an engine.
type SnapshotInfo struct {
	// Fingerprint is the graph's content digest (Graph.Fingerprint): two
	// snapshots with the same fingerprint answer every query identically.
	Fingerprint uint64
	// Generation counts installed snapshots, starting at 1 for the engine's
	// construction graph and incrementing on every Swap or Patch.
	Generation uint64
	// LoadedAt is when this snapshot was installed.
	LoadedAt time.Time
}

// Oracle kind labels reported by OracleStatus.Kind and the
// kor_engine_oracle_kind metric. A closed set.
const (
	// OracleKindLazy is the on-demand sweep oracle.
	OracleKindLazy = "lazy"
	// OracleKindMatrix is the dense |V|² table oracle.
	OracleKindMatrix = "matrix"
	// OracleKindPartitionedDisk is the partition oracle loaded from a
	// persistent index file (EngineConfig.DistIndexPath).
	OracleKindPartitionedDisk = "partitioned-disk"
)

// OracleStatus reports which τ/σ oracle a snapshot is serving from, and the
// identity of the persistent index behind it when there is one. Surfaced by
// Engine.OracleStatus, /v1/stats and the kor_engine_oracle_* metrics.
type OracleStatus struct {
	// Kind is one of the OracleKind* labels.
	Kind string
	// Degraded reports that the engine was configured with a persistent
	// distance index but the current snapshot's graph no longer has the
	// edges the index was built from (a Swap or Patch changed an edge), so
	// queries are served by a lazy oracle instead of stale precomputed
	// distances. A keyword-only update neither sets nor clears it: the index
	// serves any graph with the same edges.
	Degraded bool
	// IndexFingerprint is the graph fingerprint (Graph.Fingerprint) of the
	// graph the configured persistent index was built for; zero when none is
	// configured. The index keeps serving graphs with the same edges whose
	// keywords differ, so this need not equal the snapshot's fingerprint.
	IndexFingerprint uint64
	// IndexBytes is the index file size; zero when none is configured.
	IndexBytes int64
	// Mapped reports that the index tables alias an mmap'ed file rather than
	// a decoded in-heap copy.
	Mapped bool
	// LoadTime is how long opening the persistent index took at engine
	// construction.
	LoadTime time.Duration
	// DegradedSince is when the engine entered the degraded fallback; zero
	// unless Degraded. It dates the start of the episode, surviving further
	// patches, so operators can tell a two-second blip from an hour-long
	// outage.
	DegradedSince time.Time
}

// snapshot bundles one graph with everything derived from it. All fields
// are immutable after construction except the lazily memoized stats; a
// snapshot is therefore safe to share between any number of queries, and
// swapping the engine's current snapshot can never disturb a query running
// on an old one.
type snapshot struct {
	g        *Graph
	searcher *core.Searcher
	info     SnapshotInfo
	oracle   OracleStatus

	// statsOnce memoizes ComputeStats — a full O(V+E) scan — per snapshot,
	// so a stats poller costs one scan per graph version, not per request.
	statsOnce sync.Once
	stats     GraphStats
}

// computeStats returns the snapshot's graph summary, scanning at most once.
func (sn *snapshot) computeStats() GraphStats {
	sn.statsOnce.Do(func() { sn.stats = sn.g.ComputeStats() })
	return sn.stats
}

// newSnapshot builds the per-graph substrates: the oracle (pickOracle) and a
// fresh in-memory inverted index. cur is the snapshot being replaced, nil at
// construction.
func (e *Engine) newSnapshot(g *Graph, generation uint64, cur *snapshot) (*snapshot, error) {
	oracle, status, err := e.pickOracle(g, cur)
	if err != nil {
		return nil, err
	}
	return &snapshot{
		g:        g,
		searcher: core.NewSearcher(g, oracle, graph.NewMemIndex(g)),
		info: SnapshotInfo{
			Fingerprint: g.Fingerprint(),
			Generation:  generation,
			LoadedAt:    time.Now(),
		},
		oracle: status,
	}, nil
}

// pickOracle chooses the τ/σ oracle for g by its distance fingerprint, since
// keywords never reach τ or σ. In order: the persistent distance index when
// g has the edges it was opened with; else the current snapshot's oracle and
// status when g has the same edges as its graph — a keyword-only update does
// no oracle work, and a degraded episode keeps its onset; else a fresh
// build. With an index configured the fresh build is a lazy oracle flagged
// Degraded: stale precomputed distances must never answer queries for
// changed edges.
func (e *Engine) pickOracle(g *Graph, cur *snapshot) (core.RouteOracle, OracleStatus, error) {
	var status OracleStatus
	if e.distOracle != nil {
		info := e.distOracle.IndexInfo()
		status = OracleStatus{
			IndexFingerprint: info.Fingerprint,
			IndexBytes:       info.Bytes,
			Mapped:           info.Mapped,
			LoadTime:         e.distLoad,
		}
		if g.DistanceFingerprint() == e.distFP {
			status.Kind = OracleKindPartitionedDisk
			e.degradedSince = time.Time{}
			return e.distOracle, status, nil
		}
	}
	if cur != nil && cur.g.DistanceFingerprint() == g.DistanceFingerprint() {
		return cur.searcher.Oracle(), cur.oracle, nil
	}
	if e.distOracle == nil {
		oracle, kind, err := buildOracle(g, e.cfg)
		return oracle, OracleStatus{Kind: kind}, err
	}
	status.Kind = OracleKindLazy
	status.Degraded = true
	if e.degradedSince.IsZero() {
		e.degradedSince = time.Now()
	}
	status.DegradedSince = e.degradedSince
	return apsp.NewLazyOracle(g), status, nil
}

// Swap atomically replaces the engine's graph with g: the index substrate is
// rebuilt for g and the oracle too unless g has the same edges as the
// current graph (off the query path — queries keep running on the current
// snapshot meanwhile), the new snapshot is published, and the result cache
// is cleared. Queries that entered Run before the swap finish
// against the old snapshot; queries entering after see g. The returned
// SnapshotInfo identifies the installed snapshot.
func (e *Engine) Swap(g *Graph) (SnapshotInfo, error) {
	if g == nil {
		return SnapshotInfo{}, errors.New("kor: nil graph")
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.installLocked(g)
}

// Patch applies d to the engine's current graph (Graph.Apply) and swaps in
// the result. Patches are serialized: concurrent Patch calls compose rather
// than race, each building on the previous snapshot's graph. An empty delta
// is a no-op returning the current snapshot. Validation failures wrap
// ErrBadDelta and leave the current snapshot in place.
func (e *Engine) Patch(d Delta) (SnapshotInfo, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.snap.Load()
	g2, err := cur.g.Apply(d)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	if g2 == cur.g {
		return cur.info, nil
	}
	return e.installLocked(g2)
}

// installLocked builds and publishes the snapshot for g. Callers hold
// swapMu, which serializes generation numbering with the pointer store.
func (e *Engine) installLocked(g *Graph) (SnapshotInfo, error) {
	sn, err := e.newSnapshot(g, e.generation+1, e.snap.Load())
	if err != nil {
		return SnapshotInfo{}, err
	}
	e.generation++
	e.snap.Store(sn)
	e.publishOracleStatus(sn.oracle)
	// Entries for the old fingerprint can never be hit again; free the
	// capacity now instead of waiting for LRU pressure. A query still in
	// flight on the old snapshot may re-insert its entry afterwards; that is
	// harmless — its key carries the old fingerprint, so it is unreachable
	// and ages out like any cold entry.
	e.results.clear()
	return sn.info, nil
}

// Snapshot returns the identity of the engine's current snapshot.
func (e *Engine) Snapshot() SnapshotInfo { return e.snap.Load().info }

// OracleStatus reports the oracle serving the engine's current snapshot.
// Watch Degraded after Swap or Patch on an engine configured with a
// persistent distance index: true means the live graph's edges no longer
// match the index and queries run on a lazy oracle until a graph with the
// same edges returns.
func (e *Engine) OracleStatus() OracleStatus { return e.snap.Load().oracle }

// Stats returns the current snapshot's graph summary and identity. The
// summary is computed once per snapshot and memoized, so polling this (as
// korserve's /v1/stats does) costs one O(V+E) scan per graph version, not
// per call. Both values come from one snapshot read and are therefore
// mutually consistent even under concurrent swaps.
func (e *Engine) Stats() (GraphStats, SnapshotInfo) {
	sn := e.snap.Load()
	return sn.computeStats(), sn.info
}
