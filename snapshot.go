package kor

import (
	"errors"
	"fmt"
	"runtime"
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
// edges alone, so snapshots whose graphs have the same edges share it. Every
// engine follows live updates. Engine.Swap installs a whole new graph,
// Engine.Patch applies an incremental Delta to the current one; both build
// the new snapshot off the query path and publish it with a single pointer
// store, so in-flight queries finish against the snapshot they started on
// while new queries see the new graph immediately.
//
// A table oracle never delays a snapshot. A snapshot whose edges are new
// goes in at once on the exact lazy oracle, and one background build per
// engine fills the tables for its distance fingerprint (buildLocked); the
// build publishes a further snapshot, on whatever graph is then current,
// when that graph still has those edges. A newer edge change cancels the
// build in flight. The result cache is keyed by the snapshot generation, so
// no answer of an earlier snapshot — an older graph, or the lazy oracle the
// tables replaced — is served, and it is cleared on every publish so dead
// entries stop squatting LRU capacity.

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

// OracleStatus reports which τ/σ oracle a snapshot is serving from, since
// when, the table build pending for it, and the identity of the persistent
// index behind it when there is one. Surfaced by Engine.OracleStatus,
// /v1/stats and the kor_engine_oracle_* metrics.
type OracleStatus struct {
	// Kind is one of the OracleKind* labels: OracleKindLazy while Pending is
	// set.
	Kind string
	// Pending names the table oracle (OracleKindMatrix) being built in the
	// background for the snapshot's edges while the lazy oracle answers;
	// empty when no build is pending.
	Pending string
	// Since is when the serving oracle began answering: when its tables
	// were published, or when the snapshot that brought in its edges was
	// installed. A keyword-only update keeps it.
	Since time.Time
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
// keywords never reach τ or σ. In order: the current snapshot's oracle and
// status when g has the same edges as its graph — a keyword-only update does
// no oracle work, and a pending build or a degraded episode carries on; the
// persistent distance index when g has the edges it was opened with; else a
// fresh lazy oracle. With an index configured that lazy oracle is flagged
// Degraded: stale precomputed distances must never answer queries for
// changed edges. Without one, a table configuration marks it Pending, and
// the caller starts the build (buildLocked).
func (e *Engine) pickOracle(g *Graph, cur *snapshot) (core.RouteOracle, OracleStatus, error) {
	fp := g.DistanceFingerprint()
	if cur != nil && cur.g.DistanceFingerprint() == fp {
		return cur.searcher.Oracle(), cur.oracle, nil
	}
	status := OracleStatus{Kind: OracleKindLazy, Since: time.Now()}
	if e.distOracle != nil {
		info := e.distOracle.IndexInfo()
		status.IndexFingerprint = info.Fingerprint
		status.IndexBytes = info.Bytes
		status.Mapped = info.Mapped
		status.LoadTime = e.distLoad
		if fp == e.distFP {
			status.Kind = OracleKindPartitionedDisk
			e.degradedSince = time.Time{}
			return e.distOracle, status, nil
		}
		status.Degraded = true
		if e.degradedSince.IsZero() {
			e.degradedSince = status.Since
		}
		status.DegradedSince = e.degradedSince
		return apsp.NewLazyOracle(g), status, nil
	}
	switch e.cfg.Oracle {
	case OracleAuto:
		if g.NumNodes() <= denseOracleLimit {
			status.Pending = OracleKindMatrix
		}
	case OracleDense:
		status.Pending = OracleKindMatrix
	case OracleLazy:
	default:
		return nil, OracleStatus{}, fmt.Errorf("kor: unknown oracle kind %d", e.cfg.Oracle)
	}
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
// swapMu, which serializes generation numbering with the pointer store. New
// edges cancel the table build in flight, whose tables are for edges no
// longer current, and start the one the new snapshot's oracle is pending.
func (e *Engine) installLocked(g *Graph) (SnapshotInfo, error) {
	cur := e.snap.Load()
	sn, err := e.newSnapshot(g, e.generation+1, cur)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if g.DistanceFingerprint() != cur.g.DistanceFingerprint() {
		if e.build != nil {
			e.build.cancelLocked()
		}
		if sn.oracle.Pending != "" {
			e.buildLocked(g)
		}
	}
	e.publishLocked(sn)
	return sn.info, nil
}

// publishLocked makes sn the engine's snapshot. Callers hold swapMu.
func (e *Engine) publishLocked(sn *snapshot) {
	e.generation = sn.info.Generation
	e.snap.Store(sn)
	e.publishOracleStatus(sn.oracle)
	// Entries of the old generation can never be hit again; free the
	// capacity now instead of waiting for LRU pressure. A query still in
	// flight on the old snapshot may re-insert its entry afterwards; that is
	// harmless — its key carries the old generation, so it is unreachable
	// and ages out like any cold entry.
	e.results.clear()
}

// tableBuild is one background fill of the table oracle for the edges with
// distance fingerprint fp. stop closes to cancel it; done closes when its
// goroutine has returned, its tables published or dropped.
type tableBuild struct {
	fp   uint64
	stop chan struct{}
	done chan struct{}
}

// cancelLocked closes b.stop unless it is closed already. Callers hold
// swapMu, under which every close happens.
func (b *tableBuild) cancelLocked() {
	if !b.cancelled() {
		close(b.stop)
	}
}

// cancelled reports whether b.stop is closed.
func (b *tableBuild) cancelled() bool {
	select {
	case <-b.stop:
		return true
	default:
		return false
	}
}

// buildLocked starts the table build for g's edges. Callers hold swapMu and
// have cancelled the build in flight, if any: the new one waits for it to
// end, so at most one fills tables at a time and at most two table oracles
// are reachable, the one still answering old snapshots' queries and the one
// being filled. No build starts once the engine is closed.
func (e *Engine) buildLocked(g *Graph) {
	if e.closed {
		return
	}
	b := &tableBuild{fp: g.DistanceFingerprint(), stop: make(chan struct{}), done: make(chan struct{})}
	prev := e.build
	e.build = b
	go e.fillAndSwap(b, g, prev)
}

// fillAndSwap runs build b over g once prev has ended, then publishes a
// snapshot of the current graph on the new tables, provided b was not
// cancelled meanwhile and that graph still has g's edges. The generation
// moves, so no answer cached from the lazy oracle outlives it.
func (e *Engine) fillAndSwap(b *tableBuild, g *Graph, prev *tableBuild) {
	defer close(b.done)
	if prev != nil {
		<-prev.done
	}
	if b.cancelled() {
		return
	}
	if e.buildHook != nil {
		e.buildHook(b)
	}
	// The tables live outside the Go heap, where the collector's pacing does
	// not see them: the matrix an edge change retired may still be mapped,
	// unreachable, with no collection due. Collect before mapping the next,
	// so its cleanup releases it and at most two are mapped.
	if n, _ := apsp.TableMemory(); n > 0 {
		runtime.GC()
	}
	o := apsp.BuildMatrixOracle(b.stop, g)
	if o == nil {
		return
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.snap.Load()
	if b.cancelled() || cur.g.DistanceFingerprint() != b.fp {
		return
	}
	now := time.Now()
	e.publishLocked(&snapshot{
		g:        cur.g,
		searcher: core.NewSearcher(cur.g, o, cur.searcher.Index()),
		info: SnapshotInfo{
			Fingerprint: cur.info.Fingerprint,
			Generation:  e.generation + 1,
			LoadedAt:    now,
		},
		oracle: OracleStatus{Kind: OracleKindMatrix, Since: now},
	})
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
