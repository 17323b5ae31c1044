package layers

import (
	"time"

	"kor/bench/internal/trace"
	"kor/internal/apsp"
	"kor/internal/graph"
)

// probe accumulates what the wrappers observe during a traced replay. The
// replay is single-threaded, so plain fields suffice; request and parent are
// set by the replay loop before each query.
type probe struct {
	rec     *trace.Recorder
	request string
	parent  int

	pairLookups int

	sliceCalls int
	sliceHits  int
	sliceBusy  time.Duration
	// slices remembers the pointer each slice key last returned: the same
	// key returning the same *TargetSlice was served from the oracle's
	// cache, a different pointer was rebuilt.
	slices map[sliceKey]*apsp.TargetSlice

	pathCalls int
	pathBusy  time.Duration

	postingsCalls int
	postingsBusy  time.Duration

	// childBusy sums every timed child call, for core's self time.
	childBusy time.Duration
}

type sliceKey struct {
	node   graph.NodeID
	metric apsp.Metric
	source bool
}

func newProbe(rec *trace.Recorder) *probe {
	return &probe{rec: rec, parent: -1, slices: make(map[sliceKey]*apsp.TargetSlice)}
}

// timed runs one coarse call into a layer under a span and returns how long
// it took.
func (p *probe) timed(name string, call func()) time.Duration {
	id := p.rec.Start(name, p.request, p.parent)
	start := time.Now()
	call()
	took := time.Since(start)
	p.rec.End(id)
	p.childBusy += took
	return took
}

func (p *probe) path(name string, call func() ([]graph.NodeID, bool)) (nodes []graph.NodeID, ok bool) {
	p.pathCalls++
	p.pathBusy += p.timed(name, func() { nodes, ok = call() })
	return nodes, ok
}

// slice times a slice lookup and classifies it as a cache hit or a build by
// pointer identity.
func (p *probe) slice(name string, key sliceKey, call func() *apsp.TargetSlice) *apsp.TargetSlice {
	var ts *apsp.TargetSlice
	p.sliceCalls++
	p.sliceBusy += p.timed(name, func() { ts = call() })
	if SliceHit(p.slices, key, ts) {
		p.sliceHits++
	}
	return ts
}

// SliceHit reports whether ts is the pointer key returned last time — that
// is, whether the oracle served it from its cache — and remembers ts.
func SliceHit[K comparable](seen map[K]*apsp.TargetSlice, key K, ts *apsp.TargetSlice) bool {
	hit := seen[key] == ts
	seen[key] = ts
	return hit
}

// The oracle wrappers embed the concrete oracle, so every optional
// capability core discovers by type assertion (SliceIndexed, SourceSliced,
// OnDemand, Indexed, Prefetcher) is still there; they override only the
// calls worth observing. Coarse calls are timed under a span; pair lookups
// are only counted — a clock read per lookup would cost more than the
// lookup.

type tracedMatrix struct {
	*apsp.MatrixOracle
	p *probe
}

func (o tracedMatrix) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	o.p.pairLookups++
	return o.MatrixOracle.MinObjective(from, to)
}

func (o tracedMatrix) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	o.p.pairLookups++
	return o.MatrixOracle.MinBudget(from, to)
}

func (o tracedMatrix) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.p.path("apsp.MinObjectivePath", func() ([]graph.NodeID, bool) { return o.MatrixOracle.MinObjectivePath(from, to) })
}

func (o tracedMatrix) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.p.path("apsp.MinBudgetPath", func() ([]graph.NodeID, bool) { return o.MatrixOracle.MinBudgetPath(from, to) })
}

type tracedLazy struct {
	*apsp.LazyOracle
	p *probe
}

func (o tracedLazy) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	o.p.pairLookups++
	return o.LazyOracle.MinObjective(from, to)
}

func (o tracedLazy) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	o.p.pairLookups++
	return o.LazyOracle.MinBudget(from, to)
}

func (o tracedLazy) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.p.path("apsp.MinObjectivePath", func() ([]graph.NodeID, bool) { return o.LazyOracle.MinObjectivePath(from, to) })
}

func (o tracedLazy) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.p.path("apsp.MinBudgetPath", func() ([]graph.NodeID, bool) { return o.LazyOracle.MinBudgetPath(from, to) })
}

// PrefetchTarget is where the lazy oracle runs its full reverse sweeps.
func (o tracedLazy) PrefetchTarget(to graph.NodeID) {
	o.p.timed("apsp.PrefetchTarget", func() { o.LazyOracle.PrefetchTarget(to) })
}

type tracedPartitioned struct {
	*apsp.PartitionedOracle
	p *probe
}

func (o tracedPartitioned) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	o.p.pairLookups++
	return o.PartitionedOracle.MinObjective(from, to)
}

func (o tracedPartitioned) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	o.p.pairLookups++
	return o.PartitionedOracle.MinBudget(from, to)
}

func (o tracedPartitioned) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.p.path("apsp.MinObjectivePath", func() ([]graph.NodeID, bool) { return o.PartitionedOracle.MinObjectivePath(from, to) })
}

func (o tracedPartitioned) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.p.path("apsp.MinBudgetPath", func() ([]graph.NodeID, bool) { return o.PartitionedOracle.MinBudgetPath(from, to) })
}

func (o tracedPartitioned) TargetSlice(to graph.NodeID, m apsp.Metric) *apsp.TargetSlice {
	return o.p.slice("apsp.TargetSlice", sliceKey{to, m, false}, func() *apsp.TargetSlice { return o.PartitionedOracle.TargetSlice(to, m) })
}

func (o tracedPartitioned) SourceSlice(from graph.NodeID, m apsp.Metric) *apsp.TargetSlice {
	return o.p.slice("apsp.SourceSlice", sliceKey{from, m, true}, func() *apsp.TargetSlice { return o.PartitionedOracle.SourceSlice(from, m) })
}

// tracedIndex times the posting lookups of whatever PostingSource it wraps.
type tracedIndex struct {
	graph.PostingSource
	p *probe
}

func (ix tracedIndex) Postings(t graph.Term) []graph.NodeID {
	var out []graph.NodeID
	ix.p.postingsCalls++
	ix.p.postingsBusy += ix.p.timed("graph.Postings", func() { out = ix.PostingSource.Postings(t) })
	return out
}
