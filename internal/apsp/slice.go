package apsp

import (
	"math"
	"sync/atomic"
	"unsafe"

	"kor/internal/graph"
)

// Per-target distance slices. The label algorithms hammer a handful of fixed
// targets — the query target, the strategy-1 jump nodes, the strategy-2
// keyword nodes — with pair lookups from thousands of distinct sources. The
// partitioned oracle's pair assembly costs |borders(i)|·|borders(j)| table
// probes per lookup; hoisting the per-target half out of it turns a lookup
// into an array read. A TargetSlice is that amortization, one partition cell
// at a time: the scores of every node of a cell into the fixed target are
// assembled together — O(|borders(cell)|·|borders(target's cell)| +
// k·|borders(cell)|) for a k-node cell — the first time a lookup lands in the
// cell, and never for a cell no lookup reaches. A query is bounded by its
// budget Δ, so its lookups stay inside the few cells around the target and
// the work follows that reach, not |V|; no bound is carried, because a cell
// that turns out to be needed after all is simply assembled then. The slices
// live in the oracle memo (memo.go), so a steady query stream over a stable
// keyword universe assembles each touched cell once.

// TargetSlice is the view of the metric-optimal scores from every node into
// one fixed target (or, for a source slice, out of one fixed source into
// every node), held as one segment per partition cell. A segment is absent
// until Scores first lands in its cell and immutable once published, so
// lookups take no lock. The view reads the oracle's tables: it must not
// outlive the oracle's Close.
type TargetSlice struct {
	o             *PartitionedOracle
	region, local []int32 // o.region, o.local: one indirection less per lookup
	cells         []sliceCell

	metric     Metric
	outbound   bool
	rootRegion int32
	rootLocal  int

	// bytes is what the view holds right now: its own bookkeeping plus every
	// published segment. Bumped by the publisher, read by MemoStats.
	bytes atomic.Int64
}

// scorePair is one node's entry of a segment: primary and secondary score
// side by side, so a lookup reads one cache line.
type scorePair struct{ prim, sec float64 }

// sliceCell is one cell's slot of a slice: seg points at the first of the
// cell's k entries, indexed by local node index — nil until assembled, then
// never written again. The slot points straight at the data (a slice header
// cannot be published in one store, a pointer to one would cost a hop), and k
// beside it keeps the lookup bounds-checked.
type sliceCell struct {
	seg atomic.Pointer[scorePair]
	k   int
}

const (
	scorePairBytes = int64(unsafe.Sizeof(scorePair{}))
	sliceCellBytes = int64(unsafe.Sizeof(sliceCell{}))
	sliceBaseBytes = int64(unsafe.Sizeof(TargetSlice{}))
)

// SliceIndexed is an optional oracle capability: per-target score views at
// array-read lookup cost. Query plans resolve the slices for their candidate
// targets once at plan time and then bypass the pair-query interface
// entirely on the hot path, reading through (*TargetSlice).Scores.
type SliceIndexed interface {
	// TargetSlice returns the view of the scores into target to under metric
	// m. Resolving it is cheap — the scores are assembled by the lookups, cell
	// by cell. The result is shared between queries.
	TargetSlice(to graph.NodeID, m Metric) *TargetSlice
}

// SourceSliced is the outbound mirror of SliceIndexed: the scores from one
// fixed source to every node. Greedy hammers this orientation — one current
// waypoint against every candidate keyword node.
//
// Unlike target slices, source-slice scores are not bit-identical to the
// pair interface: the assembly hoists the per-source half, which associates
// the primary sum as (head + mid) + tail where the pair query computes
// head + (mid + tail). Reachability is identical and scores agree to
// floating-point association; use source slices for ranking and
// accumulation, not for equality against pair-query answers.
type SourceSliced interface {
	// SourceSlice returns the view of the scores out of from under metric m:
	// Scores(v) is the pair of from→v. Shared between queries.
	SourceSlice(from graph.NodeID, m Metric) *TargetSlice
}

// sliceBytes is the most one slice over an n-node graph comes to hold: every
// cell assembled (16 B per node) plus the per-cell slots. The memo is sized
// from n alone, before any partition is known, so the slots are charged at
// one cell per 8 nodes — region growing yields cells of ~50 nodes at the
// default cell size, a sixth of that charge. What a slice really holds is
// usually far less and is what MemoStats reports.
func sliceBytes(n int) int64 {
	return scorePairBytes*int64(n) + sliceCellBytes*int64(n/8+1) + sliceBaseBytes
}

// newSliceMemo sizes the oracle's slice store for an n-node graph: bounded
// by sliceMemoBudget bytes alone (~3,000 slices on a 5000-node graph). A
// slice is published empty and fills as it is read, so every slice is
// charged the worst case.
func newSliceMemo(n int) *memo[*TargetSlice] {
	worst := sliceBytes(n)
	return newMemo(math.MaxInt, sliceMemoBudget, worst, func(*TargetSlice) int64 { return worst })
}

// TargetSlice returns (creating and caching on first use) the view of the
// scores into to under metric m.
func (o *PartitionedOracle) TargetSlice(to graph.NodeID, m Metric) *TargetSlice {
	ts, _ := o.slices.get(memoKey{to, m, false}, nil, func() *TargetSlice { return o.newSlice(to, m, false) })
	return ts
}

// SourceSlice returns (creating and caching on first use) the view of the
// scores out of from under metric m.
func (o *PartitionedOracle) SourceSlice(from graph.NodeID, m Metric) *TargetSlice {
	ts, _ := o.slices.get(memoKey{from, m, true}, nil, func() *TargetSlice { return o.newSlice(from, m, true) })
	return ts
}

// MemoStats reports the slice memo's counters and residency. ResidentBytes
// is what the resident slices have assembled so far, not entries × the
// worst case Capacity is derived from.
func (o *PartitionedOracle) MemoStats() MemoStats {
	return o.slices.stats(func(ts *TargetSlice) int64 { return ts.bytes.Load() })
}

// newSlice resolves the root (panicking on a node outside the graph, like
// any table lookup) and lays out the empty per-cell slots.
func (o *PartitionedOracle) newSlice(root graph.NodeID, m Metric, outbound bool) *TargetSlice {
	ts := &TargetSlice{
		o:          o,
		region:     o.region,
		local:      o.local,
		cells:      make([]sliceCell, len(o.cells)),
		metric:     m,
		outbound:   outbound,
		rootRegion: o.region[root],
		rootLocal:  int(o.local[root]),
	}
	for i := range o.cells {
		ts.cells[i].k = len(o.cells[i].nodes)
	}
	ts.bytes.Store(sliceBaseBytes + sliceCellBytes*int64(len(ts.cells)))
	return ts
}

// Scores returns the primary-metric score of the optimal path between v and
// the slice's root (v→root on a target slice, root→v on a source slice) and
// the other attribute summed along that same path; prim is +Inf when there
// is no path. The first lookup in a cell assembles the cell's segment.
func (ts *TargetSlice) Scores(v graph.NodeID) (prim, sec float64) {
	r := ts.region[v]
	c := &ts.cells[r]
	seg := c.seg.Load()
	if seg == nil {
		seg = ts.assemble(r)
	}
	e := &unsafe.Slice(seg, c.k)[ts.local[v]]
	return e.prim, e.sec
}

// assemble computes cell r's segment and publishes it with one atomic store.
// Concurrent first touches may both assemble; the segments are bit-identical,
// the first published wins and the other is dropped.
func (ts *TargetSlice) assemble(r int32) *scorePair {
	var seg []scorePair
	if ts.outbound {
		seg = ts.o.sourceSegment(ts, r)
	} else {
		seg = ts.o.targetSegment(ts, r)
	}
	c := &ts.cells[r]
	if c.seg.CompareAndSwap(nil, &seg[0]) {
		ts.bytes.Add(scorePairBytes * int64(len(seg)))
	}
	return c.seg.Load()
}

// targetSegment assembles cell ci's scores into the slice's target: first
// the best overlay+tail completion per border node of the cell (mid + tail),
// then per node the best head through those borders — exactly query's
// decomposition with the per-target half hoisted out, in query's loop order
// and with the same head + (mid + tail) association and tie-break, so slice
// lookups reproduce query's scores bit for bit.
func (o *PartitionedOracle) targetSegment(ts *TargetSlice, ci int32) []scorePair {
	m := ts.metric
	cell := &o.cells[ci]
	k := len(cell.nodes)
	iPrim, iSec, _ := cell.scoreTables(m)
	cj := &o.cells[ts.rootRegion]
	kj := len(cj.nodes)
	lj := ts.rootLocal
	jPrim, jSec, _ := cj.scoreTables(m)
	ovP, ovS, _ := o.overlayTables(m)
	b := len(o.borders)
	inf := math.Inf(1)

	// mt[x]: best overlay(b1,b2) + intra(b2,target) over the target region's
	// borders b2, for the cell's x-th border b1.
	mt := make([]scorePair, len(cell.borderLoc))
	for x, b1loc := range cell.borderLoc {
		row := int(o.borderIdx[cell.nodes[b1loc]]) * b
		bp, bs := inf, inf
		for _, b2loc := range cj.borderLoc {
			tail := jPrim[int(b2loc)*kj+lj]
			if math.IsInf(tail, 1) {
				continue
			}
			b2 := int(o.borderIdx[cj.nodes[b2loc]])
			mid := ovP[row+b2]
			if math.IsInf(mid, 1) {
				continue
			}
			p := mid + tail
			if p > bp {
				continue // the secondary sum only matters to a winner or a tie
			}
			s := ovS[row+b2] + jSec[int(b2loc)*kj+lj]
			if p < bp || s < bs {
				bp, bs = p, s
			}
		}
		mt[x] = scorePair{bp, bs}
	}

	seg := make([]scorePair, k)
	sameRegion := ci == ts.rootRegion
	for li := 0; li < k; li++ {
		bestP, bestS := inf, inf
		if sameRegion {
			bestP = iPrim[li*k+lj]
			bestS = iSec[li*k+lj]
		}
		for x, b1loc := range cell.borderLoc {
			head := iPrim[li*k+int(b1loc)]
			if math.IsInf(head, 1) || math.IsInf(mt[x].prim, 1) {
				continue
			}
			p := head + mt[x].prim
			if p > bestP {
				continue
			}
			s := iSec[li*k+int(b1loc)] + mt[x].sec
			if p < bestP || s < bestS {
				bestP, bestS = p, s
			}
		}
		seg[li] = scorePair{bestP, bestS}
	}
	if sameRegion {
		seg[lj] = scorePair{}
	}
	return seg
}

// sourceSegment assembles cell cj's scores out of the slice's source: first
// the best head+overlay arrival per border node of the cell ((head + mid),
// hoisting the per-source half), then per node the best completion from
// those borders. The hoisted association makes this the (head + mid) + tail
// ordering — see SourceSliced for the contract.
func (o *PartitionedOracle) sourceSegment(ts *TargetSlice, cj int32) []scorePair {
	m := ts.metric
	cell := &o.cells[cj]
	k := len(cell.nodes)
	jPrim, jSec, _ := cell.scoreTables(m)
	ci := &o.cells[ts.rootRegion]
	ki := len(ci.nodes)
	li := ts.rootLocal
	iPrim, iSec, _ := ci.scoreTables(m)
	ovP, ovS, _ := o.overlayTables(m)
	b := len(o.borders)
	inf := math.Inf(1)

	// hm[x]: best intra(source,b1) + overlay(b1,b2) over the source region's
	// borders b1, for the cell's x-th border b2.
	hm := make([]scorePair, len(cell.borderLoc))
	for x, b2loc := range cell.borderLoc {
		b2 := int(o.borderIdx[cell.nodes[b2loc]])
		bp, bs := inf, inf
		for _, b1loc := range ci.borderLoc {
			head := iPrim[li*ki+int(b1loc)]
			if math.IsInf(head, 1) {
				continue
			}
			row := int(o.borderIdx[ci.nodes[b1loc]]) * b
			mid := ovP[row+b2]
			if math.IsInf(mid, 1) {
				continue
			}
			p := head + mid
			if p > bp {
				continue // the secondary sum only matters to a winner or a tie
			}
			s := iSec[li*ki+int(b1loc)] + ovS[row+b2]
			if p < bp || s < bs {
				bp, bs = p, s
			}
		}
		hm[x] = scorePair{bp, bs}
	}

	seg := make([]scorePair, k)
	sameRegion := cj == ts.rootRegion
	for lj := 0; lj < k; lj++ {
		bestP, bestS := inf, inf
		if sameRegion {
			bestP = iPrim[li*ki+lj]
			bestS = iSec[li*ki+lj]
		}
		for x, b2loc := range cell.borderLoc {
			tail := jPrim[int(b2loc)*k+lj]
			if math.IsInf(tail, 1) || math.IsInf(hm[x].prim, 1) {
				continue
			}
			p := hm[x].prim + tail
			if p > bestP {
				continue
			}
			s := hm[x].sec + jSec[int(b2loc)*k+lj]
			if p < bestP || s < bestS {
				bestP, bestS = p, s
			}
		}
		seg[lj] = scorePair{bestP, bestS}
	}
	if sameRegion {
		seg[li] = scorePair{}
	}
	return seg
}
