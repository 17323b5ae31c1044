package apsp

import (
	"math"
	"sync/atomic"
	"unsafe"

	"kor/internal/graph"
)

// Per-target distance slices. The label algorithms hammer a handful of fixed
// targets — the query target and the strategy-2 keyword nodes — with pair
// lookups from thousands of distinct sources. The partitioned oracle's pair
// assembly costs nb(i)·nb(j) table entries per lookup; hoisting the
// per-target half out of it leaves nb(i). A TargetSlice is that
// amortization, and it computes only what is looked up: the first lookup
// that lands in a partition cell scans one block of the overlay — the cell's
// borders against the target cell's — into the cell's border vector, the
// best overlay+tail completion per border; each node's score is then one
// scan of its table row against that vector, on the first lookup of that
// node, and an array read ever after. A query is bounded by its budget Δ, so
// its lookups stay inside the few cells around the target and read a
// fraction of their nodes; no bound is carried, because whatever turns out
// to be needed after all is simply computed then. The slices live in the
// oracle memo (memo.go), so a steady query stream over a stable keyword
// universe computes each score once.

// TargetSlice is the view of the metric-optimal scores from every node into
// one fixed target (or, for a source slice, out of one fixed source into
// every node), held as one block per partition cell. A block is absent until
// Scores first lands in its cell, a node's score pending until Scores first
// asks for it; both are published with atomic stores and never change
// afterwards, so lookups take no lock. The view reads the oracle's tables: it
// must not outlive the oracle's Close.
type TargetSlice struct {
	o             *PartitionedOracle
	region, local []int32 // o.region, o.local: one indirection less per lookup
	blocks        []sliceBlock

	metric   Metric
	outbound bool
	root     *cellTables
	rootCell int
	rootLoc  int
	// rootVec is the root's half of every assembly: its intra-region scores
	// into the target from each border of its cell (out of the source to each
	// border, for a source slice), gathered once. rootMin holds its least
	// primary and its least secondary, which CellBound adds to the overlay's.
	rootVec []scorePair
	rootMin scorePair

	// bytes is what the view holds right now: its own bookkeeping plus every
	// published block. Bumped by the publisher, read by MemoStats.
	bytes atomic.Int64
}

// scorePair is a primary and a secondary score side by side.
type scorePair struct{ prim, sec float64 }

// scoreEntry is one node's published scores, as float64 bits, side by side so
// a lookup reads one cache line. All-zero is "not computed yet" — what a
// fresh block holds — and costs nothing to recognise: a computed primary is
// +Inf or a sum of positive edge scores, and 0 only at the root, which is
// answered before the entry is read. The publisher stores sec before prim, so
// whoever reads a non-zero prim reads the sec that belongs to it; racing
// publishers store identical bits.
type scoreEntry struct{ prim, sec atomic.Uint64 }

// sliceBlock is one cell's slot of a slice: it points at the first entry of
// the cell's block — the k node entries, indexed by local node index, then
// the cell's border vector in nb more — and is nil until the first lookup in
// the cell. The slot points straight at the data: a slice header cannot be
// published in one store, a pointer to one would cost a hop, and the cell
// table knows k and nb.
type sliceBlock = atomic.Pointer[scoreEntry]

const (
	scorePairBytes  = int64(unsafe.Sizeof(scorePair{}))
	sliceBlockBytes = int64(unsafe.Sizeof(sliceBlock{}))
	sliceBaseBytes  = int64(unsafe.Sizeof(TargetSlice{}))
)

// A border vector lives in the scoreEntry block it is published with and is
// read as plain pairs; the two types must overlay exactly.
var _ [unsafe.Sizeof(scorePair{})]struct{} = [unsafe.Sizeof(scoreEntry{})]struct{}{}

// SliceIndexed is an optional oracle capability: per-target score views at
// array-read lookup cost. Into and Covering hand them to query plans as
// vectors, so the hot path bypasses the pair-query interface entirely,
// reading through (*TargetSlice).Scores.
type SliceIndexed interface {
	// TargetSlice returns the view of the scores into target to under metric
	// m. Resolving it is cheap — the scores are computed by the lookups that
	// ask for them. The result is shared between queries.
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

// sliceBytes is the most one slice of this oracle comes to hold: every cell
// touched — 16 B per node and per border — plus the root's vector, the
// per-cell slots and the bookkeeping. What a slice really holds is usually
// far less and is what MemoStats reports.
func (o *PartitionedOracle) sliceBytes() int64 {
	maxNB := 0
	for i := range o.cells {
		maxNB = max(maxNB, o.cells[i].nb)
	}
	return scorePairBytes*int64(len(o.region)+len(o.borders)+maxNB) + sliceBlockBytes*int64(len(o.cells)) + sliceBaseBytes
}

// initSlices sets up the slice store, bounded by sliceMemoBudget bytes alone
// (~520 slices on an 8,000-node road graph): a slice is published empty and
// fills as it is read, so every slice is charged the worst case.
func (o *PartitionedOracle) initSlices() {
	o.slices = newMemo[*TargetSlice](sliceMemoBudget, o.sliceBytes())
}

// TargetSlice returns (creating and caching on first use) the view of the
// scores into to under metric m.
func (o *PartitionedOracle) TargetSlice(to graph.NodeID, m Metric) *TargetSlice {
	return o.slices.get(memoKey{to, m, false}, func() *TargetSlice { return o.newSlice(to, m, false) })
}

// SourceSlice returns (creating and caching on first use) the view of the
// scores out of from under metric m.
func (o *PartitionedOracle) SourceSlice(from graph.NodeID, m Metric) *TargetSlice {
	return o.slices.get(memoKey{from, m, true}, func() *TargetSlice { return o.newSlice(from, m, true) })
}

// MemoStats reports the slice memo's counters and residency. ResidentBytes
// is what the resident slices hold so far, not entries × the worst case
// Capacity is derived from.
func (o *PartitionedOracle) MemoStats() MemoStats {
	return o.slices.stats(func(ts *TargetSlice) int64 { return ts.bytes.Load() })
}

// newSlice resolves the root (panicking on a node outside the graph, like
// any table lookup), gathers its border vector and lays out the empty
// per-cell slots.
func (o *PartitionedOracle) newSlice(root graph.NodeID, m Metric, outbound bool) *TargetSlice {
	ts := &TargetSlice{
		o:        o,
		region:   o.region,
		local:    o.local,
		blocks:   make([]sliceBlock, len(o.cells)),
		metric:   m,
		outbound: outbound,
		root:     &o.cells[o.region[root]],
		rootCell: int(o.region[root]),
		rootLoc:  int(o.local[root]),
	}
	c, l := ts.root, ts.rootLoc
	k := len(c.nodes)
	prim, sec, _ := c.scoreTables(m)
	ts.rootVec = make([]scorePair, c.nb)
	ts.rootMin = scorePair{math.Inf(1), math.Inf(1)}
	for b := range ts.rootVec {
		at := b*k + l // border b → target: column l of the cell table
		if outbound {
			at = l*k + b // source → border b: row l
		}
		ts.rootVec[b] = scorePair{prim[at], sec[at]}
		ts.rootMin.prim = min(ts.rootMin.prim, prim[at])
		ts.rootMin.sec = min(ts.rootMin.sec, sec[at])
	}
	ts.bytes.Store(sliceBaseBytes + sliceBlockBytes*int64(len(ts.blocks)) + scorePairBytes*int64(c.nb))
	return ts
}

// Scores returns the objective and budget scores of the metric-optimal path
// between v and the slice's root — v→root on a target slice, root→v on a
// source slice; ok is false when there is none. The first lookup in a cell
// computes the cell's border vector, the first lookup of a node its scores.
func (ts *TargetSlice) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	r := ts.region[v]
	cell := &ts.o.cells[r]
	blk := ts.blocks[r].Load()
	if blk == nil {
		blk = ts.touch(r, cell)
	}
	l := int(ts.local[v])
	e := &unsafe.Slice(blk, len(cell.nodes))[l]
	var prim, sec float64
	if p := e.prim.Load(); p != 0 {
		prim, sec = math.Float64frombits(p), math.Float64frombits(e.sec.Load())
	} else {
		prim, sec = ts.score(cell, blk, l, e)
	}
	if math.IsInf(prim, 1) {
		return 0, 0, false
	}
	if ts.metric == ByBudget {
		return sec, prim, true
	}
	return prim, sec, true
}

// Cell returns the partition cell v lies in: the unit CellBound bounds.
func (ts *TargetSlice) Cell(v graph.NodeID) int { return int(ts.region[v]) }

// CellBound returns lower bounds on the objective and budget scores Scores
// reports for any node of cell c, in Scores' order: (0, 0) in the root's own
// cell, and elsewhere the root vector's least entries plus the least of the
// overlay block between the two cells (the oracle's pairMin table), on each
// score apart — R + C out of a source, C + R into a target. +Inf on both
// means no border pair joins the two cells, or the root reaches none of its
// cell's borders: no node of c is reachable. It computes no score, touches
// no cell and reads no overlay block.
//
// It bounds because every score outside the root's cell is assembled as
// head + mid + tail, in either association: the root's leg is one of
// rootVec's entries, so at least R; the overlay leg is one of the block's,
// so at least C; the other cell's intra-region leg is at least 0; and float
// + is monotone, so the rounded sum is at least the rounded R + C. That
// holds for the secondary of the winning decomposition as much as for its
// primary.
func (ts *TargetSlice) CellBound(c int) (os, bs float64) {
	if c == ts.rootCell {
		return 0, 0
	}
	from, to := c, ts.rootCell
	if ts.outbound {
		from, to = ts.rootCell, c
	}
	mid := ts.o.pairMin[ts.metric][from*len(ts.o.cells)+to]
	prim, sec := ts.rootMin.prim+mid.prim, ts.rootMin.sec+mid.sec
	if ts.metric == ByBudget {
		return sec, prim
	}
	return prim, sec
}

// borderVec is the border vector behind the k node entries of cell's block.
// It is written once, before the block is published, and read as plain pairs.
func borderVec(cell *cellTables, blk *scoreEntry) []scorePair {
	k := len(cell.nodes)
	return unsafe.Slice((*scorePair)(unsafe.Pointer(blk)), k+cell.nb)[k:]
}

// touch computes cell r's border vector — per border of the cell, the best
// join of the overlay with the root's own vector: mid + tail into a target,
// head + mid out of a source — as one sequential (min,+) pass over the
// overlay block the two cells share, and publishes it together with the
// cell's pending node entries in one atomic store. Concurrent first touches
// may both compute; the vectors are bit-identical, the first published wins
// and the other is dropped.
func (ts *TargetSlice) touch(r int32, cell *cellTables) *scoreEntry {
	blk := make([]scoreEntry, len(cell.nodes)+cell.nb)
	vec := borderVec(cell, &blk[0])
	ovP, ovS, _ := ts.o.overlayTables(ts.metric)
	inf := math.Inf(1)
	if ts.outbound {
		// vec[y]: best intra(source, b1) + overlay(b1, b2) over the source
		// cell's borders b1, for the cell's y-th border b2.
		for y := range vec {
			vec[y] = scorePair{inf, inf}
		}
		at := ts.o.block(ts.root, cell)
		for _, head := range ts.rootVec {
			midP, midS := ovP[at:at+len(vec)], ovS[at:at+len(vec)]
			at += len(vec)
			for y, mid := range midP {
				p := head.prim + mid
				if p > vec[y].prim {
					continue // the secondary sum only matters to a winner or a tie
				}
				s := head.sec + midS[y]
				if p < vec[y].prim || s < vec[y].sec {
					vec[y] = scorePair{p, s}
				}
			}
		}
	} else {
		// vec[x]: best overlay(b1, b2) + intra(b2, target) over the target
		// cell's borders b2, for the cell's x-th border b1.
		nb := len(ts.rootVec)
		at := ts.o.block(cell, ts.root)
		for x := range vec {
			midP, midS := ovP[at:at+nb], ovS[at:at+nb]
			at += nb
			bp, bs := inf, inf
			for y, tail := range ts.rootVec {
				p := midP[y] + tail.prim
				if p > bp {
					continue
				}
				s := midS[y] + tail.sec
				if p < bp || s < bs {
					bp, bs = p, s
				}
			}
			vec[x] = scorePair{bp, bs}
		}
	}
	if ts.blocks[r].CompareAndSwap(nil, &blk[0]) {
		ts.bytes.Add(scorePairBytes * int64(len(blk)))
	}
	return ts.blocks[r].Load()
}

// score computes the scores of the node at local index l of cell and
// publishes them in e: the best of the cell's borders joined with the border
// vector — head + (mid + tail) into a target, exactly the pair query's
// decomposition, association and lexicographic tie-break with the per-target
// half hoisted out, so target slices reproduce pair answers' primaries bit
// for bit, and their secondaries too while the sums are exact (with rounding
// the hoisted minimum can keep another tie: a last-bit secondary difference);
// (head + mid) + tail out of a source, see SourceSliced — and, in the root's
// own cell, of the direct intra-region path. An unreachable leg is +Inf on
// both scores and loses every comparison, so the loop does not look for it.
func (ts *TargetSlice) score(cell *cellTables, blk *scoreEntry, l int, e *scoreEntry) (prim, sec float64) {
	if cell == ts.root && l == ts.rootLoc {
		return 0, 0
	}
	k := len(cell.nodes)
	tP, tS, _ := cell.scoreTables(ts.metric)
	bestP, bestS := math.Inf(1), math.Inf(1)
	// A target slice reads the node's row — its scores to the cell's borders
	// are the row's first nb entries — a source slice its column.
	at, step, direct := l*k, 1, l*k+ts.rootLoc
	if ts.outbound {
		at, step, direct = l, k, ts.rootLoc*k+l
	}
	if cell == ts.root {
		bestP, bestS = tP[direct], tS[direct]
	}
	for _, b := range borderVec(cell, blk) {
		p := tP[at] + b.prim
		if p <= bestP {
			if s := tS[at] + b.sec; p < bestP || s < bestS {
				bestP, bestS = p, s
			}
		}
		at += step
	}
	e.sec.Store(math.Float64bits(bestS))
	e.prim.Store(math.Float64bits(bestP))
	return bestP, bestS
}
