package apsp

import (
	"math"
	"runtime"
	"sync"

	"kor/internal/graph"
)

// fillRows is how many source rows one fill job sweeps. In the matrix their
// entries of a column are 512 contiguous bytes, whole cache lines written by
// one worker, rather than one scattered 16-byte write per row.
const fillRows = 32

// fillTables is the one worker pool behind every all-pairs table: the
// matrix, each cell's tables and the overlay's. Table t has rows[t] source
// rows, handed out in blocks of fillRows; a job is (table, first row), so one
// large table keeps every CPU busy. Each worker calls newFill once, for its
// own scratch, then fill(t, first, count) per job. Jobs write disjoint rows,
// so nothing is synchronized but the final wait. Once stop is closed no
// further job is handed out: the jobs already running finish, and fillTables
// reports false, the tables incomplete. A nil stop never closes.
func fillTables(stop <-chan struct{}, rows []int, newFill func() func(t, first, count int)) (complete bool) {
	type job struct{ t, first int }
	jobs := make(chan job)
	total := 0
	for _, r := range rows {
		total += (r + fillRows - 1) / fillRows
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), total); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := newFill()
			for j := range jobs {
				fill(j.t, j.first, min(fillRows, rows[j.t]-j.first))
			}
		}()
	}
feed:
	for t, r := range rows {
		for first := 0; first < r; first += fillRows {
			select {
			case jobs <- job{t, first}:
			case <-stop:
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// rowFill is one fill worker's queue, the kernel every table row is swept
// with: a 4-ary min-heap of dijkstraItem under lessItem, indexed by node, so
// an improved label moves its node's one item up (decrease-key) instead of
// queueing another copy beside the stale one. slot[v] is v's position in
// heap, -1 while v is not queued; a finished row leaves the heap empty and
// every slot -1, so rows run back to back with no reset.
//
// It settles nodes in the order a lazy itemHeap run does. Labels improve
// only strictly and edge weights are positive, so each node has one live
// label, which a lazy heap holds among stale copies that its run skips; both
// heaps therefore settle, step by step, the least (primary, secondary, node)
// among the labelled, unsettled nodes, and every score and parent comes out
// the same bits (TestTableFillMatchesDijkstra, TestRowFillPopOrder).
type rowFill struct {
	heap []dijkstraItem
	slot []int32
}

// newRowFill returns a queue for graphs of up to n nodes.
func newRowFill(n int) *rowFill {
	f := &rowFill{heap: make([]dijkstraItem, 0, n), slot: make([]int32, n)}
	for i := range f.slot {
		f.slot[i] = -1
	}
	return f
}

// row sweeps g out of root under metric m and writes every node's primary
// and secondary score and parent into prim, sec and par, each g.NumNodes()
// long: +Inf, +Inf and noParent where the sweep does not reach.
func (f *rowFill) row(g *graph.Graph, root int, m Metric, prim, sec []float64, par []int32) {
	for i := range prim {
		prim[i], sec[i], par[i] = math.Inf(1), math.Inf(1), noParent
	}
	prim[root], sec[root] = 0, 0
	f.update(dijkstraItem{node: graph.NodeID(root)})
	for len(f.heap) > 0 {
		it := f.pop()
		for _, e := range g.Out(it.node) {
			p, s := it.primary+e.Objective, it.secondary+e.Budget
			if m == ByBudget {
				p, s = it.primary+e.Budget, it.secondary+e.Objective
			}
			if v := e.To; p < prim[v] || (p == prim[v] && s < sec[v]) {
				prim[v], sec[v], par[v] = p, s, int32(it.node)
				f.update(dijkstraItem{node: v, primary: p, secondary: s})
			}
		}
	}
}

// update queues it, or replaces its node's queued item with it: a key that
// only falls, so either way the item sifts up from where it lands.
func (f *rowFill) update(it dijkstraItem) {
	i := int(f.slot[it.node])
	if i < 0 {
		i = len(f.heap)
		f.heap = append(f.heap, it)
	}
	h := f.heap
	for i > 0 {
		up := (i - 1) / 4
		if !lessItem(&it, &h[up]) {
			break
		}
		h[i] = h[up]
		f.slot[h[i].node] = int32(i)
		i = up
	}
	h[i] = it
	f.slot[it.node] = int32(i)
}

// pop removes and returns the least item.
func (f *rowFill) pop() dijkstraItem {
	h := f.heap
	top := h[0]
	f.slot[top.node] = -1
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	f.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		best := child
		for j, end := child+1, min(child+4, n); j < end; j++ {
			if lessItem(&h[j], &h[best]) {
				best = j
			}
		}
		if !lessItem(&h[best], &last) {
			break
		}
		h[i] = h[best]
		f.slot[h[i].node] = int32(i)
		i = best
	}
	h[i] = last
	f.slot[last.node] = int32(i)
	return top
}
