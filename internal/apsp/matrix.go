package apsp

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"

	"kor/internal/graph"
)

// MatrixOracle holds the full |V|² τ/σ score tables of the paper's
// pre-processing, plus the parent tables the fill sweeps produce anyway, so
// paths materialize as O(length) table walks instead of fresh sweeps.
// Memory is 40·|V|² bytes (two tables of score pairs + two int32 parent
// tables): 52.6 MB on the 1,147-node city graph, 1.44 GB at kor's 6,000-node
// dense limit. It suits point-of-interest graphs ("the number of points of
// interest within a city is not large"). Use LazyOracle for the synthetic
// road networks.
//
// The four tables are cut from one anonymous mapping outside the Go heap
// (allocTables; the heap on platforms without mmap). They hold no pointers
// and never change, yet while they were on the heap GOGC's headroom let it
// grow to twice them. The mapping is released by a cleanup once the oracle is
// unreachable, so every method that reads a table keeps o alive
// (runtime.KeepAlive) until its last read, and a MatrixOracle must never be
// copied by value: a copy would alias the tables of an oracle the collector
// may release. noCopy makes go vet flag one.
//
// The tables are immutable after construction, so a MatrixOracle is safe
// for concurrent use.
type MatrixOracle struct {
	_ noCopy

	g *graph.Graph
	n int
	// Target-major [to*n+from] score tables, each entry the pair's primary
	// and secondary side by side (τ: objective, budget; σ: budget,
	// objective). A query reads the scores into one root — its target, a
	// strategy candidate — over and over, so those reads stay in one
	// column, and each touches one cache line rather than two.
	tau []scorePair
	sig []scorePair
	// Parent tables: tauPar[from*n+to] is to's predecessor on τ(from,to)
	// (noParent at to == from or unreachable).
	tauPar []int32
	sigPar []int32
}

// noCopy is embedded in structs that must not be copied after first use;
// go vet's copylocks check reports a copy.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// matrixPairBytes is the tables' memory per node pair: a τ and a σ score
// pair and their two parents.
const matrixPairBytes = 2*int(scorePairBytes) + 2*4

// liveTables counts the matrix tables of the process that have not been
// released, and their bytes.
var liveTables struct{ count, bytes atomic.Int64 }

// TableMemory reports the matrix tables live in the process and their
// bytes: every oracle's, a retired one's until its cleanup has run, a
// build's from its start. The Go runtime's memory statistics do not include
// them, except on platforms without mmap, where they are on the heap.
func TableMemory() (tables int, bytes int64) {
	return int(liveTables.count.Load()), liveTables.bytes.Load()
}

// tableMemory is the memory one oracle's tables are cut from: an anonymous
// mapping outside the Go heap, or heap words where the platform has no mmap
// or the kernel refuses the mapping.
type tableMemory struct {
	b      []byte
	mapped bool
}

// allocTables cuts o's four tables from fresh memory, counted in
// liveTables, and returns that memory; none for an empty graph.
func (o *MatrixOracle) allocTables() tableMemory {
	nn := o.n * o.n
	if nn == 0 {
		return tableMemory{}
	}
	size := matrixPairBytes * nn
	b, err := mapTables(size)
	mem := tableMemory{b, err == nil}
	if !mem.mapped {
		words := make([]uint64, (size+7)/8) // 8-byte aligned, as the score pairs need
		mem.b = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)
	}
	liveTables.count.Add(1)
	liveTables.bytes.Add(int64(size))
	pairs := nn * int(scorePairBytes)
	o.tau = carve[scorePair](mem.b, 0, nn)
	o.sig = carve[scorePair](mem.b, pairs, nn)
	o.tauPar = carve[int32](mem.b, 2*pairs, nn)
	o.sigPar = carve[int32](mem.b, 2*pairs+4*nn, nn)
	return mem
}

// carve is the n-entry table of T at byte offset off of b.
func carve[T any](b []byte, off, n int) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(&b[off])), n)
}

// release unmaps m and uncounts it; heap words are left to the collector.
func (m tableMemory) release() {
	if m.b == nil {
		return
	}
	if m.mapped && munmapBytes(m.b) != nil {
		return // still mapped, still counted
	}
	liveTables.count.Add(-1)
	liveTables.bytes.Add(-int64(len(m.b)))
}

// NewMatrixOracle fills the tables with one forward two-criteria Dijkstra
// per node and metric, the table-fill kernel (rowFill) on the shared fill
// pool (fillTables). A row's parents go straight into the parent tables; its
// scores go into the worker's block of rows, which is then transposed into
// the target-major score tables. The resulting scores are exactly the
// Floyd-Warshall scores (verified against floydWarshall in tests).
func NewMatrixOracle(g *graph.Graph) *MatrixOracle { return BuildMatrixOracle(nil, g) }

// BuildMatrixOracle is NewMatrixOracle that gives up once stop is closed:
// the pool hands out no further row block, and the half-filled tables are
// unmapped at once for a nil result. A nil stop never closes.
func BuildMatrixOracle(stop <-chan struct{}, g *graph.Graph) *MatrixOracle {
	n := g.NumNodes()
	o := &MatrixOracle{g: g, n: n}
	mem := o.allocTables()
	complete := fillTables(stop, []int{n}, func() func(_, first, rows int) {
		f := newRowFill(n)
		// The block's score rows, cut from one allocation.
		var rowsOf [4][fillRows][]float64
		tauP, tauS, sigP, sigS := &rowsOf[0], &rowsOf[1], &rowsOf[2], &rowsOf[3]
		buf := make([]float64, 4*fillRows*n)
		for r := range fillRows {
			row := buf[4*r*n : 4*(r+1)*n]
			tauP[r], tauS[r], sigP[r], sigS[r] = row[:n], row[n:2*n], row[2*n:3*n], row[3*n:]
		}
		return func(_, first, rows int) {
			for r := 0; r < rows; r++ {
				from := first + r
				f.row(g, from, ByObjective, tauP[r], tauS[r], o.tauPar[from*n:(from+1)*n])
				f.row(g, from, ByBudget, sigP[r], sigS[r], o.sigPar[from*n:(from+1)*n])
			}
			for to := 0; to < n; to++ {
				col := to*n + first
				for r := 0; r < rows; r++ {
					o.tau[col+r] = scorePair{tauP[r][to], tauS[r][to]}
					o.sig[col+r] = scorePair{sigP[r][to], sigS[r][to]}
				}
			}
		}
	})
	if !complete {
		mem.release()
		return nil
	}
	if mem.b != nil {
		runtime.AddCleanup(o, tableMemory.release, mem)
	}
	return o
}

// at is the index of the (from, to) entry of a score table.
func (o *MatrixOracle) at(from, to graph.NodeID) int { return int(to)*o.n + int(from) }

// MinObjective returns the scores of τ(from,to).
func (o *MatrixOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	p := o.tau[o.at(from, to)]
	runtime.KeepAlive(o)
	if math.IsInf(p.prim, 1) {
		return 0, 0, false
	}
	return p.prim, p.sec, true
}

// MinBudget returns the scores of σ(from,to).
func (o *MatrixOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	p := o.sig[o.at(from, to)]
	runtime.KeepAlive(o)
	if math.IsInf(p.prim, 1) {
		return 0, 0, false
	}
	return p.sec, p.prim, true
}

// MinObjectivePath walks τ(from,to) out of the parent table.
func (o *MatrixOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	path, ok := o.walkRow(o.tauPar, from, to)
	runtime.KeepAlive(o)
	return path, ok
}

// MinBudgetPath walks σ(from,to) out of the parent table.
func (o *MatrixOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	path, ok := o.walkRow(o.sigPar, from, to)
	runtime.KeepAlive(o)
	return path, ok
}

// walkRow follows row from's parent chain back from to, returning the path
// from→to inclusive; ok is false when to is unreachable. par is one of o's
// tables: the caller keeps o alive until it returns.
func (o *MatrixOracle) walkRow(par []int32, from, to graph.NodeID) ([]graph.NodeID, bool) {
	row := par[int(from)*o.n : int(from+1)*o.n]
	var rev []graph.NodeID
	for v := to; ; {
		rev = append(rev, v)
		if v == from {
			break
		}
		p := row[v]
		if p == noParent {
			return nil, false
		}
		v = graph.NodeID(p)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// IndexedPaths marks the path methods as table walks (see apsp.Indexed).
func (o *MatrixOracle) IndexedPaths() bool { return true }
