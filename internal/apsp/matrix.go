package apsp

import (
	"math"

	"kor/internal/graph"
)

// MatrixOracle holds the full |V|² τ/σ score tables of the paper's
// pre-processing, plus the parent tables the fill sweeps produce anyway, so
// paths materialize as O(length) table walks instead of fresh sweeps.
// Memory is 5·|V|²·8 bytes (2 tables of score pairs + 2 packed int32 parent
// tables);
// it suits point-of-interest graphs ("the number of points of interest
// within a city is not large"). Use LazyOracle for the synthetic road
// networks.
//
// The tables are immutable after construction, so a MatrixOracle is safe
// for concurrent use.
type MatrixOracle struct {
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

// NewMatrixOracle fills the tables with one forward two-criteria Dijkstra
// per node and metric, the table-fill kernel (rowFill) on the shared fill
// pool (fillTables). A row's parents go straight into the parent tables; its
// scores go into the worker's block of rows, which is then transposed into
// the target-major score tables. The resulting scores are exactly the
// Floyd-Warshall scores (verified against floydWarshall in tests).
func NewMatrixOracle(g *graph.Graph) *MatrixOracle { return BuildMatrixOracle(nil, g) }

// BuildMatrixOracle is NewMatrixOracle that gives up once stop is closed:
// the pool hands out no further row block, and the half-filled tables are
// dropped for a nil result. A nil stop never closes.
func BuildMatrixOracle(stop <-chan struct{}, g *graph.Graph) *MatrixOracle {
	n := g.NumNodes()
	o := &MatrixOracle{
		g: g, n: n,
		tau:    make([]scorePair, n*n),
		sig:    make([]scorePair, n*n),
		tauPar: make([]int32, n*n),
		sigPar: make([]int32, n*n),
	}
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
		return nil
	}
	return o
}

// at is the index of the (from, to) entry of a score table.
func (o *MatrixOracle) at(from, to graph.NodeID) int { return int(to)*o.n + int(from) }

// MinObjective returns the scores of τ(from,to).
func (o *MatrixOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	p := o.tau[o.at(from, to)]
	if math.IsInf(p.prim, 1) {
		return 0, 0, false
	}
	return p.prim, p.sec, true
}

// MinBudget returns the scores of σ(from,to).
func (o *MatrixOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	p := o.sig[o.at(from, to)]
	if math.IsInf(p.prim, 1) {
		return 0, 0, false
	}
	return p.sec, p.prim, true
}

// MinObjectivePath walks τ(from,to) out of the parent table.
func (o *MatrixOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	if math.IsInf(o.tau[o.at(from, to)].prim, 1) {
		return nil, false
	}
	return o.walkRow(o.tauPar, from, to)
}

// MinBudgetPath walks σ(from,to) out of the parent table.
func (o *MatrixOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	if math.IsInf(o.sig[o.at(from, to)].prim, 1) {
		return nil, false
	}
	return o.walkRow(o.sigPar, from, to)
}

// walkRow follows row from's parent chain back from to, returning the path
// from→to inclusive.
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
