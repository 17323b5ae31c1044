// Package experiments reproduces the paper's evaluation (§4): one runner
// per figure, each regenerating the figure's series as a text table. The
// tables report the same quantities over the same parameter sweeps on
// scaled-down workloads; see the Performance section of README.md for
// measured results.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/gen"
	"kor/internal/graph"
	"kor/internal/queryset"
)

// Config sizes the harness. The defaults trade the paper's 50-query sets
// for 16-query sets so a full run finishes in minutes on a laptop; pass
// -queries 50 to korbench for the paper-sized workload.
type Config struct {
	// Seed drives every generator in the harness.
	Seed int64
	// Queries is the number of queries per set (paper: 50).
	Queries int
	// Log receives progress lines; nil silences them.
	Log io.Writer
	// FastFlickr shrinks the Flickr-like dataset (used by unit tests).
	FastFlickr bool
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2012
	}
	if c.Queries <= 0 {
		c.Queries = 16
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Dataset bundles a graph with the substrates a Searcher needs, plus the
// workload metadata the runners use.
type Dataset struct {
	Name     string
	Graph    *graph.Graph
	Index    graph.PostingSource
	Searcher *core.Searcher
	// DeltaSweep is the Δ axis the paper uses on this dataset (km).
	DeltaSweep []float64
	// DefaultDelta is the fixed Δ for the parameter-sweep figures.
	DefaultDelta float64
	// Planar marks kilometre-plane coordinates (road networks).
	Planar bool
}

// NewFlickrDataset builds the Flickr-like dataset with dense (matrix)
// pre-processing, the faithful rendition of the paper's setup.
func NewFlickrDataset(cfg Config) (*Dataset, error) {
	cfg = cfg.WithDefaults()
	fc := gen.FlickrConfig{Seed: cfg.Seed}
	if cfg.FastFlickr {
		fc.Users = 250
		fc.Attractions = 150
		fc.VocabSize = 200
	}
	g, st, err := gen.FlickrGraph(fc)
	if err != nil {
		return nil, fmt.Errorf("experiments: flickr dataset: %w", err)
	}
	cfg.logf("flickr-like dataset: %v", st)
	cfg.logf("graph: %v", g.ComputeStats())
	idx := graph.NewMemIndex(g)
	oracle := apsp.NewMatrixOracle(g)
	return &Dataset{
		Name:         "flickr-like",
		Graph:        g,
		Index:        idx,
		Searcher:     core.NewSearcher(g, oracle, idx),
		DeltaSweep:   []float64{3, 6, 9, 12, 15},
		DefaultDelta: 6,
	}, nil
}

// NewRoadDataset builds one synthetic road network with lazy
// pre-processing, used for the scalability experiments.
func NewRoadDataset(cfg Config, nodes int) *Dataset {
	cfg = cfg.WithDefaults()
	g := gen.RoadNetwork(gen.RoadConfig{Seed: cfg.Seed, Nodes: nodes})
	cfg.logf("road dataset %d nodes: %v", nodes, g.ComputeStats())
	idx := graph.NewMemIndex(g)
	return &Dataset{
		Name:         fmt.Sprintf("road-%dk", nodes/1000),
		Graph:        g,
		Index:        idx,
		Searcher:     core.NewSearcher(g, apsp.NewLazyOracle(g), idx),
		DeltaSweep:   []float64{3, 6, 9, 12, 15},
		DefaultDelta: 6,
		Planar:       true,
	}
}

// Queries generates the workload for one (m, Δ) cell, deterministic in the
// dataset and harness seed.
func (ds *Dataset) Queries(cfg Config, m int, delta float64) []core.Query {
	cfg = cfg.WithDefaults()
	return queryset.Generate(ds.Graph, ds.Index, queryset.Spec{
		Seed:            cfg.Seed ^ int64(m)<<32 ^ int64(delta*1000),
		Count:           cfg.Queries,
		Keywords:        m,
		Budget:          delta,
		MaxCrowKm:       delta * 0.45,
		PlanarCoords:    ds.Planar,
		TopTermFraction: 0.12,
	})
}

// Algorithm names one search configuration for measurement.
type Algorithm struct {
	Name string
	Opts core.Options
	Kind Kind
}

// Kind selects the algorithm family.
type Kind int

// Algorithm kinds.
const (
	KindOSScaling Kind = iota
	KindBucketBound
	KindGreedy
	KindExact
	KindBruteForce
)

// invoke dispatches one query.
func (a Algorithm) invoke(s *core.Searcher, q core.Query) (core.Result, error) {
	switch a.Kind {
	case KindOSScaling:
		return s.OSScaling(q, a.Opts)
	case KindBucketBound:
		return s.BucketBound(q, a.Opts)
	case KindGreedy:
		return s.Greedy(q, a.Opts)
	case KindExact:
		return s.Exact(q, a.Opts)
	case KindBruteForce:
		return s.BruteForce(q, 2_000_000)
	default:
		panic("experiments: unknown algorithm kind")
	}
}

// Measurement aggregates one algorithm over one query set.
type Measurement struct {
	Algorithm string
	Queries   int
	// MeanMs is the mean per-query wall time in milliseconds.
	MeanMs float64
	// Failed counts queries with no (feasible) result from this algorithm.
	Failed int
	// Objectives holds the objective score per query; NaN where failed.
	// Indexes align across algorithms run on the same set.
	Objectives []float64
	Metrics    core.Metrics
}

// FailureFraction is Failed/Queries.
func (m Measurement) FailureFraction() float64 {
	if m.Queries == 0 {
		return 0
	}
	return float64(m.Failed) / float64(m.Queries)
}

// Measure runs the algorithm over the query set. Each query is executed
// once untimed and once timed. The untimed pass warms what the oracle keeps
// between queries: the slices of a partitioned oracle, standing in for the
// paper's offline tables. The lazy oracle keeps nothing, so its timings
// include each query's own sweeps.
func Measure(ds *Dataset, queries []core.Query, algo Algorithm) Measurement {
	out := Measurement{Algorithm: algo.Name, Queries: len(queries)}
	out.Objectives = make([]float64, len(queries))
	for i, q := range queries {
		_, _ = algo.invoke(ds.Searcher, q) // warm pass
		start := time.Now()
		res, err := algo.invoke(ds.Searcher, q)
		elapsed := time.Since(start)
		out.MeanMs += float64(elapsed.Microseconds()) / 1000
		if err != nil || len(res.Routes) == 0 || !res.Routes[0].Feasible {
			out.Failed++
			out.Objectives[i] = math.NaN()
			continue
		}
		out.Objectives[i] = res.Routes[0].Objective
		out.Metrics.Add(res.Metrics)
	}
	if len(queries) > 0 {
		out.MeanMs /= float64(len(queries))
	}
	return out
}

// RelativeRatio computes the paper's accuracy measure (§4.2.2): the mean of
// per-query objective ratios against the base algorithm, over the queries
// where both produced feasible routes.
func RelativeRatio(m, base Measurement) float64 {
	sum, n := 0.0, 0
	for i := range m.Objectives {
		if i >= len(base.Objectives) {
			break
		}
		a, b := m.Objectives[i], base.Objectives[i]
		if math.IsNaN(a) || math.IsNaN(b) || b == 0 {
			continue
		}
		sum += a / b
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Standard algorithm lineup of the runtime figures.
func standardAlgorithms(eps, beta, alpha float64) []Algorithm {
	oss := core.DefaultOptions()
	oss.Epsilon = eps
	bb := core.DefaultOptions()
	bb.Epsilon = eps
	bb.Beta = beta
	g1 := core.DefaultOptions()
	g1.Alpha = alpha
	g2 := g1
	g2.Width = 2
	return []Algorithm{
		{Name: "OSScaling", Opts: oss, Kind: KindOSScaling},
		{Name: "BucketBound", Opts: bb, Kind: KindBucketBound},
		{Name: "Greedy-2", Opts: g2, Kind: KindGreedy},
		{Name: "Greedy-1", Opts: g1, Kind: KindGreedy},
	}
}

// baseAlgorithm is the accuracy baseline: OSScaling with ε=0.1 (§4.2.2).
func baseAlgorithm() Algorithm {
	opts := core.DefaultOptions()
	opts.Epsilon = 0.1
	return Algorithm{Name: "OSScaling(ε=0.1)", Opts: opts, Kind: KindOSScaling}
}
