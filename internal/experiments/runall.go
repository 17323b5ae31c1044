package experiments

import (
	"fmt"
	"io"
	"sort"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/graph"
	"kor/internal/stats"
)

// OracleVariant names one oracle implementation for ablations.
type OracleVariant struct {
	Name   string
	Oracle core.RouteOracle
}

// OracleVariants builds all three oracle flavours over g.
func OracleVariants(g *graph.Graph) []OracleVariant {
	return []OracleVariant{
		{"matrix", apsp.NewMatrixOracle(g)},
		{"lazy", apsp.NewLazyOracle(g)},
		{"partitioned", apsp.NewPartitionedOracle(g, apsp.DefaultCellSize)},
	}
}

// Runner is a named experiment producing one or more tables.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*stats.Table, error)
}

// Runners enumerates every experiment, keyed by the paper figure it
// regenerates. Datasets are built lazily and shared through the closure.
func Runners() []Runner {
	var flickr *Dataset
	flickrDS := func(cfg Config) (*Dataset, error) {
		if flickr == nil {
			ds, err := NewFlickrDataset(cfg)
			if err != nil {
				return nil, err
			}
			flickr = ds
		}
		return flickr, nil
	}
	var road5k *Dataset
	roadDS := func(cfg Config) *Dataset {
		if road5k == nil {
			road5k = NewRoadDataset(cfg, 5000)
		}
		return road5k
	}

	one := func(t *stats.Table) []*stats.Table { return []*stats.Table{t} }
	onFlickr := func(f func(*Dataset, Config) *stats.Table) func(Config) ([]*stats.Table, error) {
		return func(cfg Config) ([]*stats.Table, error) {
			ds, err := flickrDS(cfg)
			if err != nil {
				return nil, err
			}
			return one(f(ds, cfg)), nil
		}
	}
	pairOnFlickr := func(f func(*Dataset, Config) (*stats.Table, *stats.Table)) func(Config) ([]*stats.Table, error) {
		return func(cfg Config) ([]*stats.Table, error) {
			ds, err := flickrDS(cfg)
			if err != nil {
				return nil, err
			}
			a, b := f(ds, cfg)
			return []*stats.Table{a, b}, nil
		}
	}

	return []Runner{
		{"0", "brute-force gap (§4.1)", onFlickr(BruteForceGap)},
		{"4", "runtime vs keywords (Flickr)", onFlickr(Figure4)},
		{"5", "runtime vs Δ (Flickr)", onFlickr(Figure5)},
		{"6", "OSScaling ε sweep", pairOnFlickr(Figure6and7)},
		{"8", "BucketBound β sweep", pairOnFlickr(Figure8and9)},
		{"10", "ratio vs keywords", onFlickr(Figure10)},
		{"11", "ratio vs Δ", onFlickr(Figure11)},
		{"12", "greedy α sweep", pairOnFlickr(Figure12and13)},
		{"14", "equal-bound comparison", pairOnFlickr(Figure14and15)},
		{"16", "KkR top-k runtime", onFlickr(Figure16)},
		{"17", "scalability", func(cfg Config) ([]*stats.Table, error) {
			return one(Figure17(cfg, nil)), nil
		}},
		{"18", "runtime vs keywords (road 5k)", func(cfg Config) ([]*stats.Table, error) {
			return one(Figure18(roadDS(cfg), cfg)), nil
		}},
		{"19", "runtime vs Δ (road 5k)", func(cfg Config) ([]*stats.Table, error) {
			return one(Figure19(roadDS(cfg), cfg)), nil
		}},
		{"20", "example routes (Figs. 20–21)", onFlickr(ExampleRoutes)},
		{"ablation-strategies", "optimization strategy ablation (road 5k)", func(cfg Config) ([]*stats.Table, error) {
			return one(AblationStrategies(roadDS(cfg), cfg)), nil
		}},
		{"ablation-oracles", "oracle ablation", onFlickr(AblationOracles)},
	}
}

// RunnerIDs lists the available experiment IDs in order.
func RunnerIDs() []string {
	rs := Runners()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// Run executes the experiment with the given ID and renders its tables.
func Run(id string, cfg Config, w io.Writer) error {
	for _, r := range Runners() {
		if r.ID != id {
			continue
		}
		tables, err := r.Run(cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
		return nil
	}
	ids := RunnerIDs()
	sort.Strings(ids)
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, r := range Runners() {
		if _, err := fmt.Fprintf(w, "=== experiment %s: %s ===\n\n", r.ID, r.Title); err != nil {
			return err
		}
		tables, err := r.Run(cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}
