package experiments

import (
	"math"

	"kor/internal/core"
	"kor/internal/graph"
	"kor/internal/stats"
)

// ExampleRoutes reproduces the §4.2.7 demonstration (Figures 20–21): one
// query posed twice, with a generous and a tight Δ, showing that the
// returned most-popular route changes when the budget no longer admits it.
// The runner scans the workload for a query pair exhibiting the effect and
// reports both routes.
func ExampleRoutes(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Figures 20–21: example routes under Δ=9km vs Δ=6km (" + ds.Name + ")",
		Columns: []string{"delta_km", "route", "objective", "budget_km", "keywords"},
		Note:    "the generous-budget route is pruned once Δ tightens; paper §4.2.7",
	}

	opts := core.DefaultOptions()
	for _, m := range []int{4, 3, 2} {
		for _, q := range ds.Queries(cfg, m, 9) {
			wide := q
			wide.Budget = 9
			tight := q
			tight.Budget = 6
			resWide, errW := ds.Searcher.OSScaling(wide, opts)
			if errW != nil {
				continue
			}
			resTight, errT := ds.Searcher.OSScaling(tight, opts)
			if errT != nil {
				continue
			}
			rw, rt := resWide.Best(), resTight.Best()
			if rw.Budget <= 6 || routesEqual(rw, rt) {
				continue // the wide route survives the tight budget: no story
			}
			kws := keywordNames(ds.Graph, q.Keywords)
			t.AddRow(9.0, rw.String(), rw.Objective, rw.Budget, kws)
			t.AddRow(6.0, rt.String(), rt.Objective, rt.Budget, kws)
			if math.IsInf(rt.Objective, 0) {
				continue
			}
			return t
		}
	}
	t.Note = "no query pair exhibited the budget crossover on this workload; " +
		"increase -queries or change the seed"
	return t
}

func routesEqual(a, b core.Route) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

func keywordNames(g *graph.Graph, kws []graph.Term) string {
	out := ""
	for i, t := range kws {
		if i > 0 {
			out += ","
		}
		out += g.Vocab().Name(t)
	}
	return out
}

// AblationStrategies tests the paper's claim (§4.2.1) that the two
// optimization strategies make the label algorithms 3–5× faster, by running
// OSScaling with strategy 2 on and off. Strategy 1 is not implemented; the
// table's note gives its measured cost.
func AblationStrategies(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Ablation: optimization strategy 2 (" + ds.Name + ")",
		Columns: []string{"variant", "runtime_ms", "labels_created", "pruned_s2"},
		Note: "OSScaling, Δ=6, m=6; the paper reports 3–5× slowdown without the strategies. " +
			"Strategy 1 (the σ-shortcut jump) is not implemented: on an 8,000-node road network " +
			"(lazy oracle, m=4, Δ=9) it made OSScaling 1.8× slower (2.71 vs 1.50 ms/query, " +
			"5,369 vs 3,148 labels) and changed no objective",
	}
	qs := ds.Queries(cfg, 6, ds.DefaultDelta)
	variants := []struct {
		name     string
		disabled bool
	}{
		{"strategy 2", false},
		{"no strategy 2", true},
	}
	for _, v := range variants {
		opts := core.DefaultOptions()
		opts.DisableStrategy2 = v.disabled
		m := Measure(ds, qs, Algorithm{Name: v.name, Opts: opts, Kind: KindOSScaling})
		t.AddRow(v.name, m.MeanMs, m.Metrics.LabelsCreated, m.Metrics.PrunedStrategy2)
		cfg.logf("ablation: %s done", v.name)
	}
	return t
}

// AblationOracles compares the three τ/σ oracle implementations end to end
// on the same workload — the design trade DESIGN.md calls out.
func AblationOracles(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Ablation: oracle implementations (" + ds.Name + ")",
		Columns: []string{"oracle", "runtime_ms", "failures"},
		Note:    "OSScaling, Δ=6, m=6; matrix≈paper's dense tables, lazy=memoized sweeps, partitioned=§6 future work",
	}
	qs := ds.Queries(cfg, 6, ds.DefaultDelta)
	for _, o := range OracleVariants(ds.Graph) {
		searcher := core.NewSearcher(ds.Graph, o.Oracle, ds.Index)
		sub := &Dataset{Name: ds.Name, Graph: ds.Graph, Index: ds.Index, Searcher: searcher,
			DeltaSweep: ds.DeltaSweep, DefaultDelta: ds.DefaultDelta}
		m := Measure(sub, qs, Algorithm{Name: o.Name, Opts: core.DefaultOptions(), Kind: KindOSScaling})
		t.AddRow(o.Name, m.MeanMs, m.Failed)
		cfg.logf("oracle ablation: %s done", o.Name)
	}
	return t
}
