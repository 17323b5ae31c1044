package experiments

import (
	"fmt"
	"math"

	"kor/internal/core"
	"kor/internal/stats"
)

// Defaults of §4.1: ε=0.5, β=1.2, α=0.5.
const (
	defaultEpsilon = 0.5
	defaultBeta    = 1.2
	defaultAlpha   = 0.5
)

var keywordSweep = []int{2, 4, 6, 8, 10}

// Figure4 — runtime versus the number of query keywords on the Flickr-like
// dataset, averaged over the Δ sweep, for the four algorithms.
func Figure4(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	algos := standardAlgorithms(defaultEpsilon, defaultBeta, defaultAlpha)
	t := &stats.Table{
		Title:   "Figure 4: runtime vs number of query keywords (" + ds.Name + ")",
		Columns: []string{"keywords", "OSScaling(ms)", "BucketBound(ms)", "Greedy-2(ms)", "Greedy-1(ms)"},
		Note:    fmt.Sprintf("mean per-query ms over Δ∈%v, %d queries per (m,Δ); paper Fig. 4", ds.DeltaSweep, cfg.Queries),
	}
	for _, m := range keywordSweep {
		cells := []any{m}
		for _, algo := range algos {
			total, sets := 0.0, 0
			for _, delta := range ds.DeltaSweep {
				qs := ds.Queries(cfg, m, delta)
				if len(qs) == 0 {
					continue
				}
				total += Measure(ds, qs, algo).MeanMs
				sets++
			}
			if sets > 0 {
				total /= float64(sets)
			}
			cells = append(cells, total)
		}
		t.AddRow(cells...)
		cfg.logf("fig4: m=%d done", m)
	}
	return t
}

// Figure5 — runtime versus the budget limit Δ, averaged over the keyword
// sweep.
func Figure5(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	algos := standardAlgorithms(defaultEpsilon, defaultBeta, defaultAlpha)
	t := &stats.Table{
		Title:   "Figure 5: runtime vs budget limit Δ (" + ds.Name + ")",
		Columns: []string{"delta_km", "OSScaling(ms)", "BucketBound(ms)", "Greedy-2(ms)", "Greedy-1(ms)"},
		Note:    fmt.Sprintf("mean per-query ms over m∈%v, %d queries per (m,Δ); paper Fig. 5", keywordSweep, cfg.Queries),
	}
	for _, delta := range ds.DeltaSweep {
		cells := []any{delta}
		for _, algo := range algos {
			total, sets := 0.0, 0
			for _, m := range keywordSweep {
				qs := ds.Queries(cfg, m, delta)
				if len(qs) == 0 {
					continue
				}
				total += Measure(ds, qs, algo).MeanMs
				sets++
			}
			if sets > 0 {
				total /= float64(sets)
			}
			cells = append(cells, total)
		}
		t.AddRow(cells...)
		cfg.logf("fig5: Δ=%v done", delta)
	}
	return t
}

// Figure6and7 — OSScaling runtime (Fig. 6) and relative ratio versus the
// ε=0.1 base (Fig. 7) as ε varies; Δ=6, m=6.
func Figure6and7(ds *Dataset, cfg Config) (*stats.Table, *stats.Table) {
	cfg = cfg.WithDefaults()
	qs := ds.Queries(cfg, 6, ds.DefaultDelta)
	base := Measure(ds, qs, baseAlgorithm())
	runtime := &stats.Table{
		Title:   "Figure 6: OSScaling runtime vs ε (" + ds.Name + ")",
		Columns: []string{"epsilon", "runtime_ms"},
		Note:    fmt.Sprintf("Δ=%v, m=6, %d queries; paper Fig. 6", ds.DefaultDelta, len(qs)),
	}
	ratio := &stats.Table{
		Title:   "Figure 7: OSScaling relative ratio vs ε (" + ds.Name + ")",
		Columns: []string{"epsilon", "relative_ratio"},
		Note:    "base: OSScaling ε=0.1; paper Fig. 7",
	}
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		opts := core.DefaultOptions()
		opts.Epsilon = eps
		m := Measure(ds, qs, Algorithm{Name: "OSScaling", Opts: opts, Kind: KindOSScaling})
		runtime.AddRow(eps, m.MeanMs)
		ratio.AddRow(eps, RelativeRatio(m, base))
		cfg.logf("fig6/7: ε=%v done", eps)
	}
	return runtime, ratio
}

// Figure8and9 — BucketBound runtime (Fig. 8) and relative ratio (Fig. 9)
// as β varies; ε=0.5, Δ=6, m=6.
func Figure8and9(ds *Dataset, cfg Config) (*stats.Table, *stats.Table) {
	cfg = cfg.WithDefaults()
	qs := ds.Queries(cfg, 6, ds.DefaultDelta)
	base := Measure(ds, qs, baseAlgorithm())
	runtime := &stats.Table{
		Title:   "Figure 8: BucketBound runtime vs β (" + ds.Name + ")",
		Columns: []string{"beta", "runtime_ms"},
		Note:    fmt.Sprintf("ε=0.5, Δ=%v, m=6, %d queries; paper Fig. 8", ds.DefaultDelta, len(qs)),
	}
	ratio := &stats.Table{
		Title:   "Figure 9: BucketBound relative ratio vs β (" + ds.Name + ")",
		Columns: []string{"beta", "relative_ratio"},
		Note:    "base: OSScaling ε=0.1; paper Fig. 9",
	}
	for _, beta := range []float64{1.2, 1.4, 1.6, 1.8, 2.0} {
		opts := core.DefaultOptions()
		opts.Epsilon = defaultEpsilon
		opts.Beta = beta
		m := Measure(ds, qs, Algorithm{Name: "BucketBound", Opts: opts, Kind: KindBucketBound})
		runtime.AddRow(beta, m.MeanMs)
		ratio.AddRow(beta, RelativeRatio(m, base))
		cfg.logf("fig8/9: β=%v done", beta)
	}
	return runtime, ratio
}

// Figure10 — relative ratio versus keyword count for BucketBound and the
// greedy variants; ε=0.5, β=1.2.
func Figure10(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Figure 10: relative ratio vs number of query keywords (" + ds.Name + ")",
		Columns: []string{"keywords", "BucketBound", "Greedy-2", "Greedy-1"},
		Note:    "base: OSScaling ε=0.1; greedy measured on its feasible queries; paper Fig. 10",
	}
	algos := comparatorAlgorithms()
	for _, m := range keywordSweep {
		qs := ds.Queries(cfg, m, ds.DefaultDelta)
		base := Measure(ds, qs, baseAlgorithm())
		cells := []any{m}
		for _, algo := range algos {
			cells = append(cells, RelativeRatio(Measure(ds, qs, algo), base))
		}
		t.AddRow(cells...)
		cfg.logf("fig10: m=%d done", m)
	}
	return t
}

// Figure11 — relative ratio versus Δ for the same comparators.
func Figure11(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Figure 11: relative ratio vs budget limit Δ (" + ds.Name + ")",
		Columns: []string{"delta_km", "BucketBound", "Greedy-2", "Greedy-1"},
		Note:    "base: OSScaling ε=0.1, m=6; paper Fig. 11",
	}
	algos := comparatorAlgorithms()
	for _, delta := range ds.DeltaSweep {
		qs := ds.Queries(cfg, 6, delta)
		base := Measure(ds, qs, baseAlgorithm())
		cells := []any{delta}
		for _, algo := range algos {
			cells = append(cells, RelativeRatio(Measure(ds, qs, algo), base))
		}
		t.AddRow(cells...)
		cfg.logf("fig11: Δ=%v done", delta)
	}
	return t
}

func comparatorAlgorithms() []Algorithm {
	bb := core.DefaultOptions()
	bb.Epsilon = defaultEpsilon
	bb.Beta = defaultBeta
	g1 := core.DefaultOptions()
	g2 := g1
	g2.Width = 2
	return []Algorithm{
		{Name: "BucketBound", Opts: bb, Kind: KindBucketBound},
		{Name: "Greedy-2", Opts: g2, Kind: KindGreedy},
		{Name: "Greedy-1", Opts: g1, Kind: KindGreedy},
	}
}

// Figure12and13 — greedy relative ratio (Fig. 12) and failure percentage
// (Fig. 13) as α varies; Δ=6, averaged over the keyword sweep.
func Figure12and13(ds *Dataset, cfg Config) (*stats.Table, *stats.Table) {
	cfg = cfg.WithDefaults()
	ratio := &stats.Table{
		Title:   "Figure 12: greedy relative ratio vs α (" + ds.Name + ")",
		Columns: []string{"alpha", "Greedy-1", "Greedy-2"},
		Note:    "base: OSScaling ε=0.1, over m∈{2..10}; paper Fig. 12",
	}
	failures := &stats.Table{
		Title:   "Figure 13: greedy failure percentage vs α (" + ds.Name + ")",
		Columns: []string{"alpha", "Greedy-1(%)", "Greedy-2(%)"},
		Note:    "failures among queries with feasible solutions; paper Fig. 13",
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		ratios := map[int][]float64{1: nil, 2: nil}
		failed := map[int]int{}
		solvable := map[int]int{}
		for _, m := range keywordSweep {
			qs := ds.Queries(cfg, m, ds.DefaultDelta)
			base := Measure(ds, qs, baseAlgorithm())
			for _, width := range []int{1, 2} {
				opts := core.DefaultOptions()
				opts.Alpha = alpha
				opts.Width = width
				meas := Measure(ds, qs, Algorithm{Name: "Greedy", Opts: opts, Kind: KindGreedy})
				if r := RelativeRatio(meas, base); !math.IsNaN(r) {
					ratios[width] = append(ratios[width], r)
				}
				// Failure percentage counts greedy misses on queries the
				// exact-feasible algorithms can answer.
				for i := range qs {
					if math.IsNaN(base.Objectives[i]) {
						continue
					}
					solvable[width]++
					if math.IsNaN(meas.Objectives[i]) {
						failed[width]++
					}
				}
			}
		}
		r1, r2 := stats.Summarize(ratios[1]).Mean, stats.Summarize(ratios[2]).Mean
		ratio.AddRow(alpha, r1, r2)
		pct := func(w int) float64 {
			if solvable[w] == 0 {
				return 0
			}
			return 100 * float64(failed[w]) / float64(solvable[w])
		}
		failures.AddRow(alpha, pct(1), pct(2))
		cfg.logf("fig12/13: α=%v done", alpha)
	}
	return ratio, failures
}

// Figure14and15 — OSScaling versus BucketBound at matched theoretical
// bounds r ∈ {2,4,6,8,10}: OSScaling runs with ε = 1−1/r, BucketBound with
// ε=0.5 and β = r/2 (so both bound at r). Runtime (Fig. 14) and relative
// ratio (Fig. 15).
func Figure14and15(ds *Dataset, cfg Config) (*stats.Table, *stats.Table) {
	cfg = cfg.WithDefaults()
	qs := ds.Queries(cfg, 6, ds.DefaultDelta)
	base := Measure(ds, qs, baseAlgorithm())
	runtime := &stats.Table{
		Title:   "Figure 14: runtime at equal approximation bound (" + ds.Name + ")",
		Columns: []string{"bound", "OSScaling(ms)", "BucketBound(ms)"},
		Note:    fmt.Sprintf("Δ=%v, m=6; OSS ε=1−1/r, BB ε=0.5 β=r/2; paper Fig. 14", ds.DefaultDelta),
	}
	ratio := &stats.Table{
		Title:   "Figure 15: relative ratio at equal approximation bound (" + ds.Name + ")",
		Columns: []string{"bound", "OSScaling", "BucketBound"},
		Note:    "base: OSScaling ε=0.1; paper Fig. 15",
	}
	for _, bound := range []float64{2, 4, 6, 8, 10} {
		ossOpts := core.DefaultOptions()
		ossOpts.Epsilon = 1 - 1/bound
		bbOpts := core.DefaultOptions()
		bbOpts.Epsilon = 0.5
		bbOpts.Beta = bound / 2
		if bbOpts.Beta <= 1 {
			bbOpts.Beta = 1.01
		}
		oss := Measure(ds, qs, Algorithm{Name: "OSScaling", Opts: ossOpts, Kind: KindOSScaling})
		bb := Measure(ds, qs, Algorithm{Name: "BucketBound", Opts: bbOpts, Kind: KindBucketBound})
		runtime.AddRow(bound, oss.MeanMs, bb.MeanMs)
		ratio.AddRow(bound, RelativeRatio(oss, base), RelativeRatio(bb, base))
		cfg.logf("fig14/15: bound=%v done", bound)
	}
	return runtime, ratio
}

// Figure16 — KkR runtime versus k for the top-k extensions of both label
// algorithms; Δ=6, averaged over the keyword sweep.
func Figure16(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Figure 16: KkR runtime vs k (" + ds.Name + ")",
		Columns: []string{"k", "OSScaling(ms)", "BucketBound(ms)"},
		Note:    fmt.Sprintf("Δ=%v, mean over m∈%v; paper Fig. 16", ds.DefaultDelta, keywordSweep),
	}
	for k := 1; k <= 5; k++ {
		ossTotal, bbTotal, sets := 0.0, 0.0, 0
		for _, m := range keywordSweep {
			qs := ds.Queries(cfg, m, ds.DefaultDelta)
			if len(qs) == 0 {
				continue
			}
			ossOpts := core.DefaultOptions()
			ossOpts.K = k
			bbOpts := core.DefaultOptions()
			bbOpts.K = k
			ossTotal += Measure(ds, qs, Algorithm{Name: "OSScaling", Opts: ossOpts, Kind: KindOSScaling}).MeanMs
			bbTotal += Measure(ds, qs, Algorithm{Name: "BucketBound", Opts: bbOpts, Kind: KindBucketBound}).MeanMs
			sets++
		}
		if sets > 0 {
			ossTotal /= float64(sets)
			bbTotal /= float64(sets)
		}
		t.AddRow(k, ossTotal, bbTotal)
		cfg.logf("fig16: k=%d done", k)
	}
	return t
}

// Figure17 — scalability: runtime of the four algorithms on road networks
// of 5k/10k/15k/20k nodes; m=6, Δ=30 km.
func Figure17(cfg Config, sizes []int) *stats.Table {
	cfg = cfg.WithDefaults()
	if len(sizes) == 0 {
		sizes = []int{5000, 10000, 15000, 20000}
	}
	t := &stats.Table{
		Title:   "Figure 17: scalability on road networks",
		Columns: []string{"nodes", "OSScaling(ms)", "BucketBound(ms)", "Greedy-2(ms)", "Greedy-1(ms)"},
		Note:    "m=6, Δ=30km, lazy oracle: each timing includes the query's own sweeps; paper Fig. 17",
	}
	for _, n := range sizes {
		ds := NewRoadDataset(cfg, n)
		qs := ds.Queries(cfg, 6, 30)
		cells := []any{n}
		for _, algo := range standardAlgorithms(defaultEpsilon, defaultBeta, defaultAlpha) {
			cells = append(cells, Measure(ds, qs, algo).MeanMs)
		}
		t.AddRow(cells...)
		cfg.logf("fig17: %d nodes done", n)
	}
	return t
}

// Figure18 — runtime versus keyword count on the 5k road network.
func Figure18(ds *Dataset, cfg Config) *stats.Table {
	t := Figure4(ds, cfg)
	t.Title = "Figure 18: runtime vs number of query keywords (" + ds.Name + ")"
	t.Note += "; paper Fig. 18"
	return t
}

// Figure19 — runtime versus Δ on the 5k road network.
func Figure19(ds *Dataset, cfg Config) *stats.Table {
	t := Figure5(ds, cfg)
	t.Title = "Figure 19: runtime vs budget limit Δ (" + ds.Name + ")"
	t.Note += "; paper Fig. 19"
	return t
}

// BruteForceGap quantifies §4.1's remark that the exhaustive baseline is
// at least two orders of magnitude slower than OSScaling, on workloads
// small enough for it to finish.
func BruteForceGap(ds *Dataset, cfg Config) *stats.Table {
	cfg = cfg.WithDefaults()
	t := &stats.Table{
		Title:   "Baseline: brute force vs OSScaling (" + ds.Name + ")",
		Columns: []string{"delta_km", "OSScaling(ms)", "BruteForce(ms)", "BF_unfinished"},
		Note:    "m=2; brute force capped at 2M expansions (the paper's 1-day timeout analogue)",
	}
	for _, delta := range []float64{2, 3, 4} {
		qs := ds.Queries(cfg, 2, delta)
		oss := Measure(ds, qs, Algorithm{Name: "OSScaling", Opts: core.DefaultOptions(), Kind: KindOSScaling})
		bf := Measure(ds, qs, Algorithm{Name: "BruteForce", Kind: KindBruteForce})
		t.AddRow(delta, oss.MeanMs, bf.MeanMs, bf.Failed)
		cfg.logf("brute-force gap: Δ=%v done", delta)
	}
	return t
}
