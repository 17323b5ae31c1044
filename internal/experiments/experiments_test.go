package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"kor/internal/core"
)

// fastConfig keeps the harness tests quick: a small photo world and few
// queries. The assertions are about plumbing and invariants, not absolute
// performance.
func fastConfig() Config {
	return Config{Seed: 7, Queries: 4, FastFlickr: true}
}

func fastFlickr(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewFlickrDataset(fastConfig())
	if err != nil {
		t.Fatalf("NewFlickrDataset: %v", err)
	}
	return ds
}

func TestFlickrDatasetBuilds(t *testing.T) {
	ds := fastFlickr(t)
	if ds.Graph.NumNodes() < 10 {
		t.Fatalf("tiny dataset has %d nodes", ds.Graph.NumNodes())
	}
	qs := ds.Queries(fastConfig(), 2, 6)
	if len(qs) == 0 {
		t.Fatal("no queries generated")
	}
	for _, q := range qs {
		if len(q.Keywords) != 2 || q.Budget != 6 {
			t.Fatalf("bad query %+v", q)
		}
	}
}

func TestMeasureCountsFailures(t *testing.T) {
	ds := fastFlickr(t)
	qs := ds.Queries(fastConfig(), 2, 6)
	m := Measure(ds, qs, Algorithm{Name: "OSScaling", Opts: core.DefaultOptions(), Kind: KindOSScaling})
	if m.Queries != len(qs) {
		t.Fatalf("measured %d of %d queries", m.Queries, len(qs))
	}
	nan := 0
	for _, o := range m.Objectives {
		if math.IsNaN(o) {
			nan++
		}
	}
	if nan != m.Failed {
		t.Fatalf("Failed=%d but %d NaN objectives", m.Failed, nan)
	}
	if m.MeanMs < 0 {
		t.Fatalf("negative runtime %v", m.MeanMs)
	}
	if f := m.FailureFraction(); f < 0 || f > 1 {
		t.Fatalf("failure fraction %v", f)
	}
}

func TestRelativeRatioProperties(t *testing.T) {
	base := Measurement{Objectives: []float64{2, 4, math.NaN(), 8}}
	same := Measurement{Objectives: []float64{2, 4, 6, 8}}
	if r := RelativeRatio(same, base); math.Abs(r-1) > 1e-12 {
		t.Errorf("self ratio = %v, want 1 (NaN rows skipped)", r)
	}
	worse := Measurement{Objectives: []float64{4, 8, 1, 16}}
	if r := RelativeRatio(worse, base); math.Abs(r-2) > 1e-12 {
		t.Errorf("ratio = %v, want 2", r)
	}
	empty := Measurement{Objectives: []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}}
	if r := RelativeRatio(empty, base); !math.IsNaN(r) {
		t.Errorf("all-failed ratio = %v, want NaN", r)
	}
}

// TestRatioAlgorithmsOrdering: on a shared workload, the ε=0.1 base is the
// most accurate of the label algorithms, so every relative ratio is ≥ 1−ε
// slack; BucketBound's ratio must respect its β bound against OSScaling on
// the same ε.
func TestRatioAlgorithmsOrdering(t *testing.T) {
	ds := fastFlickr(t)
	cfg := fastConfig()
	cfg.Queries = 6
	qs := ds.Queries(cfg, 2, 9)
	base := Measure(ds, qs, baseAlgorithm())
	bbOpts := core.DefaultOptions()
	bb := Measure(ds, qs, Algorithm{Name: "BucketBound", Opts: bbOpts, Kind: KindBucketBound})
	r := RelativeRatio(bb, base)
	if math.IsNaN(r) {
		t.Skip("workload had no mutually-feasible queries")
	}
	// Base has bound 1/(1−0.1) ≈ 1.11 of optimal; BucketBound ≤ β/(1−ε) =
	// 2.4 of optimal. Relative ratio can therefore not exceed 2.4/1.0 and
	// not drop below 1/1.11.
	if r < 0.89 || r > 2.7 {
		t.Errorf("BucketBound relative ratio %v outside theoretical envelope", r)
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("nope", fastConfig(), &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRunnerIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, id := range RunnerIDs() {
		if seen[id] {
			t.Fatalf("duplicate runner id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"0", "4", "5", "6", "8", "10", "11", "12", "14", "16", "17", "18", "19", "20"} {
		if !seen[want] {
			t.Errorf("missing runner for figure %s", want)
		}
	}
}

// TestFigureSmoke drives a cheap subset of the figure runners end to end on
// the tiny dataset, checking tables come back populated.
func TestFigureSmoke(t *testing.T) {
	ds := fastFlickr(t)
	cfg := fastConfig()
	cfg.Queries = 3

	t6, t7 := Figure6and7(ds, cfg)
	if len(t6.Rows) != 5 || len(t7.Rows) != 5 {
		t.Fatalf("ε sweep rows = %d/%d, want 5/5", len(t6.Rows), len(t7.Rows))
	}
	t8, t9 := Figure8and9(ds, cfg)
	if len(t8.Rows) != 5 || len(t9.Rows) != 5 {
		t.Fatalf("β sweep rows = %d/%d", len(t8.Rows), len(t9.Rows))
	}
	gap := BruteForceGap(ds, cfg)
	if len(gap.Rows) != 3 {
		t.Fatalf("brute-force gap rows = %d", len(gap.Rows))
	}
	var buf bytes.Buffer
	if err := t6.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("render lost the title")
	}
}

func TestAblationStrategiesTable(t *testing.T) {
	ds := fastFlickr(t)
	cfg := fastConfig()
	cfg.Queries = 3
	tbl := AblationStrategies(ds, cfg)
	if len(tbl.Rows) != 2 {
		t.Fatalf("ablation rows = %d, want 2", len(tbl.Rows))
	}
}

func TestExampleRoutesRuns(t *testing.T) {
	ds := fastFlickr(t)
	cfg := fastConfig()
	cfg.Queries = 8
	tbl := ExampleRoutes(ds, cfg)
	// Either a crossover was found (two rows) or the note explains why not.
	if len(tbl.Rows) == 0 && tbl.Note == "" {
		t.Fatal("example runner returned nothing")
	}
	if len(tbl.Rows) != 0 && len(tbl.Rows)%2 != 0 {
		t.Fatalf("example rows = %d, want pairs", len(tbl.Rows))
	}
}
