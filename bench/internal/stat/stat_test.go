package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	// 200 samples: p95 is the 190th value, exactly ten lie beyond it.
	v, ok := Percentile(seq(200), 95)
	if v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, supported=%v; want 190, true", v, ok)
	}
	// 199 samples: rank ceil(189.05)=190, nine beyond.
	if v, ok := Percentile(seq(199), 95); v != 190 || ok {
		t.Errorf("p95 of 1..199 = %v, supported=%v; want 190, false", v, ok)
	}
	// The median of a large sample is always supported; of a tiny one never.
	if _, ok := Percentile(seq(30), 50); !ok {
		t.Error("p50 of 30 samples reported unsupported")
	}
	if _, ok := Percentile(seq(12), 50); ok {
		t.Error("p50 of 12 samples reported supported with only six beyond")
	}
	if v, ok := Percentile(nil, 95); v != 0 || ok {
		t.Errorf("empty sample: %v, %v", v, ok)
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4}, 1, 4},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	// IQR 5.5 over median 5.5.
	if got := Spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := Spread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v", got)
	}
}
