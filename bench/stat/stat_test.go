package stat

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same input, including its extrapolation for two values.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25}, 0.1875, 3.375, 6.5625},
		{[]float64{2, 9, 4, 7, 1, 8, 3, 6, 5, 10, 11}, 3, 6, 9},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := Quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("Quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := Percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 0..100 = %v", got)
	}
	if got := Percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("interpolated p50 = %v", got)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("Spread = %v", got)
	}
	s := Summarize("ms", []float64{3, 1, 2})
	if s.Value != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 || s.Unit != "ms" {
		t.Errorf("Summarize = %+v", s)
	}
}
