// Package stat holds the benchmark's sample statistics and its result
// record, shared by the runner (footsteps/bench) and the comparator
// (footsteps/bench/cmp).
package stat

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so the spreads this package reports
// are the ones an outside check computes from the same values. One value
// is its own quartiles; no values give NaN.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Median is the middle value of xs, or the mean of the middle two (as
// Python's statistics.median): the second quartile. No values give NaN.
func Median(xs []float64) float64 {
	_, q2, _ := Quartiles(xs)
	return q2
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks.
func Percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// Spread is the distance between the first and third quartile of xs as
// a share of its median: the run-to-run noise a bound must exceed.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// Summary is one metric of one run: the median of its samples (Value),
// their quartiles and extremes, and the samples themselves.
type Summary struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// Summarize reduces samples to a Summary whose Value is their median.
func Summarize(unit string, samples []float64) Summary {
	q1, med, q3 := Quartiles(samples)
	s := sorted(samples)
	sum := Summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(s), Samples: samples}
	if len(s) > 0 {
		sum.Min, sum.Max = s[0], s[len(s)-1]
	}
	return sum
}

// Host is the provenance of a run: where it was measured.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

// Record is one benchmark run with its provenance and every metric's
// samples. The runner appends one per run to its -out file; the
// comparator reads files of them. Time metrics are divided by Slowdown,
// how many times slower than the quiet reference host the host ran the
// Yardstick kernel during the run; multiply by it for the times as
// measured.
type Record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   int                `json:"seconds"`
	Rev       string             `json:"rev"`
	Host      Host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Metrics   map[string]Summary `json:"metrics"`
	Slowdown  float64            `json:"slowdown"`
	Yardstick Summary            `json:"yardstick"`
}
