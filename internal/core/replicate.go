package core

import (
	"fmt"
	"math"
	"sort"

	"footsteps/internal/honeypot"
)

// Replication holds a metric set measured across independent seeds — the
// repository's answer to "is that number luck?". Every run uses a fresh
// world differing only in Config.Seed.
type Replication struct {
	Seeds   []uint64
	Metrics map[string][]float64 // metric name → one value per seed
}

// Summary returns the mean and sample standard deviation of a metric.
func (r *Replication) Summary(metric string) (mean, stddev float64, ok bool) {
	vals := r.Metrics[metric]
	if len(vals) == 0 {
		return 0, 0, false
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if len(vals) > 1 {
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		stddev = math.Sqrt(ss / float64(len(vals)-1))
	}
	return mean, stddev, true
}

// MetricNames returns the measured metric names, sorted.
func (r *Replication) MetricNames() []string {
	out := make([]string, 0, len(r.Metrics))
	for m := range r.Metrics {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Format renders mean ± stddev rows.
func (r *Replication) Format() string {
	var b []byte
	b = append(b, fmt.Sprintf("replication across %d seeds\n", len(r.Seeds))...)
	for _, m := range r.MetricNames() {
		mean, std, _ := r.Summary(m)
		b = append(b, fmt.Sprintf("  %-40s %8.4f ± %.4f\n", m, mean, std)...)
	}
	return string(b)
}

// Replicate builds one fresh world per seed and folds the metrics the run
// callback extracts from it.
func Replicate(base Config, seeds []uint64, run func(w *World) (map[string]float64, error)) (*Replication, error) {
	rep := &Replication{Metrics: make(map[string][]float64)}
	for _, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		w := NewWorld(cfg)
		metrics, err := run(w)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		rep.Seeds = append(rep.Seeds, seed)
		for name, v := range metrics {
			rep.Metrics[name] = append(rep.Metrics[name], v)
		}
	}
	return rep, nil
}

// ReplicateReciprocation reruns the Table 5 experiment across seeds and
// reports the per-cell reciprocation rates, named
// "<service>/<E|L>/<drive>→<inbound>".
func ReplicateReciprocation(base Config, seeds []uint64, emptyPer, livedPer int) (*Replication, error) {
	return Replicate(base, seeds, func(w *World) (map[string]float64, error) {
		tbl, err := w.ReciprocationStudy(emptyPer, livedPer)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, len(tbl.Cells)*2)
		for _, c := range tbl.Cells {
			kind := "E"
			if c.Kind == honeypot.LivedIn {
				kind = "L"
			}
			prefix := fmt.Sprintf("%s/%s/%s", c.Service, kind, c.DriveType)
			out[prefix+"→like"] = c.InLikeRate
			out[prefix+"→follow"] = c.InFollowRate
		}
		return out, nil
	})
}
