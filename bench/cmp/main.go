// Command cmp compares two sets of benchmark runs and prints one row per
// (workload, end-to-end metric): each side's median and quartiles, the
// change, the metric's bound from BENCHMARK.json, and a verdict:
//
//   - better: the new runs win at least nine in ten pairs (runs with the
//     same seed; ties count for neither) and the medians differ by more
//     than the distance between the old runs' quartiles;
//   - unresolved: the old runs' own spread (quartile distance over
//     median) is wider than the bound, so a regression within the bound
//     cannot be told from noise, unless every new run reads better than
//     every old run;
//   - worse: the new median is worse than the old by more than the bound;
//   - unchanged: none of the above.
//
// It exits 1 if any row is worse. Usage, from the bench directory, whose
// parent holds the BENCHMARK.json with the bounds:
//
//	go run ./cmp results/old.jsonl results/new.jsonl
//
// Each file holds the JSON records `bench -out FILE` appends, one per
// run, with at most one untraced run per (workload, seed).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"footsteps/bench/stat"
)

// benchmarkJSON is where the bounds are, relative to the bench directory.
const benchmarkJSON = "../BENCHMARK.json"

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one record's value of one metric.
type run struct {
	seed  uint64
	value float64
}

// row is one compared (workload, metric).
type row struct {
	workload, metric string
	old, new         []run
	b                bound
	verdict          string
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: cmp old.jsonl new.jsonl (from the bench directory)")
		os.Exit(2)
	}
	worse, err := compareFiles(os.Stdout, benchmarkJSON, os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func compareFiles(out io.Writer, boundsPath, oldPath, newPath string) (bool, error) {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return false, err
	}
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	rows := compare(bounds, oldRecs, newRecs)
	if len(rows) == 0 {
		return false, errors.New("no workload has untraced runs on both sides")
	}
	return printRows(out, rows), nil
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

func readRecords(path string) ([]stat.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type key struct {
		workload string
		seed     uint64
	}
	seen := make(map[key]int) // untraced runs: line they were read from
	var recs []stat.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec stat.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			k := key{rec.Workload, rec.Seed}
			if prev, ok := seen[k]; ok {
				return nil, fmt.Errorf("%s:%d: a second untraced %s run with seed %d (the first is on line %d): compare one set per file",
					path, line, rec.Workload, rec.Seed, prev)
			}
			seen[k] = line
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// compare builds a row for every workload with untraced runs on both
// sides and every end-to-end metric.
func compare(bounds []bound, oldRecs, newRecs []stat.Record) []row {
	collect := func(recs []stat.Record) map[string]map[string][]run {
		m := make(map[string]map[string][]run)
		for _, rec := range recs {
			if rec.Trace {
				continue
			}
			if m[rec.Workload] == nil {
				m[rec.Workload] = make(map[string][]run)
			}
			for name, s := range rec.Metrics {
				m[rec.Workload][name] = append(m[rec.Workload][name], run{rec.Seed, s.Value})
			}
		}
		return m
	}
	oldM, newM := collect(oldRecs), collect(newRecs)
	var workloads []string
	for w := range oldM {
		if newM[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []row
	for _, w := range workloads {
		for _, b := range bounds {
			o, n := oldM[w][b.Name], newM[w][b.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			rows = append(rows, row{workload: w, metric: b.Name, old: o, new: n, b: b, verdict: verdict(o, n, b)})
		}
	}
	return rows
}

func values(rs []run) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.value
	}
	return xs
}

// verdict applies the comparison rule in the package comment.
func verdict(old, new []run, b bound) string {
	sign := 1.0 // positive change is worse
	if b.Better == "higher" {
		sign = -1
	}
	oq1, omed, oq3 := stat.Quartiles(values(old))
	nmed := stat.Median(values(new))
	change := sign * (nmed - omed) / math.Abs(omed)

	wins, pairs := 0, 0
	bySeed := make(map[uint64]float64)
	for _, r := range old {
		bySeed[r.seed] = r.value
	}
	for _, r := range new {
		ov, ok := bySeed[r.seed]
		if !ok {
			continue
		}
		pairs++
		if sign*(r.value-ov) < 0 {
			wins++
		}
	}
	if change < 0 && pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(nmed-omed) > oq3-oq1 {
		return "better"
	}
	if stat.Spread(values(old)) > b.Bound {
		if allBetter(old, new, sign) {
			return "unchanged"
		}
		return "unresolved"
	}
	if change > b.Bound {
		return "worse"
	}
	return "unchanged"
}

// allBetter reports whether every new run reads better than every old one.
func allBetter(old, new []run, sign float64) bool {
	worstNew, bestOld := math.Inf(-1), math.Inf(1)
	for _, r := range new {
		worstNew = math.Max(worstNew, sign*r.value)
	}
	for _, r := range old {
		bestOld = math.Min(bestOld, sign*r.value)
	}
	return worstNew < bestOld
}

// printRows writes the comparison table and reports whether any row is
// worse.
func printRows(out io.Writer, rows []row) bool {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told median\told q1..q3\tnew median\tnew q1..q3\tchange\tbound\tn\tverdict\t")
	worse := false
	for _, r := range rows {
		oq1, omed, oq3 := stat.Quartiles(values(r.old))
		nq1, nmed, nq3 := stat.Quartiles(values(r.new))
		fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g..%.4g\t%.4g %s\t%.4g..%.4g\t%+.1f%%\t%.0f%%\t%d/%d\t%s\t\n",
			r.workload, r.metric, omed, r.b.Unit, oq1, oq3, nmed, r.b.Unit, nq1, nq3,
			100*(nmed-omed)/math.Abs(omed), 100*r.b.Bound, len(r.old), len(r.new), r.verdict)
		worse = worse || r.verdict == "worse"
	}
	tw.Flush()
	return worse
}
