package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// result is the file -out writes and -compare reads.
type result struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

func readResult(path string) (result, error) {
	var r result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Verdicts of one (end-to-end metric, workload) pairing of two results.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies the benchmark's bound to two samples of one metric. b
// is "worse" when its median is worse than a's by more than the bound,
// "better" when it is better by more than the bound, and "same" within
// it. When either side's own spread (quartile distance over median) is
// wider than the bound the runs cannot tell, and the pairing is
// "unresolved" unless every value of one side beats every value of the
// other.
func verdict(def metricDef, a, b sample) string {
	sign := 1.0 // positive change = worse
	if def.better == "higher" {
		sign = -1
	}
	change := sign * (b.Median - a.Median) / a.Median
	spread := func(s sample) float64 { return (s.Q3 - s.Q1) / s.Median }
	if max(spread(a), spread(b)) > def.bound {
		lo, hi := sorted(a.Values), sorted(b.Values)
		if sign < 0 {
			lo, hi = hi, lo
		}
		switch {
		case len(lo) == 0 || len(hi) == 0:
			return verdictUnresolved
		case hi[0] > lo[len(lo)-1]: // every b is worse than every a
			return verdictWorse
		case hi[len(hi)-1] < lo[0]:
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case change > def.bound:
		return verdictWorse
	case change < -def.bound:
		return verdictBetter
	}
	return verdictSame
}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both files and reports whether no row is worse or unresolved, no op
// failed and every digest the two share is equal.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  %s, %d cores, GOMAXPROCS %d, %s, commit %.12s, seed %d\n", pathA,
		a.Header.CPU, a.Header.NumCPU, a.Header.GOMAXPROCS, a.Header.GoVersion, a.Header.Commit, a.Header.Seed)
	fmt.Fprintf(w, "b: %s  %s, %d cores, GOMAXPROCS %d, %s, commit %.12s, seed %d\n", pathB,
		b.Header.CPU, b.Header.NumCPU, b.Header.GOMAXPROCS, b.Header.GoVersion, b.Header.Commit, b.Header.Seed)
	fmt.Fprintf(w, "%-18s %-20s %-5s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a median", "a q1..q3 (n)", "b median", "b q1..q3 (n)", "change", "bound", "verdict")
	ok := true
	byName := map[string]workloadReport{}
	for _, wb := range b.Workloads {
		byName[wb.Name] = wb
	}
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			v := verdict(def, sa, sb)
			if v == verdictWorse || v == verdictUnresolved {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-20s %-5s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
				wa.Name, def.name, def.unit,
				sa.Median, fmt.Sprintf("%.5g..%.5g (%d)", sa.Q1, sa.Q3, sa.N),
				sb.Median, fmt.Sprintf("%.5g..%.5g (%d)", sb.Q1, sb.Q3, sb.N),
				100*(sb.Median-sa.Median)/sa.Median, 100*def.bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			ok = false
			fmt.Fprintf(w, "%-18s failed ops: a %d of %d, b %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		shared, differ := 0, 0
		for id, d := range wa.Digests {
			if other, both := wb.Digests[id]; both {
				shared++
				if other != d {
					differ++
				}
			}
		}
		if differ > 0 {
			ok = false
		}
		fmt.Fprintf(w, "%-18s digests: %d shared, %d differ\n", wa.Name, shared, differ)
	}
	return ok, nil
}
