// Command benchgate is the benchmark-regression gate for the cycle
// kernel: it parses `go test -bench` output, compares each gated
// benchmark against the checked-in baseline in BENCH_kernel.json and
// exits non-zero if ns/op regresses past the tolerance, allocs/op grows
// past the slack, or a baselined benchmark is absent. Plain stdlib, so
// CI needs nothing but the Go toolchain:
//
//	go test -run '^$' -bench Kernel -benchmem . | go run ./cmd/benchgate
//	go run ./cmd/benchgate -baseline BENCH_kernel.json -tolerance 0.35 -input bench.txt
//
// ns/op gates are relative (timing is machine-dependent); allocs/op
// gates are absolute (allocation counts are deterministic), so the
// kernel's zero-alloc property cannot erode silently even on a noisy
// runner.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchBaseline is one benchmark's reference numbers from the "after"
// block of BENCH_kernel.json.
type benchBaseline struct {
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// baselineFile is the subset of BENCH_kernel.json the gate reads.
type baselineFile struct {
	After map[string]benchBaseline `json:"after"`
}

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	procs       int
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		baselinePath = flag.String("baseline", "BENCH_kernel.json", "baseline file (the 'after' block is the reference)")
		input        = flag.String("input", "-", "bench output to check ('-' = stdin)")
		tolerance    = flag.Float64("tolerance", 0.20, "allowed relative ns/op regression (0.20 = +20%)")
		allocSlack   = flag.Float64("alloc-slack", 0, "allowed absolute allocs/op growth over baseline")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 1
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fail(err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fail(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}
	if len(base.After) == 0 {
		return fail(fmt.Errorf("%s has no 'after' baselines", *baselinePath))
	}

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	results, err := parseBench(r)
	if err != nil {
		return fail(err)
	}

	checked, failed := check(os.Stdout, base, results, *tolerance, *allocSlack)
	if failed > 0 {
		fmt.Printf("benchgate: %d gate(s) failed\n", failed)
		return 1
	}
	fmt.Printf("benchgate: %d benchmark(s) within limits\n", checked)
	return 0
}

// check gates every baseline in sorted name order and returns how many
// gates ran and how many failed. A
// benchmark the baseline names but the input lacks fails its gate: a
// deleted or renamed benchmark must take its baseline with it rather
// than leave a stale entry that passes by never being looked at.
func check(w io.Writer, base baselineFile, results map[string][]sample, tolerance, allocSlack float64) (checked, failed int) {
	names := make([]string, 0, len(base.After))
	for name := range base.After {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.After[name]
		checked++
		samples, ok := results[name]
		if !ok {
			failed++
			fmt.Fprintf(w, "%-24s has a baseline but is missing from the input  FAIL\n", name)
			continue
		}
		s := mean(samples)
		limit := b.NsPerCycle * (1 + tolerance)
		status := "ok"
		if s.nsPerOp > limit {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-24s ns/op %9.0f  baseline %9.0f  limit %9.0f  (%+.1f%%, procs=%d)  %s\n",
			name, s.nsPerOp, b.NsPerCycle, limit, 100*(s.nsPerOp/b.NsPerCycle-1), s.procs, status)
		if s.hasAllocs {
			allocLimit := b.AllocsPerCycle + allocSlack
			status = "ok"
			if s.allocsPerOp > allocLimit {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "%-24s allocs/op %6.1f  baseline %6.1f  limit %9.1f  %s\n",
				name, s.allocsPerOp, b.AllocsPerCycle, allocLimit, status)
		}
	}
	return checked, failed
}

// parseBench extracts (ns/op, allocs/op) samples per benchmark from
// `go test -bench` output. The GOMAXPROCS suffix is stripped so
// BenchmarkKernel-4 keys as BenchmarkKernel; repeated runs (-count)
// accumulate as separate samples.
func parseBench(r io.Reader) (map[string][]sample, error) {
	results := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		var s sample
		if i := strings.LastIndex(name, "-"); i > 0 {
			// The suffix is the GOMAXPROCS the benchmark ran under; the
			// report prints it next to the baseline it is held to.
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				s.procs = n
			}
			name = name[:i]
		}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
				seen = true
			case "allocs/op":
				s.allocsPerOp = v
				s.hasAllocs = true
			}
		}
		if seen {
			results[name] = append(results[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// mean averages the samples of one benchmark; allocs are flagged
// present if any sample carried them, and procs is the highest
// GOMAXPROCS any sample ran under.
func mean(samples []sample) sample {
	var out sample
	for _, s := range samples {
		out.nsPerOp += s.nsPerOp
		out.allocsPerOp += s.allocsPerOp
		out.hasAllocs = out.hasAllocs || s.hasAllocs
		if s.procs > out.procs {
			out.procs = s.procs
		}
	}
	n := float64(len(samples))
	out.nsPerOp /= n
	out.allocsPerOp /= n
	return out
}
