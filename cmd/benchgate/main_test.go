package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	tests := []struct {
		name  string
		input string
		want  map[string][]sample
	}{
		{
			name:  "GOMAXPROCS suffix stripped and kept as procs",
			input: "BenchmarkKernel-2   700000   1600 ns/op   9 B/op   0 allocs/op\n",
			want: map[string][]sample{
				"BenchmarkKernel": {{nsPerOp: 1600, hasAllocs: true, procs: 2}},
			},
		},
		{
			name:  "no suffix on a single-proc run",
			input: "BenchmarkKernelCMESH   100000   9800 ns/op\n",
			want: map[string][]sample{
				"BenchmarkKernelCMESH": {{nsPerOp: 9800}},
			},
		},
		{
			name: "-count runs accumulate as separate samples",
			input: "BenchmarkKernel-2   700000   1600 ns/op   0 allocs/op\n" +
				"BenchmarkKernel-2   700000   1700 ns/op   1 allocs/op\n",
			want: map[string][]sample{
				"BenchmarkKernel": {
					{nsPerOp: 1600, hasAllocs: true, procs: 2},
					{nsPerOp: 1700, allocsPerOp: 1, hasAllocs: true, procs: 2},
				},
			},
		},
		{
			name:  "custom metrics ignored",
			input: "BenchmarkKernel-4   700000   1600 ns/op   625000 cycles/sec   9 B/op   0 allocs/op\n",
			want: map[string][]sample{
				"BenchmarkKernel": {{nsPerOp: 1600, hasAllocs: true, procs: 4}},
			},
		},
		{
			name:  "non-benchmark lines skipped",
			input: "goos: linux\npkg: repro\nPASS\nok  \trepro\t12.3s\nBenchmarkBroken-2   100   fast ns/op\n",
			want:  map[string][]sample{},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBench(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestCheck(t *testing.T) {
	base := baselineFile{
		After: map[string]benchBaseline{
			"BenchmarkKernel":      {NsPerCycle: 1000, AllocsPerCycle: 0},
			"BenchmarkKernelCMESH": {NsPerCycle: 2000, AllocsPerCycle: 0},
		},
	}
	run := func(kernelNs, kernelAllocs float64) map[string][]sample {
		return map[string][]sample{
			"BenchmarkKernel":      {{nsPerOp: kernelNs, allocsPerOp: kernelAllocs, hasAllocs: true, procs: 2}},
			"BenchmarkKernelCMESH": {{nsPerOp: 2000, hasAllocs: true, procs: 2}},
		}
	}
	tests := []struct {
		name        string
		results     map[string][]sample
		tolerance   float64
		allocSlack  float64
		wantChecked int
		wantFailed  int
		wantOutput  string
	}{
		{name: "within limits", results: run(1100, 0), tolerance: 0.2, wantChecked: 2, wantOutput: "procs=2"},
		{name: "ns/op past tolerance", results: run(1300, 0), tolerance: 0.2, wantChecked: 2, wantFailed: 1},
		{name: "allocs past baseline", results: run(1000, 1), tolerance: 0.2, wantChecked: 2, wantFailed: 1},
		{name: "alloc slack absorbs growth", results: run(1000, 1), tolerance: 0.2, allocSlack: 1, wantChecked: 2},
		{
			// A deleted benchmark must not leave its baseline "passing".
			name: "stale baseline",
			results: map[string][]sample{
				"BenchmarkKernel": {{nsPerOp: 1000, hasAllocs: true, procs: 2}},
			},
			tolerance: 0.2, wantChecked: 2, wantFailed: 1,
			wantOutput: "missing from the input",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			checked, failed := check(&out, base, tc.results, tc.tolerance, tc.allocSlack)
			if checked != tc.wantChecked || failed != tc.wantFailed {
				t.Fatalf("checked %d failed %d, want %d and %d\n%s",
					checked, failed, tc.wantChecked, tc.wantFailed, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOutput) {
				t.Fatalf("output lacks %q:\n%s", tc.wantOutput, out.String())
			}
		})
	}
}

// TestCheckSortedOrder pins the report order: map iteration used to make
// two runs over the same input print differently.
func TestCheckSortedOrder(t *testing.T) {
	base := baselineFile{After: map[string]benchBaseline{
		"BenchmarkC": {NsPerCycle: 1}, "BenchmarkA": {NsPerCycle: 1}, "BenchmarkB": {NsPerCycle: 1},
	}}
	var out strings.Builder
	check(&out, base, nil, 0, 0)
	a, b, c := strings.Index(out.String(), "BenchmarkA"), strings.Index(out.String(), "BenchmarkB"), strings.Index(out.String(), "BenchmarkC")
	if !(a >= 0 && a < b && b < c) {
		t.Fatalf("baselines not reported in name order:\n%s", out.String())
	}
}
