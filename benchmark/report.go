package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// header records where and how a result was measured, so that no number
// in the file is read without its machine, core count and GOMAXPROCS.
type header struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	// Clients and Workers are the closed-loop client count and daemon pool
	// size of the service workloads.
	Clients int `json:"clients"`
	Workers int `json:"workers"`
}

func newHeader(e *env) header {
	h := header{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Seed: e.seed, Clients: e.clients, Workers: e.workers,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the processor's name where the OS offers it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// value is one metric as measured.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Passes is how many passes the end-to-end samples cover and OpsPerPass
	// the fixed size of each.
	Passes     int `json:"passes"`
	OpsPerPass int `json:"ops_per_pass"`
	// Attempted and Failed count ops over all passes; a refused request, a
	// failed job and a digest mismatch all count as failed.
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Correct     bool     `json:"correct"`
	Failures    []string `json:"failures,omitempty"`
	// EndToEnd holds each end-to-end metric's per-pass values with their
	// median and quartiles.
	EndToEnd map[string]sample `json:"end_to_end"`
	// PerLayer and SelfTimeMS are filled by a traced run.
	PerLayer   map[string]value   `json:"per_layer,omitempty"`
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`
	// ReferenceChecked is how many results were compared with digests.json
	// (0 when the seed is not the reference seed).
	ReferenceChecked int               `json:"reference_checked"`
	Digests          map[string]string `json:"digests"`
}

// reduce folds the passes into the report. Every pass must have produced
// the same digest for the same spec: simulated statistics repeat exactly,
// traced or not.
func (r *workloadReport) reduce(e *env, passes []*passResult) {
	values := map[string][]float64{}
	for _, p := range passes {
		r.Attempted += p.attempted
		r.Failures = append(r.Failures, p.failures...)
		for id, d := range p.digests {
			if prev, ok := r.Digests[id]; ok && prev != d {
				r.Failures = append(r.Failures, fmt.Sprintf("%s: digest differs between passes", id))
			}
			r.Digests[id] = d
		}
		if p.root >= 0 {
			continue // the traced pass is timed by the per-layer metrics only
		}
		r.Passes++
		r.OpsPerPass = len(p.opMS)
		for name, v := range endToEndValues(p) {
			values[name] = append(values[name], v)
		}
	}
	r.EndToEnd = map[string]sample{}
	for _, def := range endToEnd {
		r.EndToEnd[def.name] = newSample(def.unit, values[def.name])
	}
	r.Failed = min(len(r.Failures), r.Attempted)
	r.FailedShare = float64(r.Failed) / float64(max(r.Attempted, 1))
	r.Correct = len(r.Failures) == 0
	for id := range r.Digests {
		if _, ok := e.reference[id]; ok {
			r.ReferenceChecked++
		}
	}
}

func (r *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d passes x %d ops ==\n", r.Name, r.Passes, r.OpsPerPass)
	for _, def := range endToEnd {
		s := r.EndToEnd[def.name]
		fmt.Fprintf(w, "  %-22s %14.6g %-5s (q1 %.6g, q3 %.6g, n=%d; %s is better)\n",
			def.name, s.Median, s.Unit, s.Q1, s.Q3, s.N, def.better)
	}
	fmt.Fprintf(w, "  %-22s %14.6g       (%d failed of %d attempted)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted)
	fmt.Fprintf(w, "  digests: %d results, %d checked against digests.json, the rest against a direct run or a repeat\n",
		len(r.Digests), r.ReferenceChecked)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintln(w, "  -- per layer --")
	for _, def := range perLayer {
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", def.name, r.PerLayer[def.name].Value, def.unit)
	}
	fmt.Fprintln(w, "  -- self time of the traced pass by span --")
	for _, name := range sortedKeys(r.SelfTimeMS) {
		fmt.Fprintf(w, "  %-42s %14.6g ms\n", name, r.SelfTimeMS[name])
	}
}

// summary is the workload's result in the shape the benchmark contract
// reads off the last line: end-to-end metrics for an untraced run,
// per-layer metrics for a traced one.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *workloadReport) summary(traced bool) summary {
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.PerLayer}
	if !traced {
		s.Metrics = map[string]value{}
		for name, sm := range r.EndToEnd {
			s.Metrics[name] = value{Value: sm.Median, Unit: sm.Unit}
		}
	}
	return s
}
