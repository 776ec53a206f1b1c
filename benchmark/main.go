// Command benchmark is this repository's benchmark: six workloads against
// the public entry points of the simulator (experiments.Run*Ctx) and of
// pearld (an in-process server.New behind a real HTTP listener), every
// result checked against reference digests or a direct run.
//
//	go run ./benchmark                              all workloads, default passes
//	go run ./benchmark -workload sim-cmesh          one workload
//	go run ./benchmark -workload sim-cmesh -trace 1 its per-layer metrics
//	go run ./benchmark -compare a.json b.json       two -out files, metric by metric
//
// See README.md in this directory for the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all six)")
		seed         = flag.Uint64("seed", referenceSeed, "drives every simulation seed, job seed and key order")
		seconds      = flag.Int("seconds", 0, "time budget per workload: passes repeat until it is spent, at least 3 (0 = each workload's default pass count)")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics from one traced pass and the ladder, in place of the end-to-end metrics")
		out          = flag.String("out", "", "write the full result as JSON to this file")
		spans        = flag.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments, then exit")
		update       = flag.String("update-digests", "", "recompute the reference digests by direct runs and write them to this file, then exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *update != "":
		if err := writeReference(ctx, *update); err != nil {
			fatal(err)
		}
		return
	}

	workloads := suite(sizeFull)
	if *workloadName != "" {
		w, ok := workloadByName(workloads, *workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		workloads = []workload{w}
	}
	e := newEnv(*seed)
	res := result{Header: newHeader(e)}
	var (
		tr     *tracer
		layers map[string]float64
	)
	if *trace != 0 {
		// The ladder does not depend on the workload: once per process.
		var err error
		if layers, err = ladder(ctx, e, sizeFull); err != nil {
			fatal(err)
		}
		tr = newTracer()
	}
	correct := true
	for _, w := range workloads {
		rep, err := runWorkload(ctx, w, e, runBudget{seconds: *seconds}, tr, layers)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name(), err))
		}
		rep.print(os.Stdout)
		res.Workloads = append(res.Workloads, rep)
		correct = correct && rep.Correct
		// The last line of a workload's output is its summary, as JSON.
		line, err := json.Marshal(rep.summary(tr != nil))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	if tr != nil && *spans != "" {
		if err := tr.write(*spans); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runBudget decides how many passes a workload runs: a fixed count (the
// traced run and the smoke test), else as many as fit in seconds, else
// the workload's default. Pass sizes never change: a budget buys more or
// fewer passes of the same work.
type runBudget struct{ passes, seconds int }

// minPasses is the fewest passes a median is taken over.
const minPasses = 3

func (b runBudget) done(w workload, ran int, since time.Time) bool {
	switch {
	case b.passes > 0:
		return ran >= b.passes
	case b.seconds > 0:
		return ran >= minPasses && time.Since(since) >= time.Duration(b.seconds)*time.Second
	}
	return ran >= w.passes()
}

// runWorkload runs the workload's passes and reduces them to a report.
// An untraced run repeats passes and reports the end-to-end metrics; a
// traced run makes one traced pass between two untraced ones (so that a
// drifting host cancels out of the tracing overhead) and reports the
// per-layer metrics: the ladder's, which the caller measured, and the
// traced pass's own.
func runWorkload(ctx context.Context, w workload, e *env, budget runBudget, tr *tracer, rungs map[string]float64) (workloadReport, error) {
	rep := workloadReport{Name: w.name(), Why: w.why(), Digests: map[string]string{}}
	if tr != nil {
		budget = runBudget{passes: 2}
	}
	var passes []*passResult
	var traced *passResult
	for start := time.Now(); !budget.done(w, len(passes), start); {
		p, err := w.pass(ctx, e, nil)
		if err != nil {
			return rep, err
		}
		passes = append(passes, p)
		if tr != nil && traced == nil {
			if traced, err = w.pass(ctx, e, tr); err != nil {
				return rep, err
			}
		}
	}
	if tr != nil {
		self := selfTimes(tr.spans, traced.root)
		layers := passLayerValues(traced, self, passes)
		for name, v := range rungs {
			layers[name] = v
		}
		rep.PerLayer = map[string]value{}
		for _, def := range perLayer {
			v, ok := layers[def.name]
			if !ok {
				return rep, fmt.Errorf("per-layer metric %s was not measured", def.name)
			}
			rep.PerLayer[def.name] = value{Value: v, Unit: def.unit}
		}
		rep.SelfTimeMS = map[string]float64{}
		for name, ns := range self {
			rep.SelfTimeMS[name] = float64(ns) / 1e6
		}
		passes = append(passes, traced)
	}
	rep.reduce(e, passes)
	return rep, nil
}
