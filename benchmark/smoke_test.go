package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesDefinitions keeps BENCHMARK.json and the metric and
// workload definitions in this package the same list.
func TestManifestMatchesDefinitions(t *testing.T) {
	m := readManifest(t)
	check := func(kind string, listed []manifestMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the package defines %d", kind, len(listed), len(defs))
		}
		for i, def := range defs {
			got := listed[i]
			if got.Name != def.name || got.Unit != def.unit || got.Better != def.better || got.Bound != def.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the package %+v", kind, i, got, def)
			}
			if !metricName.MatchString(def.name) {
				t.Errorf("%s metric name %q uses characters outside letters, digits, _ . -", kind, def.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	ws := suite(sizeFull)
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package defines %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name() || m.Workloads[i].Why != w.why() {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package %s: %s", i, m.Workloads[i], w.name(), w.why())
		}
	}
}

// TestSmoke runs every workload at a tiny fixed size, untraced and
// traced, and requires every metric BENCHMARK.json names exactly once
// per workload with its unit, and no failed op.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	ctx := context.Background()
	e := newEnv(referenceSeed)
	e.reference = nil // tiny specs have no reference digests
	layers, err := ladder(ctx, e, sizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range suite(sizeTiny) {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			listed := m.EndToEnd
			if traced {
				tr, listed = newTracer(), m.PerLayer
			}
			rep, err := runWorkload(ctx, w, e, runBudget{passes: 1}, tr, layers)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name(), traced, err)
			}
			if rep.FailedShare != 0 || !rep.Correct {
				t.Errorf("%s traced=%v: failed_share %g: %v", w.name(), traced, rep.FailedShare, rep.Failures)
			}
			line, err := json.Marshal(rep.summary(traced))
			if err != nil {
				t.Fatal(err)
			}
			var sum struct {
				Attempted int
				Metrics   map[string]value
			}
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w.name(), traced, sum.Attempted)
			}
			if len(sum.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics in the summary, BENCHMARK.json lists %d", w.name(), traced, len(sum.Metrics), len(listed))
			}
			var printed bytes.Buffer
			rep.print(&printed)
			for _, want := range listed {
				if got, ok := sum.Metrics[want.Name]; !ok || got.Unit != want.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (present %v), want unit %s", w.name(), traced, want.Name, got, ok, want.Unit)
				}
				lines := 0
				for _, l := range strings.Split(printed.String(), "\n") {
					if f := strings.Fields(l); len(f) > 0 && f[0] == want.Name {
						lines++
					}
				}
				if lines != 1 {
					t.Errorf("%s traced=%v: metric %s printed on %d lines, want 1", w.name(), traced, want.Name, lines)
				}
			}
		}
	}
}

// TestHarnessStackMatchesRun pins the traced wiring to the replica
// builders: the stack runTraced assembles from exported constructors must
// give the digest experiments.RunPEARLCtx / RunCMESHCtx give.
func TestHarnessStackMatchesRun(t *testing.T) {
	pair := traffic.TestPairs()[1]
	for _, s := range []spec{
		pearlSpec("dyn-rw500", pair, 7, 500, 6000, true),
		cmeshSpec(2, pair, 7, 500, 3000),
	} {
		_, direct, err := s.run(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: %v", s.id(), err)
		}
		_, traced, err := s.runTraced(newTracer(), -1, nil)
		if err != nil {
			t.Fatalf("%s traced: %v", s.id(), err)
		}
		if digest(direct) != digest(traced) {
			t.Errorf("%s: harness-built stack gives %+v, Run*Ctx %+v", s.id(), traced, direct)
		}
	}
}

// TestVerdict pins -compare's four verdicts.
func TestVerdict(t *testing.T) {
	def := metricDef{name: "m", unit: "s", better: "lower", bound: 0.10}
	tight := func(mid float64) sample {
		return newSample("s", []float64{mid * 0.99, mid, mid, mid * 1.01})
	}
	wide := func(mid float64) sample {
		return newSample("s", []float64{mid * 0.8, mid * 0.9, mid * 1.1, mid * 1.2})
	}
	for _, c := range []struct {
		a, b sample
		want string
	}{
		{tight(1), tight(1.05), verdictSame},
		{tight(1), tight(1.2), verdictWorse},
		{tight(1), tight(0.8), verdictBetter},
		{tight(1), wide(1.05), verdictUnresolved},
		{wide(1), wide(2), verdictWorse}, // every run of b is worse than every run of a
	} {
		if got := verdict(def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Values, c.b.Values, got, c.want)
		}
	}
}
