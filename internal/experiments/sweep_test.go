package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/traffic"
)

func TestFigureSweepExpansion(t *testing.T) {
	cases := []struct {
		name       string
		configs    int
		cmeshCount int
		mlCount    int
	}{
		{"fig4", 1, 0, 0},
		{"fig5", 9, 3, 0},
		{"fig6", 8, 0, 3},
		{"fig7", 8, 0, 3},
		{"fig8", 2, 0, 2},
		{"fig9", 7, 1, 1},
		{"fig10", 4, 0, 3},
		{"fig11", 8, 0, 0},
	}
	pairs := traffic.TestPairs()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			points, err := FigureSweep(tc.name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.configs * len(pairs); len(points) != want {
				t.Fatalf("%s expanded to %d points, want %d (%d configs x %d pairs)",
					tc.name, len(points), want, tc.configs, len(pairs))
			}
			cmesh, ml := 0, 0
			for i, p := range points {
				if p.Backend == "cmesh" {
					cmesh++
					if p.LinkScale < 1 {
						t.Fatalf("point %d: cmesh link scale %d", i, p.LinkScale)
					}
				} else if p.Backend != "pearl" {
					t.Fatalf("point %d: backend %q", i, p.Backend)
				}
				if p.Label == "" || p.Pair.CPU.Name == "" {
					t.Fatalf("point %d underspecified: %+v", i, p)
				}
				// Points expand with a nil Controller; the caller
				// (pearld's finalize, pearlbench) builds it — resolving
				// model-needing ones against a registry or skipping them.
				if p.Controller != nil {
					t.Fatalf("point %d: expansion pre-bound a controller", i)
				}
				if p.Config.Power == config.PowerML {
					ml++
				}
			}
			if cmesh != tc.cmeshCount*len(pairs) {
				t.Fatalf("%s has %d cmesh points, want %d", tc.name, cmesh, tc.cmeshCount*len(pairs))
			}
			if ml != tc.mlCount*len(pairs) {
				t.Fatalf("%s has %d ML points, want %d", tc.name, ml, tc.mlCount*len(pairs))
			}
			// Configuration-major ordering: the first len(pairs) points
			// share a label and walk the pair list in order.
			for i := 0; i < len(pairs); i++ {
				if points[i].Label != points[0].Label {
					t.Fatalf("ordering not configuration-major at point %d", i)
				}
				if points[i].Pair.Name() != pairs[i].Name() {
					t.Fatalf("pair order diverges at point %d: %s vs %s", i, points[i].Pair.Name(), pairs[i].Name())
				}
			}
		})
	}
}

func TestFigureSweepRestrictedPairs(t *testing.T) {
	pairs := traffic.TestPairs()[:2]
	points, err := FigureSweep("fig9", pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7*2 {
		t.Fatalf("restricted fig9 expanded to %d points, want 14", len(points))
	}
}

func TestFigureSweepUnknownName(t *testing.T) {
	_, err := FigureSweep("fig99", nil)
	if err == nil {
		t.Fatal("unknown sweep accepted")
	}
	if !strings.Contains(err.Error(), "unknown sweep") {
		t.Fatalf("error %q should name the problem", err)
	}
	for _, name := range SweepNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q should list sweep %s", err, name)
		}
	}
}

func TestSweepNamesAllExpand(t *testing.T) {
	for _, name := range SweepNames() {
		if _, err := FigureSweep(name, traffic.TestPairs()[:1]); err != nil {
			t.Fatalf("listed sweep %s does not expand: %v", name, err)
		}
	}
}

// sweepSpecs gives every point the run lengths and seed 2018.
func sweepSpecs(points []Point, warmup, measure int) []Spec {
	specs := make([]Spec, len(points))
	for i, p := range points {
		p.Config.WarmupCycles, p.Config.MeasureCycles = warmup, measure
		specs[i] = Spec{Point: p, Seed: 2018}
	}
	return specs
}

func TestRunSweepDeterministic(t *testing.T) {
	points, err := FigureSweep("fig4", traffic.TestPairs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepSpecs(points, 200, 2000)
	first, err := RunSweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(points) || len(second) != len(points) {
		t.Fatalf("result counts %d/%d, want %d", len(first), len(second), len(points))
	}
	for i := range first {
		if first[i].Pair.Name() != points[i].Pair.Name() {
			t.Fatalf("result %d out of point order", i)
		}
		a, b := first[i].Metrics.ThroughputBitsPerCycle(), second[i].Metrics.ThroughputBitsPerCycle()
		if a != b {
			t.Fatalf("point %d throughput drifted across runs: %v vs %v", i, a, b)
		}
		if first[i].Retired != second[i].Retired {
			t.Fatalf("point %d retired count drifted: %d vs %d", i, first[i].Retired, second[i].Retired)
		}
	}
}

func TestRunSweepHonoursCancellation(t *testing.T) {
	points, err := FigureSweep("fig4", traffic.TestPairs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, sweepSpecs(points, 200, 5_000_000)); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
