package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/traffic"
)

// pearlPoint and cmeshPoint are a sweep's configurations before pairs
// are crossed in: Points with no Pair yet.
func pearlPoint(cfg config.Config) Point {
	return Point{Label: cfg.Name(), Backend: BackendPEARL, Config: cfg, LinkScale: 1}
}

func cmeshPoint(scale int) Point {
	return Point{Label: CMESHName(scale), Backend: BackendCMESH, Config: config.Default(), LinkScale: scale}
}

// sweepConfigs maps a sweep name to the configurations the paper's
// figure compares, ML-power points included (the paper's headline
// comparison). An ML point needs a trained model at run time: pearld
// resolves its model registry and skips unsatisfiable points with a
// per-point status; pearlbench loads artifacts via -model.
func sweepConfigs(name string) ([]Point, error) {
	switch strings.ToLower(name) {
	case "fig4":
		return []Point{pearlPoint(config.PEARLDyn())}, nil
	case "fig5":
		var out []Point
		for _, pt := range []struct{ wl, scale int }{{64, 1}, {32, 2}, {16, 4}} {
			out = append(out, pearlPoint(config.StaticWL(pt.wl)))
			fcfs := config.StaticWL(pt.wl)
			fcfs.Bandwidth = config.PolicyFCFS
			out = append(out, pearlPoint(fcfs))
			out = append(out, cmeshPoint(pt.scale))
		}
		return out, nil
	case "fig6", "fig7":
		return []Point{
			pearlPoint(config.PEARLDyn()),
			pearlPoint(config.DynRW(500)),
			pearlPoint(config.DynRW(2000)),
			pearlPoint(config.MLRW(500, true)),
			pearlPoint(config.MLRW(500, false)),
			pearlPoint(config.MLRW(2000, true)),
			// Related-work comparison series: rule-based loss-aware
			// co-management and data-driven EWMA reconfiguration.
			pearlPoint(config.ProteusRW(500)),
			pearlPoint(config.D3NOCRW(500)),
		}, nil
	case "fig8":
		return []Point{
			pearlPoint(config.MLRW(500, true)),
			pearlPoint(config.MLRW(2000, true)),
		}, nil
	case "fig9":
		noLow := config.DynRW(500)
		noLow.Allow8WL = false
		return []Point{
			pearlPoint(config.PEARLDyn()),
			pearlPoint(config.PEARLFCFS()),
			pearlPoint(noLow),
			pearlPoint(config.MLRW(500, false)),
			pearlPoint(config.ProteusRW(500)),
			pearlPoint(config.D3NOCRW(500)),
			cmeshPoint(1),
		}, nil
	case "fig10":
		return []Point{
			pearlPoint(config.PEARLDyn()),
			pearlPoint(config.MLRW(500, true)),
			pearlPoint(config.MLRW(1000, true)),
			pearlPoint(config.MLRW(2000, true)),
		}, nil
	case "fig11":
		var out []Point
		for _, window := range []int{500, 2000} {
			for _, turnOn := range []float64{2, 4, 16, 32} {
				cfg := config.DynRW(window)
				cfg.LaserTurnOnNs = turnOn
				pt := pearlPoint(cfg)
				pt.Label = fmt.Sprintf("%s @ %gns", cfg.Name(), turnOn)
				out = append(out, pt)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("experiments: unknown sweep %q (known: %s)",
			name, strings.Join(SweepNames(), ", "))
	}
}

// SweepNames lists the named figure sweeps in sorted order.
func SweepNames() []string {
	names := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	sort.Strings(names)
	return names
}

// FigureSweep expands a named figure sweep into its constituent
// points over the given pairs (nil or empty means the paper's 16 test
// pairs). Points are ordered configuration-major, matching the
// figures' row order.
func FigureSweep(name string, pairs []traffic.Pair) ([]Point, error) {
	cfgs, err := sweepConfigs(name)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		pairs = traffic.TestPairs()
	}
	return cross(cfgs, pairs), nil
}

// cross runs every configuration over every pair: one Point per
// (configuration, pair), configuration-major, pair-minor.
func cross(cfgs []Point, pairs []traffic.Pair) []Point {
	points := make([]Point, 0, len(cfgs)*len(pairs))
	for _, p := range cfgs {
		for _, pair := range pairs {
			p.Pair = pair
			points = append(points, p)
		}
	}
	return points
}

// RunSweep evaluates every spec (in parallel, deterministically per
// spec) and returns results in spec order. Each spec runs its Point
// with its own Options, exactly as pearld's worker runs the equivalent
// job.
func RunSweep(ctx context.Context, specs []Spec) ([]Result, error) {
	return parallelMapCtx(ctx, len(specs), func(ctx context.Context, i int) (Result, error) {
		return Run(ctx, specs[i].Point, specs[i].Options())
	})
}
