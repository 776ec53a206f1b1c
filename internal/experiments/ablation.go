package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mlkit"
	"repro/internal/photonic"
	"repro/internal/sim"
)

// Ablations cover the design choices the paper reports evaluating but
// does not plot: the bandwidth-allocation step size (§III.B: 25% beat
// 6.25% and 12.5%), the brute-forced DBA occupancy bounds, the
// power-threshold balance (§III.C: "can be changed to favor either
// throughput or power"), the reservation-window sweep (§IV: "running the
// ML and dynamic power scaling model over several window sizes
// (100-2000)"), the feature-subset experiment (§IV.B: fewer features
// helped neither power nor throughput), and the label choice (§IV.A:
// packets injected beats buffer utilisation because utilisation is
// confounded by the current wavelength state).

// labelled is a photonic configuration under a table row's label.
func labelled(label string, cfg config.Config) Point {
	p := pearlPoint(cfg)
	p.Label = label
	return p
}

// AblationBandwidthStep sweeps the Algorithm 1 allocation granularity.
func (s *Suite) AblationBandwidthStep() (Table, error) {
	t := Table{
		Title:   "Ablation: DBA bandwidth step (minor-class share)",
		Columns: []string{"throughput", "CPU p99 lat"},
		Notes:   "paper §III.B: 25% allocation steps performed best among {6.25%, 12.5%, 25%}",
	}
	var cfgs []Point
	for _, step := range []float64{0.0625, 0.125, 0.25} {
		cfg := config.PEARLDyn()
		cfg.BandwidthStep = step
		cfgs = append(cfgs, labelled(fmt.Sprintf("step %.2f%%", step*100), cfg))
	}
	return s.meanRows(t, cfgs, throughput, func(r Summary) float64 { return r.CPUP99LatencyCycles })
}

// AblationDBABounds sweeps the brute-forced occupancy upper bounds around
// the paper's optimum (CPU 16%, GPU 6%).
func (s *Suite) AblationDBABounds() (Table, error) {
	t := Table{
		Title:   "Ablation: DBA occupancy upper bounds",
		Columns: []string{"throughput", "CPU lat", "GPU lat"},
		Notes:   "paper §III.B: brute force found CPU 16% / GPU 6% optimal on a separate benchmark set",
	}
	var cfgs []Point
	for _, pt := range []struct{ cpu, gpu float64 }{
		{0.04, 0.06}, {0.16, 0.06}, {0.48, 0.06},
		{0.16, 0.02}, {0.16, 0.18},
	} {
		cfg := config.PEARLDyn()
		cfg.CPUUpperBound, cfg.GPUUpperBound = pt.cpu, pt.gpu
		cfgs = append(cfgs, labelled(fmt.Sprintf("CPU %.0f%% / GPU %.0f%%", pt.cpu*100, pt.gpu*100), cfg))
	}
	return s.meanRows(t, cfgs, throughput,
		func(r Summary) float64 { return r.CPULatencyCycles },
		func(r Summary) float64 { return r.GPULatencyCycles })
}

// AblationThresholds scales the reactive power thresholds to favour
// throughput (lower thresholds, higher states) or power (higher
// thresholds, lower states).
func (s *Suite) AblationThresholds() (Table, error) {
	t := Table{
		Title:   "Ablation: reactive power-scaling thresholds (Dyn RW500)",
		Columns: []string{"throughput", "laser W"},
		Notes:   "paper §III.C: thresholds balance throughput and power and can be shifted either way",
	}
	base := config.DefaultThresholds()
	var cfgs []Point
	for _, scale := range []float64{0.25, 0.5, 1, 2, 4} {
		cfg := config.DynRW(500)
		cfg.Thresholds = config.PowerThresholds{
			Lower:    base.Lower * scale,
			MidLower: base.MidLower * scale,
			MidUpper: base.MidUpper * scale,
			Upper:    clamp01(base.Upper * scale),
		}
		if cfg.Thresholds.MidUpper >= cfg.Thresholds.Upper {
			cfg.Thresholds.MidUpper = cfg.Thresholds.Upper * 0.75
			cfg.Thresholds.MidLower = cfg.Thresholds.Upper * 0.4
			cfg.Thresholds.Lower = cfg.Thresholds.Upper * 0.1
		}
		cfgs = append(cfgs, labelled(fmt.Sprintf("thresholds x%.2f", scale), cfg))
	}
	return s.meanRows(t, cfgs, throughput, laserW)
}

func clamp01(v float64) float64 {
	if v > 0.95 {
		return 0.95
	}
	return v
}

// AblationWindowSweep reproduces the paper's 100-2000 reservation-window
// exploration for the reactive technique.
func (s *Suite) AblationWindowSweep() (Table, error) {
	t := Table{
		Title:   "Ablation: reactive reservation-window sweep",
		Columns: []string{"throughput", "laser W"},
		Notes:   "paper §IV: windows 100-2000 were explored; 500 and 2000 picked for the headline results",
	}
	var cfgs []Point
	for _, window := range []int{100, 250, 500, 1000, 2000} {
		cfgs = append(cfgs, labelled(fmt.Sprintf("RW%d", window), config.DynRW(window)))
	}
	return s.meanRows(t, cfgs, throughput, laserW)
}

// AblationFeatureSubset trains on reduced Table III feature sets and
// compares validation quality — the paper's "we experimented with lesser
// features... results neither improved the power nor throughput".
func (s *Suite) AblationFeatureSubset() (Table, error) {
	t := Table{
		Title:   "Ablation: feature subsets (RW500 validation score)",
		Columns: []string{"features", "val score"},
		Notes:   "paper §IV.B kept all 30 features; subsets did not help",
	}
	randomPolicy := core.RandomPolicy{RNG: sim.NewRNG(s.Opts.Seed ^ 0xab1a)}
	train, err := CollectDataset(s.Opts.TrainPairs, 500, s.Opts, randomPolicy)
	if err != nil {
		return Table{}, err
	}
	val, err := CollectDataset(s.Opts.ValPairs, 500, s.Opts, randomPolicy)
	if err != nil {
		return Table{}, err
	}
	subsets := []struct {
		name string
		cols []int
	}{
		{"all 30", allColumns()},
		{"buffers only (2-5)", []int{
			features.FeatCPUCoreBufUtil, features.FeatCPUNetBufUtil,
			features.FeatGPUCoreBufUtil, features.FeatGPUNetBufUtil,
		}},
		{"counts only (7-13)", []int{
			features.FeatPktsToCore, features.FeatInFromRouters, features.FeatInFromCores,
			features.FeatRequestsSent, features.FeatRequestsRecv,
			features.FeatResponsesSent, features.FeatResponsesRecv,
		}},
		{"no per-source (1-13,30)", firstNPlusWL(13)},
	}
	for _, sub := range subsets {
		_, _, score, err := mlkit.TuneLambda(train.Select(sub.cols), val.Select(sub.cols), mlkit.DefaultLambdas())
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  sub.name,
			Values: []float64{float64(len(sub.cols)), score},
		})
	}
	return t, nil
}

func allColumns() []int {
	cols := make([]int, features.Count)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func firstNPlusWL(n int) []int {
	cols := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		cols = append(cols, i)
	}
	return append(cols, features.FeatWavelengths)
}

// AblationLabelChoice compares the paper's label (packets injected next
// window) against the rejected alternative (next-window buffer
// utilisation, which is confounded by the current wavelength state —
// §IV.A's argument). Both models deploy through their natural state
// mapping and are judged on throughput and power.
func (s *Suite) AblationLabelChoice() (Table, error) {
	t := Table{
		Title:   "Ablation: ML label choice (RW500 deployment)",
		Columns: []string{"throughput", "laser W"},
		Notes:   "paper §IV.A: predicting injections decouples the label from the wavelength state; utilisation does not",
	}
	// Packets-injected label: the standard pipeline. Buffer-utilisation
	// label: collect (features, next-window beta), fit, deploy through
	// the reactive threshold ladder.
	betaModel, err := trainBetaModel(s.Opts)
	if err != nil {
		return Table{}, err
	}
	cfg := config.MLRW(500, true)
	rejected := labelled("buffer utilisation (rejected)", cfg)
	rejected.Controller = fixedPolicy{betaStatePolicy{model: betaModel, thresholds: cfg.Thresholds, allow8: cfg.Allow8WL}}
	return s.meanRows(t, []Point{labelled("packets injected (paper)", cfg), rejected}, throughput, laserW)
}

// betaStatePolicy maps a predicted next-window occupancy through the
// Algorithm 1 threshold ladder.
type betaStatePolicy struct {
	model      *mlkit.Ridge
	thresholds config.PowerThresholds
	allow8     bool
}

func (p betaStatePolicy) NextState(w core.WindowInfo) photonic.WLState {
	pred := p.model.Predict(w.Features)
	return core.StateForOccupancy(pred, p.thresholds, p.allow8)
}

// trainBetaModel fits a ridge on (features, next-window mean occupancy).
func trainBetaModel(opts Options) (*mlkit.Ridge, error) {
	randomPolicy := core.RandomPolicy{RNG: sim.NewRNG(opts.Seed ^ 0x1560)}
	occupancy := func(_ int64, beta float64) float64 { return beta }
	ds := mlkit.NewDataset(core.FeatureCount)
	for i, pair := range opts.TrainPairs {
		if err := collectExamples(ds, pair, 500, opts, randomPolicy, opts.Seed+uint64(i)*104729, occupancy); err != nil {
			return nil, err
		}
	}
	x, y := ds.Design()
	m := &mlkit.Ridge{Lambda: 1}
	if err := m.Fit(x, y); err != nil {
		return nil, err
	}
	return m, nil
}
