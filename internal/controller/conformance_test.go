package controller_test

// Conformance battery: every registered controller — current and
// future — must honour the contract the rest of the stack builds on.
// Three properties are load-bearing:
//
//  1. Determinism: the same (config, pair, seed) produces bit-identical
//     results regardless of GOMAXPROCS. pearld's content-addressed
//     result cache assumes it.
//  2. Independent runs: every Policy call mints its own instance, so
//     the concurrent runs of a seed fan (experiments.RunSeeds) equal
//     the same seeds run one at a time.
//  3. Steady-state allocation discipline: non-learning controllers
//     decide every reservation window on the hot path; their policies
//     must not allocate per decision.

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlkit"
	"repro/internal/models"
	"repro/internal/photonic"
	"repro/internal/traffic"
)

// cfgFor returns a representative configuration for a registered power
// policy (reservation window 500 where one applies).
func cfgFor(t *testing.T, p config.PowerPolicy) config.Config {
	t.Helper()
	switch p {
	case config.PowerStatic:
		return config.PEARLDyn()
	case config.PowerReactive:
		return config.DynRW(500)
	case config.PowerML:
		return config.MLRW(500, true)
	case config.PowerProteus:
		return config.ProteusRW(500)
	case config.PowerD3NOC:
		return config.D3NOCRW(500)
	case config.PowerOnline:
		return config.OnlineRW(500)
	case config.PowerRL:
		return config.RLRW(500)
	}
	t.Fatalf("no representative config for power policy %v — extend cfgFor", p)
	return config.Config{}
}

// tinyArtifact builds a minimal valid model artifact for model-needing
// controllers: identity scaler, one meaningful weight.
func tinyArtifact(t *testing.T, window int) *models.Artifact {
	t.Helper()
	params := mlkit.RidgeParams{
		Mean:    make([]float64, core.FeatureCount),
		Std:     make([]float64, core.FeatureCount),
		Weights: make([]float64, core.FeatureCount),
		Bias:    1,
	}
	for i := range params.Std {
		params.Std[i] = 1
	}
	params.Weights[8] = 0.5 // inFromCores
	art, err := models.New(window, 0.1, 0, params, models.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// build constructs the spec's controller for its representative config.
func build(t *testing.T, spec controller.Spec) (config.Config, controller.Controller) {
	t.Helper()
	cfg := cfgFor(t, spec.Power)
	var art *models.Artifact
	if spec.Caps.NeedsModel {
		art = tinyArtifact(t, cfg.ReservationWindow)
	}
	ctrl, err := controller.New(cfg, art)
	if err != nil {
		t.Fatalf("building %s: %v", spec.Name, err)
	}
	return cfg, ctrl
}

func TestRegistryRoundTrips(t *testing.T) {
	names := controller.Names()
	if len(names) == 0 {
		t.Fatal("no controllers registered")
	}
	for _, name := range names {
		spec, ok := controller.Lookup(name)
		if !ok {
			t.Fatalf("Names lists %q but Lookup misses it", name)
		}
		if spec.Name != name {
			t.Fatalf("Lookup(%q) returned spec named %q", name, spec.Name)
		}
		byPower, ok := controller.ForPower(spec.Power)
		if !ok || byPower.Name != name {
			t.Fatalf("ForPower(%v) = (%q, %v), want %q", spec.Power, byPower.Name, ok, name)
		}
		if spec.Description == "" {
			t.Errorf("%s has no description", name)
		}
		_, ctrl := build(t, spec)
		if ctrl.Name() != name {
			t.Fatalf("controller built from %q names itself %q", name, ctrl.Name())
		}
		if ctrl.Capabilities() != spec.Caps {
			t.Fatalf("%s: constructed capabilities %+v diverge from spec %+v", name, ctrl.Capabilities(), spec.Caps)
		}
	}
}

// TestControllerDeterminismAcrossGOMAXPROCS runs every registered
// controller on the same (config, pair, seed) under GOMAXPROCS 1 and 4
// and demands bit-identical results — the property pearld's
// content-addressed cache keys assume. The GOMAXPROCS toggle is global
// process state, so the subtests run serially.
func TestControllerDeterminismAcrossGOMAXPROCS(t *testing.T) {
	pair := traffic.TestPairs()[0]
	opts := experiments.Options{Seed: 2018, WarmupCycles: 200, MeasureCycles: 2000}
	for _, spec := range controller.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg, ctrl := build(t, spec)
			prev := runtime.GOMAXPROCS(1)
			p := experiments.Point{Config: cfg, Pair: pair, Controller: ctrl}
			a, errA := experiments.Run(context.Background(), p, opts)
			runtime.GOMAXPROCS(4)
			b, errB := experiments.Run(context.Background(), p, opts)
			runtime.GOMAXPROCS(prev)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if a.Metrics.Delivered.TotalBits() != b.Metrics.Delivered.TotalBits() ||
				a.Metrics.Latency.Mean() != b.Metrics.Latency.Mean() ||
				a.Account.AverageLaserPowerW() != b.Account.AverageLaserPowerW() ||
				a.Retired != b.Retired {
				t.Fatalf("%s not deterministic: bits %d/%d laser %v/%v",
					spec.Name, a.Metrics.Delivered.TotalBits(), b.Metrics.Delivered.TotalBits(),
					a.Account.AverageLaserPowerW(), b.Account.AverageLaserPowerW())
			}
		})
	}
}

// TestSeedFanMatchesSequentialRuns runs each registered controller's
// three-seed fan and then each seed alone. The fan's runs share one
// controller and call Policy concurrently, so a controller that hands
// two runs one stateful instance shows up as a mismatch here, or as a
// data race under -race.
func TestSeedFanMatchesSequentialRuns(t *testing.T) {
	pair := traffic.TestPairs()[0]
	opts := experiments.Options{Seed: 2018, WarmupCycles: 200, MeasureCycles: 2000}
	ctx := context.Background()
	for _, spec := range controller.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			cfg, ctrl := build(t, spec)
			p := experiments.Point{Config: cfg, Pair: pair, Controller: ctrl}
			seeds := experiments.ReplicaSeeds(opts.Seed, p.Name(), pair.Name(), 3)
			fan, err := experiments.RunSeeds(ctx, p, opts, seeds)
			if err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				o := opts
				o.Seed = seed
				one, err := experiments.Run(ctx, p, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(one, fan[i]) {
					t.Errorf("seed %d: the fan's run differs from a standalone run", i)
				}
			}
		})
	}
}

// TestNonLearningControllersSteadyStateZeroAlloc demands that policies
// of non-learning controllers decide windows without allocating: the
// decision runs once per router per reservation window on the
// simulation hot path.
func TestNonLearningControllersSteadyStateZeroAlloc(t *testing.T) {
	feats := make([]float64, core.FeatureCount)
	feats[8] = 40
	w := core.WindowInfo{
		RouterID:       3,
		Features:       feats,
		BetaTotal:      0.4,
		MeanPacketBits: config.FlitBits,
		InjectedFlits:  40,
		WindowCycles:   500,
		Current:        photonic.WL64,
	}
	for _, spec := range controller.Specs() {
		if spec.Caps.OnlineLearning {
			continue // learning policies may allocate while adapting
		}
		_, ctrl := build(t, spec)
		pol, err := ctrl.Policy(1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Prime any lazily-initialised state (hold counters, EWMAs).
		for i := 0; i < 8; i++ {
			w.Current = pol.NextState(w)
		}
		if avg := testing.AllocsPerRun(100, func() { pol.NextState(w) }); avg != 0 {
			t.Errorf("%s allocates %.1f times per steady-state decision, want 0", spec.Name, avg)
		}
	}
}
