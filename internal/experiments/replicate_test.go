package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mlkit"
	"repro/internal/models"
	"repro/internal/traffic"
)

func TestReplicaSeedSchema(t *testing.T) {
	const base = 2018
	cfg := config.PEARLDyn()
	pair := traffic.TestPairs()[0]

	if got := ReplicaSeed(base, cfg.Name(), pair.Name(), 0); got != base {
		t.Fatalf("replica 0 seed = %d, want base %d unchanged", got, base)
	}
	// Unlike runSeed (which drops the config name so configurations stay
	// paired on a workload), the replica fan folds the config name in:
	// two configs on the same pair must NOT share derived seeds.
	a := ReplicaSeed(base, config.PEARLDyn().Name(), pair.Name(), 1)
	b := ReplicaSeed(base, config.PEARLFCFS().Name(), pair.Name(), 1)
	if a == b {
		t.Fatalf("config name not folded into derivation: %d == %d", a, b)
	}
	// Different pairs, indices, and bases all produce distinct seeds.
	if a == ReplicaSeed(base, cfg.Name(), traffic.TestPairs()[1].Name(), 1) {
		t.Fatal("pair name not folded into derivation")
	}
	if a == ReplicaSeed(base, cfg.Name(), pair.Name(), 2) {
		t.Fatal("replica index not folded into derivation")
	}
	if a == ReplicaSeed(base+1, cfg.Name(), pair.Name(), 1) {
		t.Fatal("base seed not folded into derivation")
	}
	seeds := ReplicaSeeds(base, cfg.Name(), pair.Name(), 4)
	if len(seeds) != 4 || seeds[0] != base {
		t.Fatalf("ReplicaSeeds = %v, want 4 seeds starting at base", seeds)
	}
	for i, s := range seeds {
		if s == 0 {
			t.Fatalf("seed %d is zero (reserved as default sentinel)", i)
		}
		if s != ReplicaSeed(base, cfg.Name(), pair.Name(), i) {
			t.Fatalf("ReplicaSeeds[%d] disagrees with ReplicaSeed", i)
		}
	}
}

// sameResult asserts bit-identity across every scalar a Result exposes.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Name != want.Name || got.Pair.Name() != want.Pair.Name() {
		t.Fatalf("%s: identity mismatch: (%s,%s) vs (%s,%s)",
			label, got.Name, got.Pair.Name(), want.Name, want.Pair.Name())
	}
	if got.Metrics.Delivered.TotalBits() != want.Metrics.Delivered.TotalBits() {
		t.Errorf("%s: TotalBits %d != %d", label, got.Metrics.Delivered.TotalBits(), want.Metrics.Delivered.TotalBits())
	}
	if got.Metrics.Latency.Mean() != want.Metrics.Latency.Mean() {
		t.Errorf("%s: latency %v != %v", label, got.Metrics.Latency.Mean(), want.Metrics.Latency.Mean())
	}
	if got.Account.AverageLaserPowerW() != want.Account.AverageLaserPowerW() {
		t.Errorf("%s: laser %v != %v", label, got.Account.AverageLaserPowerW(), want.Account.AverageLaserPowerW())
	}
	if got.InjectedCPUShare != want.InjectedCPUShare {
		t.Errorf("%s: CPU share %v != %v", label, got.InjectedCPUShare, want.InjectedCPUShare)
	}
	if got.Retired != want.Retired {
		t.Errorf("%s: retired %d != %d", label, got.Retired, want.Retired)
	}
	if got.TurnOnStalls != want.TurnOnStalls {
		t.Errorf("%s: turn-on stalls %d != %d", label, got.TurnOnStalls, want.TurnOnStalls)
	}
}

// checkOnePath asserts that the single-run and seed-fan entry points
// are one path. For every seed of the point's n-seed fan, Run, RunSeeds
// with that one seed, and element i of the n-seed RunSeeds must agree
// by reflect.DeepEqual over the whole Result — with and without an
// OnWindow hook, which must not change any result and must see the same
// frames from a single run as from seed 0 of the fan.
func checkOnePath(t *testing.T, p Point, n int) {
	t.Helper()
	ctx := context.Background()
	opts := tiny()
	opts.WarmupCycles, opts.MeasureCycles = 500, 2750 // a partial trailing window
	seeds := ReplicaSeeds(opts.Seed, p.Name(), p.Pair.Name(), n)

	var bare []Result
	for _, hooked := range []bool{false, true} {
		// frames[k] is what the hook saw during the k-th call below.
		var frames [][]WindowStats
		withHook := func(seed uint64) Options {
			o := opts
			o.Seed = seed
			if hooked {
				frames = append(frames, nil)
				k := len(frames) - 1
				o.OnWindow = func(ws WindowStats) { frames[k] = append(frames[k], ws) }
			}
			return o
		}
		fan, err := RunSeeds(ctx, p, withHook(seeds[0]), seeds)
		if err != nil {
			t.Fatal(err)
		}
		if len(fan) != n {
			t.Fatalf("got %d results, want %d", len(fan), n)
		}
		for i, seed := range seeds {
			single, err := Run(ctx, p, withHook(seed))
			if err != nil {
				t.Fatal(err)
			}
			one, err := RunSeeds(ctx, p, withHook(seed), []uint64{seed})
			if err != nil {
				t.Fatal(err)
			}
			if single.Name != p.Name() || single.Metrics.Delivered.TotalPackets() == 0 {
				t.Fatalf("seed %d: empty or misnamed result %q", i, single.Name)
			}
			if !reflect.DeepEqual(single, fan[i]) {
				t.Errorf("hooked=%v: Run(seed %d) differs from element %d of the %d-seed run", hooked, i, i, n)
			}
			if len(one) != 1 || !reflect.DeepEqual(one[0], single) {
				t.Errorf("hooked=%v: RunSeeds with the one seed %d differs from Run", hooked, i)
			}
		}
		if !hooked {
			bare = fan
			continue
		}
		if !reflect.DeepEqual(fan, bare) {
			t.Error("an OnWindow hook changed the results")
		}
		// Calls were: the fan (observing seed 0), then Run and RunSeeds
		// per seed; the first three all ran seeds[0].
		if len(frames[0]) == 0 {
			t.Fatal("the hook saw no windows")
		}
		if !reflect.DeepEqual(frames[1], frames[0]) || !reflect.DeepEqual(frames[2], frames[0]) {
			t.Error("Run, one-seed RunSeeds and seed 0 of the fan streamed different windows")
		}
	}
}

// mlController is the registered ml controller over a one-weight model
// artifact (identity scaler, inFromCores weighted).
func mlController(t *testing.T, cfg config.Config) controller.Controller {
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
	params.Weights[8] = 0.5
	art, err := models.New(cfg.ReservationWindow, 0.1, 0, params, models.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(cfg, art)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestReplicatedMatchesSequentialPEARL(t *testing.T) {
	pair := traffic.TestPairs()[0]
	ml := config.MLRW(500, true)
	online, err := config.ByName("online-rw500")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  config.Config
		ctrl controller.Controller
		n    int
	}{
		{"static N=3", config.PEARLDyn(), nil, 3},
		{"static N=1", config.PEARLDyn(), nil, 1},
		{"reactive N=3", config.DynRW(500), nil, 3},
		// Every registered controller mints a fresh policy per Policy
		// call, so learners fan out like the rest.
		{"ml N=4", ml, mlController(t, ml), 4},
		{"online N=3", online, nil, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkOnePath(t, Point{Backend: BackendPEARL, Config: tc.cfg, Pair: pair, Controller: tc.ctrl}, tc.n)
		})
	}
}

func TestReplicatedMatchesSequentialCMESH(t *testing.T) {
	pair := traffic.TestPairs()[1]
	for _, tc := range []struct {
		name         string
		linkScale, n int
	}{
		{"N=3", 1, 3},
		{"N=1", 1, 1},
		{"linkScale 2 N=3", 2, 3},
		{"linkScale 2 N=1", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Point{Backend: BackendCMESH, Config: config.Default(), LinkScale: tc.linkScale, Pair: pair}
			if want := CMESHName(tc.linkScale); p.Name() != want {
				t.Fatalf("Name() = %q, want %q", p.Name(), want)
			}
			checkOnePath(t, p, tc.n)
		})
	}
}

func TestReplicatedGOMAXPROCSInvariance(t *testing.T) {
	p := Point{Config: config.DynRW(500), Pair: traffic.TestPairs()[0]}
	opts := tiny()
	opts.MeasureCycles = 3000
	seeds := ReplicaSeeds(opts.Seed, p.Name(), p.Pair.Name(), 4)

	// One goroutine runs every seed in turn; four run them side by side.
	prev := runtime.GOMAXPROCS(1)
	one, err1 := RunSeeds(context.Background(), p, opts, seeds)
	runtime.GOMAXPROCS(4)
	four, err4 := RunSeeds(context.Background(), p, opts, seeds)
	runtime.GOMAXPROCS(prev)
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	for i := range one {
		sameResult(t, "procs", one[i], four[i])
	}
}

func TestReplicatedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Point{Config: config.PEARLDyn(), Pair: traffic.TestPairs()[0]}
	if _, err := RunSeeds(ctx, p, tiny(), []uint64{1, 2}); err == nil {
		t.Fatal("cancelled context should abort the seed fan")
	}
}
