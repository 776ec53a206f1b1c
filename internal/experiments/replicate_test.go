package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
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

// checkOnePath asserts that the single-run and replicated entry points
// are one path. For every seed of the point's n-seed fan, Run, RunSeeds
// with that one seed, and element i of the n-seed lockstep run must
// agree by reflect.DeepEqual over the whole Result — with and without an
// OnWindow hook, which must not change any result and must see the same
// frames from a single run as from replica 0 of the fan.
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
		// Calls were: the fan (observing replica 0), then Run and RunSeeds
		// per seed; the first three all ran seeds[0].
		if len(frames[0]) == 0 {
			t.Fatal("the hook saw no windows")
		}
		if !reflect.DeepEqual(frames[1], frames[0]) || !reflect.DeepEqual(frames[2], frames[0]) {
			t.Error("Run, one-seed RunSeeds and replica 0 of the fan streamed different windows")
		}
	}
}

func TestReplicatedMatchesSequentialPEARL(t *testing.T) {
	pair := traffic.TestPairs()[0]
	for _, tc := range []struct {
		name string
		cfg  config.Config
		n    int
	}{
		{"static N=3", config.PEARLDyn(), 3},
		{"static N=1", config.PEARLDyn(), 1},
		{"reactive N=3", config.DynRW(500), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkOnePath(t, Point{Backend: BackendPEARL, Config: tc.cfg, Pair: pair}, tc.n)
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

	// One lane steps every replica inline; four lanes use the worker pool.
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
		t.Fatal("cancelled context should abort the replicated run")
	}
}

// stubController is a hand-built controller for gate tests: the
// capability declaration, not the policy it mints, is what CanReplicate
// judges.
type stubController struct {
	name string
	caps controller.Capabilities
	mint func(seed uint64) (core.StatePolicy, error)
}

func (c stubController) Name() string                          { return c.name }
func (c stubController) Capabilities() controller.Capabilities { return c.caps }
func (c stubController) Policy(seed uint64) (core.StatePolicy, error) {
	return c.mint(seed)
}

func TestCanReplicate(t *testing.T) {
	flat := core.PredictorFunc(func([]float64) float64 { return 1 })
	ml := config.MLRW(500, true)
	safe := stubController{
		name: "stub-safe",
		caps: controller.Capabilities{ReplicaSafe: true, NeedsModel: true},
		mint: func(uint64) (core.StatePolicy, error) {
			return core.MLPolicy{Model: flat, Allow8WL: true}, nil
		},
	}
	unsafe := safe
	unsafe.name = "stub-unsafe"
	unsafe.caps.ReplicaSafe = false

	pair := traffic.TestPairs()[0]
	if err := CanReplicate(Point{Config: config.PEARLDyn(), Pair: pair}); err != nil {
		t.Errorf("static config's registered controller should replicate: %v", err)
	}
	if err := CanReplicate(Point{Backend: BackendCMESH, Config: config.Default(), Pair: pair}); err != nil {
		t.Errorf("the electrical baseline always replicates: %v", err)
	}
	if err := CanReplicate(Point{Config: ml, Pair: pair}); err == nil {
		t.Error("ML config without a model artifact must not replicate (controller construction fails)")
	}
	if err := CanReplicate(Point{Config: ml, Pair: pair, Controller: unsafe}); err == nil {
		t.Error("controller declaring ReplicaSafe=false must not replicate")
	}
	if err := CanReplicate(Point{Config: ml, Pair: pair, Controller: safe}); err != nil {
		t.Errorf("replica-safe controller rejected: %v", err)
	}
	// The replica-safe controller must drive a real replicated ML run end
	// to end.
	ctx := context.Background()
	opts := tiny()
	opts.MeasureCycles = 2000
	if _, err := RunSeeds(ctx, Point{Config: ml, Pair: pair, Controller: safe}, opts, []uint64{opts.Seed, opts.Seed + 1}); err != nil {
		t.Errorf("replicated ML run with safe controller: %v", err)
	}

	// The gate guards replication only. A controller that is not
	// replica-safe (an online learner) runs as a single seed through Run
	// and through the one-seed lockstep engine, and is refused two.
	online, err := config.ByName("online-rw500")
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Config: online, Pair: pair}
	if err := CanReplicate(p); err == nil {
		t.Fatal("online-rw500 must not be replica-safe")
	}
	res, err := Run(ctx, p, opts)
	if err != nil {
		t.Fatalf("a single run needs no replica-safe controller: %v", err)
	}
	if res.Metrics.Delivered.TotalPackets() == 0 {
		t.Error("online-rw500 single run delivered nothing")
	}
	if _, err := RunSeeds(ctx, p, opts, []uint64{opts.Seed}); err != nil {
		t.Errorf("one seed needs no replica-safe controller: %v", err)
	}
	if _, err := RunSeeds(ctx, p, opts, []uint64{opts.Seed, opts.Seed + 1}); err == nil {
		t.Error("two seeds under a controller that is not replica-safe must be refused")
	}
	if _, err := RunSeeds(ctx, p, opts, nil); err == nil {
		t.Error("a run with no seeds must be refused")
	}
}
