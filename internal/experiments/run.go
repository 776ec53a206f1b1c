// Package experiments reproduces every table and figure from the paper's
// evaluation (§IV): the Figure 5 energy-per-bit sweep, the Figure 6/7
// throughput and laser-power comparison of the power-scaling
// architectures, the Figure 8 wavelength-state residency breakdown, the
// Figure 9/10 throughput comparisons, the Figure 11 laser turn-on
// sensitivity study, the Figure 4 workload characterisation, and the
// §IV.C NRMSE prediction-quality numbers. It also hosts the two-pass ML
// training pipeline of §IV.A.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Options bound the cost and fidelity of an experiment run.
type Options struct {
	// Seed drives all randomness; identical options produce identical
	// results. 0 means the paper seed 2018, as in Spec.
	Seed uint64
	// WarmupCycles run before measurement starts.
	WarmupCycles int64
	// MeasureCycles are recorded.
	MeasureCycles int64
	// Pairs are the benchmark pairs figures report on (the paper's 16
	// test pairs by default).
	Pairs []traffic.Pair
	// TrainPairs and ValPairs feed the ML pipeline.
	TrainPairs, ValPairs []traffic.Pair
	// CollectCycles is the per-pair length of each data-collection pass.
	CollectCycles int64
	// OnWindow, when non-nil, receives one WindowStats per reservation
	// window of the measurement phase as the run executes (plus a final
	// partial window when MeasureCycles is not a multiple of the
	// window). The hook runs on the simulation goroutine between cycles:
	// it must not block, and it must not touch the engine. Leaving it
	// nil keeps the run byte-identical to one without observation.
	OnWindow func(WindowStats)
}

// Full returns the paper-faithful option set: all 16 test pairs, all 36
// training pairs, 60k measured cycles.
func Full() Options {
	return Options{
		Seed:          2018,
		WarmupCycles:  2000,
		MeasureCycles: 60000,
		Pairs:         traffic.TestPairs(),
		TrainPairs:    traffic.TrainingPairs(),
		ValPairs:      traffic.ValidationPairs(),
		CollectCycles: 40000,
	}
}

// Quick returns a reduced option set for tests and smoke runs: 4 test
// pairs, 6 training pairs, shorter windows of simulation.
func Quick() Options {
	o := Full()
	o.MeasureCycles = 20000
	o.CollectCycles = 20000
	o.Pairs = o.Pairs[:4]
	o.TrainPairs = o.TrainPairs[:6]
	o.ValPairs = o.ValPairs[:2]
	return o
}

// Result is everything one simulation run yields.
type Result struct {
	// Name is the configuration label (paper naming).
	Name string
	// Pair is the benchmark pair that drove the run.
	Pair traffic.Pair
	// Metrics are the delivered-traffic statistics.
	Metrics *stats.Network
	// Account is the energy/power accounting.
	Account *power.Account
	// InjectedCPUShare is the Figure 4 class breakdown of injected
	// packets.
	InjectedCPUShare float64
	// Retired counts completed request-response round trips.
	Retired uint64
	// TurnOnStalls counts laser stabilisation stalls (photonic only).
	TurnOnStalls uint64
}

// ThroughputBitsPerCycle is the headline throughput metric.
func (r Result) ThroughputBitsPerCycle() float64 { return r.Metrics.ThroughputBitsPerCycle() }

// Point is the one description of a run: a (configuration, workload
// pair) evaluation on one backend. It is what Run executes, once per
// seed in a RunSeeds fan; with a seed it is a Spec, the identity pearld
// caches and `pearlbench -sweep` exports.
type Point struct {
	// Label is the display label of the point's row in a figure (the
	// paper's configuration label, sometimes annotated — "Dyn RW500 @
	// 4ns"). Results and seed derivation use Name, not Label.
	Label string
	// Backend is "pearl" (photonic; also what an empty Backend means) or
	// "cmesh" (electrical baseline).
	Backend string
	// Config fully describes the network build.
	Config config.Config
	// LinkScale narrows CMESH links for bandwidth-matched baselines
	// (values below 1 mean 1; ignored by the pearl backend).
	LinkScale int
	// Pair is the CPU+GPU benchmark pair driving the run.
	Pair traffic.Pair
	// Controller drives the point's wavelength-state policy. nil means
	// the config's registered controller with no model artifact, so
	// model-needing points must be bound by the caller (Spec.Bind) or
	// they fail at build time, before any simulation state exists.
	Controller controller.Controller
}

// The two backend names a Point carries: the photonic network and the
// electrical baseline.
const (
	BackendPEARL = "pearl"
	BackendCMESH = "cmesh"
)

// Name is the point's canonical configuration name: what its Result
// reports and what the replica seed fan folds in (see ReplicaSeed) —
// the paper's configuration name for photonic points, CMESHName for
// electrical ones.
func (p Point) Name() string {
	if p.Backend == BackendCMESH {
		return CMESHName(p.LinkScale)
	}
	return p.Config.Name()
}

// CMESHName is the configuration name of an electrical-baseline run at
// the given link scale.
func CMESHName(linkScale int) string {
	if linkScale > 1 {
		return fmt.Sprintf("CMESH(1/%d bw)", linkScale)
	}
	return "CMESH"
}

// controller resolves the point's wavelength-state controller: the one
// the caller supplied, or the configuration's registered controller
// built with no model artifact.
func (p Point) controller() (controller.Controller, error) {
	if p.Controller != nil {
		return p.Controller, nil
	}
	return controller.New(p.Config, nil)
}

// fixedPolicy adapts one explicit state policy to the Controller seam,
// for the in-package passes that hand-pick a policy (the training
// pipeline's data collection, the label-choice and online-learner
// comparisons). Every Policy call returns the same instance, so it
// declares no capabilities and drives one Run at a time: a RunSeeds fan
// would hand that one instance to concurrent seeds.
type fixedPolicy struct{ policy core.StatePolicy }

func (fixedPolicy) Name() string                          { return "fixed" }
func (fixedPolicy) Capabilities() controller.Capabilities { return controller.Capabilities{} }
func (f fixedPolicy) Policy(uint64) (core.StatePolicy, error) {
	return f.policy, nil
}

// network is what a stack needs from either backend.
type network interface {
	sim.Component
	traffic.Target
	windowSource
	SetAccount(a *power.Account)
	SetDeliveryHandler(h func(p *noc.Packet, cycle int64))
	StartMeasurement()
	StopMeasurement(measured int64)
}

// stack is one fully constructed simulation — engine, network,
// workload, and for measured stacks a power account and an optional
// window sampler — ready to run. Every simulation in this package runs
// on one.
type stack struct {
	engine *sim.Engine
	net    network
	// photonic is net on the pearl backend and nil on cmesh: the window
	// hook and the turn-on stall counter exist only there.
	photonic *core.Network
	workload *traffic.Workload
	acct     *power.Account
	sampler  *windowSampler
	name     string
	pair     traffic.Pair
}

// build constructs the one simulation stack this package runs: engine,
// network, wavelength-state policy (photonic) or link scale
// (electrical), power account and window sampler, workload, engine
// registration. A photonic point without a Controller gets its
// configuration's registered one. The data collection passes build
// with measured false: no power account and no window sampler, so they
// cost what they always have.
func build(p Point, opts Options, measured bool) (stack, error) {
	engine := sim.NewEngine()
	// The configuration name is deliberately not folded into the workload
	// seed: every configuration sees the same demand sequence for a given
	// pair (paired comparison).
	wseed := runSeed(opts.Seed, p.Pair.Name())
	r := stack{engine: engine, name: p.Name(), pair: p.Pair}
	if p.Backend == BackendCMESH {
		net, err := cmesh.New(engine, p.Config)
		if err != nil {
			return stack{}, err
		}
		net.SetLinkScale(max(p.LinkScale, 1))
		r.net = net
	} else {
		net, err := core.New(engine, p.Config)
		if err != nil {
			return stack{}, err
		}
		ctrl, err := p.controller()
		if err != nil {
			return stack{}, err
		}
		pol, err := ctrl.Policy(wseed)
		if err != nil {
			return stack{}, err
		}
		net.SetStatePolicy(pol)
		r.net, r.photonic = net, net
	}
	if measured {
		r.acct = power.NewAccount(config.NetworkFrequencyHz)
		r.net.SetAccount(r.acct)
	}
	w, err := traffic.NewWorkload(engine, r.net, p.Pair, wseed)
	if err != nil {
		return stack{}, err
	}
	r.workload = w
	deliver := w.OnDeliver
	if measured && opts.OnWindow != nil {
		// The electrical mesh has no reservation windows of its own; the
		// configured window length just sets the sampling cadence so both
		// backends stream comparable frames.
		r.sampler = newWindowSampler(opts.OnWindow, r.net, r.acct,
			int64(p.Config.ReservationWindow), config.NetworkFrequencyHz)
		deliver = r.sampler.wrapDeliver(deliver)
	}
	r.net.SetDeliveryHandler(deliver)
	engine.Register(w)
	engine.Register(r.net)
	if r.sampler != nil {
		// After the network: the sampler reads each cycle's settled state.
		engine.Register(r.sampler)
	}
	return r, nil
}

func (r *stack) startMeasure() {
	r.net.StartMeasurement()
	r.workload.StartMeasurement()
	if r.sampler != nil {
		r.sampler.start(r.engine.Cycle())
	}
}

func (r *stack) stopMeasure(measured int64) {
	r.net.StopMeasurement(measured)
	r.workload.StopMeasurement()
	if r.sampler != nil {
		r.sampler.finish(r.engine.Cycle())
	}
}

func (r *stack) finalize() Result {
	res := Result{
		Name:             r.name,
		Pair:             r.pair,
		Metrics:          r.net.Metrics(),
		Account:          r.acct,
		InjectedCPUShare: r.workload.Injected.Share(0),
		Retired:          r.workload.Retired,
	}
	if r.photonic != nil {
		res.TurnOnStalls = r.photonic.AuxCounters().TurnOnStalls
	}
	return res
}

// runCtxChunk is how many cycles execute between context checks: small
// enough that cancellation lands well inside a client poll interval,
// large enough to stay off the hot path.
const runCtxChunk = 1024

// runCtx steps the stack n cycles in bounded chunks, checking ctx
// between chunks so a cancelled or timed-out run stops within
// ~runCtxChunk cycles instead of completing the whole phase.
func (r *stack) runCtx(ctx context.Context, n int64) error {
	for remaining := n; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := min(int64(runCtxChunk), remaining)
		r.engine.Run(step)
		remaining -= step
	}
	// Every cycle ran: the result is fully computed, so a cancellation
	// that lands between the final chunk and this return must not
	// discard it.
	return nil
}

// Run simulates one point with seed opts.Seed (0 means 2018), stepped
// inline on the calling goroutine. The simulation aborts between cycle
// chunks once ctx is cancelled or its deadline passes, returning the
// context error.
func Run(ctx context.Context, p Point, opts Options) (Result, error) {
	opts = opts.withPaperSeed()
	r, err := build(p, opts, true)
	if err != nil {
		return Result{}, err
	}
	if err := r.runCtx(ctx, opts.WarmupCycles); err != nil {
		return Result{}, err
	}
	r.startMeasure()
	if err := r.runCtx(ctx, opts.MeasureCycles); err != nil {
		return Result{}, err
	}
	r.stopMeasure(opts.MeasureCycles)
	return r.finalize(), nil
}

// RunSeeds runs the point once per seed, as independent runs spread
// over GOMAXPROCS goroutines, and returns their Results in seed order.
// seeds[i] replaces opts.Seed for run i — callers wanting the standard
// fan use ReplicaSeeds — so results[i] is Run with opts.Seed = seeds[i].
// opts.OnWindow, if set, observes seeds[0]'s run only, from whichever
// goroutine steps it.
func RunSeeds(ctx context.Context, p Point, opts Options, seeds []uint64) ([]Result, error) {
	return parallelMapCtx(ctx, len(seeds), func(ctx context.Context, i int) (Result, error) {
		o := opts
		o.Seed = seeds[i]
		if i != 0 {
			o.OnWindow = nil
		}
		return Run(ctx, p, o)
	})
}

// RunPEARLCtx is Run for a photonic point. It keeps this exact signature
// because the frozen benchmark/ harness calls it; new code calls Run.
func RunPEARLCtx(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, ctrl controller.Controller) (Result, error) {
	return Run(ctx, Point{Backend: BackendPEARL, Config: cfg, Pair: pair, Controller: ctrl}, opts)
}

// RunCMESHCtx is Run for an electrical-baseline point (linkScale 1 =
// 64WL-equivalent bisection). Like RunPEARLCtx it is kept, signature
// unchanged, for the frozen benchmark/ harness; new code calls Run.
func RunCMESHCtx(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, linkScale int) (Result, error) {
	return Run(ctx, Point{Backend: BackendCMESH, Config: cfg, Pair: pair, LinkScale: linkScale}, opts)
}

// runSeed derives the workload seed of a run from the experiment seed
// and the pair, so every configuration sees the same workload randomness
// for a given pair while different pairs differ.
func runSeed(seed uint64, pairName string) uint64 {
	h := seed
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b) // FNV-style fold
	}
	return h
}
