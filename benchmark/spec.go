package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// spec is one simulation point: everything that decides its result. The
// benchmark runs a spec directly (experiments.Run*Ctx), through its own
// traced stack (runTraced) or as a pearld job (jobRequest), and all three
// must agree on the digest.
type spec struct {
	backend   string // server.BackendPEARL or server.BackendCMESH
	preset    string // config.ByName name; empty for sweep points
	cfg       config.Config
	pair      traffic.Pair
	seed      uint64
	warmup    int64
	measure   int64
	linkScale int
	// windowed runs carry an OnWindow hook, as every pearld job does.
	windowed bool
}

func pearlSpec(preset string, pair traffic.Pair, seed uint64, warmup, measure int64, windowed bool) spec {
	cfg, err := config.ByName(preset)
	if err != nil {
		panic(err) // preset names are constants of this package
	}
	return spec{backend: server.BackendPEARL, preset: preset, cfg: cfg, pair: pair,
		seed: seed, warmup: warmup, measure: measure, linkScale: 1, windowed: windowed}
}

func cmeshSpec(scale int, pair traffic.Pair, seed uint64, warmup, measure int64) spec {
	return spec{backend: server.BackendCMESH, cfg: config.Default(), pair: pair,
		seed: seed, warmup: warmup, measure: measure, linkScale: scale}
}

// label is the configuration name the run reports (paper naming).
func (s spec) label() string {
	if s.backend == server.BackendCMESH {
		return experiments.CMESHName(s.linkScale)
	}
	return s.cfg.Name()
}

// id names the spec in digests.json and in failure messages.
func (s spec) id() string {
	return fmt.Sprintf("%s|%s|%s|seed=%d|%d+%d", s.backend, s.label(), s.pair.Name(), s.seed, s.warmup, s.measure)
}

func (s spec) cycles() int64 { return s.warmup + s.measure }

func (s spec) options(onWindow func(experiments.WindowStats)) experiments.Options {
	return experiments.Options{Seed: s.seed, WarmupCycles: s.warmup, MeasureCycles: s.measure, OnWindow: onWindow}
}

// run is the untraced path: the public entry point pearlbench and pearld
// call, then the flattening every caller of it pays (percentiles). A
// windowed spec gets a no-op hook, so the window sampler runs exactly as
// it does under a job. art is the trained artifact ML presets need and
// nil otherwise. The raw result is returned too because it is what a
// caller of Run*Ctx keeps alive (heap_live_mb counts it).
func (s spec) run(ctx context.Context, art *models.Artifact) (experiments.Result, server.JobResult, error) {
	var onWindow func(experiments.WindowStats)
	if s.windowed {
		onWindow = func(experiments.WindowStats) {}
	}
	var (
		res experiments.Result
		err error
	)
	if s.backend == server.BackendCMESH {
		res, err = experiments.RunCMESHCtx(ctx, s.cfg, s.pair, s.options(onWindow), s.linkScale)
	} else {
		var ctrl controller.Controller
		if ctrl, err = controller.New(s.cfg, art); err != nil {
			return experiments.Result{}, server.JobResult{}, err
		}
		res, err = experiments.RunPEARLCtx(ctx, s.cfg, s.pair, s.options(onWindow), ctrl)
	}
	if err != nil {
		return experiments.Result{}, server.JobResult{}, err
	}
	return res, flatten(res), nil
}

// jobRequest is the spec as a POST /v1/jobs body. Sweep points have no
// preset and are only ever submitted through the batch endpoint.
func (s spec) jobRequest() server.JobRequest {
	return server.JobRequest{
		Backend:       s.backend,
		Preset:        s.preset,
		Workload:      server.WorkloadSpec{CPU: s.pair.CPU.Name, GPU: s.pair.GPU.Name},
		Seed:          s.seed,
		WarmupCycles:  s.warmup,
		MeasureCycles: s.measure,
		LinkScale:     s.linkScale,
	}
}

// workloadSeed repeats experiments.runSeed, which is not exported: the
// per-run workload seed folds the pair name into the experiment seed.
// TestHarnessStackMatchesRun fails if the two drift apart.
func workloadSeed(seed uint64, pairName string) uint64 {
	h := seed
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b)
	}
	return h
}

// network is what the harness needs from either backend once built.
type network interface {
	sim.Component
	traffic.Target
	StartMeasurement()
	StopMeasurement(measured int64)
}

// runTraced builds the spec's stack from the packages' exported
// constructors, in the order buildPEARLReplica / buildCMESHReplica use,
// with a span around every call into a layer. It has no window sampler
// (that type is not exported); the sampler never changes a result, so
// the digest must still equal run's.
func (s spec) runTraced(tr *tracer, parent int, art *models.Artifact) (experiments.Result, server.JobResult, error) {
	build := tr.start("experiments.build", parent)
	sp := tr.start("config.resolve", build)
	cfg := s.cfg
	if s.preset != "" {
		var err error
		if cfg, err = config.ByName(s.preset); err != nil {
			return experiments.Result{}, server.JobResult{}, err
		}
	}
	tr.end(sp)

	engine := sim.NewEngine()
	acct := power.NewAccount(config.NetworkFrequencyHz)
	var (
		net      network
		pearl    *core.Network
		electric *cmesh.Network
		err      error
	)
	if s.backend == server.BackendCMESH {
		sp = tr.start("cmesh.new", build)
		if electric, err = cmesh.New(engine, cfg); err != nil {
			return experiments.Result{}, server.JobResult{}, err
		}
		electric.SetLinkScale(s.linkScale)
		electric.SetAccount(acct)
		net = electric
		tr.end(sp)
	} else {
		sp = tr.start("core.new", build)
		if pearl, err = core.New(engine, cfg); err != nil {
			return experiments.Result{}, server.JobResult{}, err
		}
		tr.end(sp)
		sp = tr.start("controller.new", build)
		ctrl, err := controller.New(cfg, art)
		if err != nil {
			return experiments.Result{}, server.JobResult{}, err
		}
		pol, err := ctrl.Policy(workloadSeed(s.seed, s.pair.Name()))
		if err != nil {
			return experiments.Result{}, server.JobResult{}, err
		}
		pearl.SetStatePolicy(pol)
		tr.end(sp)
		pearl.SetAccount(acct)
		net = pearl
	}
	sp = tr.start("traffic.new", build)
	w, err := traffic.NewWorkload(engine, net, s.pair, workloadSeed(s.seed, s.pair.Name()))
	if err != nil {
		return experiments.Result{}, server.JobResult{}, err
	}
	tr.end(sp)
	if pearl != nil {
		pearl.SetDeliveryHandler(w.OnDeliver)
	} else {
		electric.SetDeliveryHandler(w.OnDeliver)
	}
	engine.Register(w)
	engine.Register(net)
	tr.end(build)

	sp = tr.start("experiments.warmup", parent)
	engine.Run(s.warmup)
	tr.end(sp)

	sp = tr.start("experiments.measure", parent)
	net.StartMeasurement()
	w.StartMeasurement()
	engine.Run(s.measure)
	tr.end(sp)

	sp = tr.start("experiments.finalize", parent)
	net.StopMeasurement(s.measure)
	w.StopMeasurement()
	res := experiments.Result{
		Name:             s.label(),
		Pair:             s.pair,
		Account:          acct,
		InjectedCPUShare: w.Injected.Share(0),
		Retired:          w.Retired,
	}
	if pearl != nil {
		res.Metrics = pearl.Metrics()
		res.TurnOnStalls = pearl.AuxCounters().TurnOnStalls
	} else {
		res.Metrics = electric.Metrics()
	}
	out := flatten(res)
	tr.end(sp)
	return res, out, nil
}

// flatten repeats server.newJobResult (not exported), so a direct run
// and a service result reduce to the same value and one digest function
// serves both. The service cross-checks fail if the two drift apart.
func flatten(res experiments.Result) server.JobResult {
	m := res.Metrics
	q := m.Latency.Percentiles(50, 99)
	out := server.JobResult{
		Config:                 res.Name,
		Pair:                   res.Pair.Name(),
		ThroughputBitsPerCycle: m.ThroughputBitsPerCycle(),
		ThroughputGbps:         m.ThroughputGbps(config.NetworkFrequencyHz),
		DeliveredPackets:       m.Delivered.TotalPackets(),
		CPUShare:               m.Delivered.Share(0),
		MeanLatencyCycles:      m.Latency.Mean(),
		P50LatencyCycles:       q[0],
		P99LatencyCycles:       q[1],
		CPULatencyCycles:       m.CPULatency.Mean(),
		GPULatencyCycles:       m.GPULatency.Mean(),
		RetiredRoundTrips:      res.Retired,
		AvgLaserPowerW:         res.Account.AverageLaserPowerW(),
		EnergyPerBitPJ:         res.Account.EnergyPerBitJ() * 1e12,
		TurnOnStalls:           res.TurnOnStalls,
	}
	if keys := m.StateResidency.Keys(); len(keys) > 0 {
		out.StateResidency = make(map[int]float64, len(keys))
		for _, k := range keys {
			out.StateResidency[k] = m.StateResidency.Fraction(k)
		}
	}
	return out
}

// digest is the SHA-256 of the canonical flattening of a result: one
// "name=value" line per field in declaration order, floats in their
// shortest exact form, residency keys ascending.
func digest(r server.JobResult) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	var b strings.Builder
	for _, kv := range [][2]string{
		{"config", r.Config}, {"pair", r.Pair},
		{"throughput_bits_per_cycle", f(r.ThroughputBitsPerCycle)},
		{"throughput_gbps", f(r.ThroughputGbps)},
		{"delivered_packets", u(r.DeliveredPackets)},
		{"cpu_share", f(r.CPUShare)},
		{"mean_latency_cycles", f(r.MeanLatencyCycles)},
		{"p50_latency_cycles", f(r.P50LatencyCycles)},
		{"p99_latency_cycles", f(r.P99LatencyCycles)},
		{"cpu_latency_cycles", f(r.CPULatencyCycles)},
		{"gpu_latency_cycles", f(r.GPULatencyCycles)},
		{"retired_round_trips", u(r.RetiredRoundTrips)},
		{"avg_laser_power_w", f(r.AvgLaserPowerW)},
		{"energy_per_bit_pj", f(r.EnergyPerBitPJ)},
		{"turn_on_stalls", u(r.TurnOnStalls)},
	} {
		b.WriteString(kv[0] + "=" + kv[1] + "\n")
	}
	keys := make([]int, 0, len(r.StateResidency))
	for k := range r.StateResidency {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "state_residency.%d=%s\n", k, f(r.StateResidency[k]))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
