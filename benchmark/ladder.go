package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The ladder gives every layer a host cost of its own, which end-to-end
// passes cannot: Engine.Run is one call from outside. Each rung is a stack
// with one more layer than the rung below, stepped cycle by cycle after
// the usual warm-up, so a layer's cost per cycle is its rung minus the
// rung below. The rungs are the same in every traced run, whatever the
// workload, so their numbers compare across runs and commits.
const ladderWarmup = 2000

// ladderSize is how much the ladder measures: everything at full size,
// next to nothing for the smoke test.
type ladderSize struct {
	// Rungs are timed in interleaved rounds and the median round is
	// reported, so a noisy second on the host hits every rung alike.
	rounds, roundSteps int
	predictCalls       int
	samplerPairs       int
	spanReps           int
	measure            int64 // run length of the sampler and span runs
}

func ladderSizeFor(z size) ladderSize {
	if z == sizeTiny {
		return ladderSize{rounds: 1, roundSteps: 500, predictCalls: 1000, samplerPairs: 2, spanReps: 1, measure: 2000}
	}
	// 200k steps per rung in all.
	return ladderSize{rounds: 5, roundSteps: 40000, predictCalls: 500000, samplerPairs: 8, spanReps: 5, measure: fullMeasure}
}

// ticker is a self-rescheduling payload event: the calendar's unit of
// work with nothing attached.
type ticker struct{ engine *sim.Engine }

func (t *ticker) HandleEvent(int64, any, int64) { t.engine.SchedulePayload(16, t, nil, 0) }

// calendarRung is the bare engine carrying 64 payload events that each
// come due every 16 cycles: four calendar pops and pushes per step and no
// component, about the event load the kernel keeps in flight.
func calendarRung() *sim.Engine {
	engine := sim.NewEngine()
	for i := 0; i < 64; i++ {
		engine.SchedulePayload(int64(i%16), &ticker{engine}, nil, 0)
	}
	return engine
}

// sink accepts every packet and delivers it on the next cycle, so the
// workload above it runs with no network at all.
type sink struct {
	engine  *sim.Engine
	deliver func(p *noc.Packet, cycle int64)
}

func (s *sink) Inject(p *noc.Packet) bool {
	s.engine.SchedulePayload(1, s, p, 0)
	return true
}

func (s *sink) HandleEvent(cycle int64, ptr any, _ int64) { s.deliver(ptr.(*noc.Packet), cycle) }

// ladderPair and ladderSeed fix the traffic every rung carries.
func ladderPair() traffic.Pair { return traffic.TestPairs()[0] }

func trafficRung(seed uint64) (*sim.Engine, error) {
	engine := sim.NewEngine()
	s := &sink{engine: engine}
	w, err := traffic.NewWorkload(engine, s, ladderPair(), seed)
	if err != nil {
		return nil, err
	}
	s.deliver = w.OnDeliver
	engine.Register(w)
	return engine, nil
}

// pearlRung is the kernel stack of BenchmarkKernel for a preset, with the
// measurement layers switched on one at a time: the power account, the
// statistics, and (for windowed presets) the controller's policy.
func pearlRung(preset string, seed uint64, account, measure, policy bool, art *models.Artifact) (*sim.Engine, error) {
	cfg, err := config.ByName(preset)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	net, err := core.New(engine, cfg)
	if err != nil {
		return nil, err
	}
	if policy {
		ctrl, err := controller.New(cfg, art)
		if err != nil {
			return nil, err
		}
		pol, err := ctrl.Policy(seed)
		if err != nil {
			return nil, err
		}
		net.SetStatePolicy(pol)
	}
	if account {
		net.SetAccount(power.NewAccount(config.NetworkFrequencyHz))
	}
	w, err := traffic.NewWorkload(engine, net, ladderPair(), seed)
	if err != nil {
		return nil, err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	if measure {
		// Measurement starts after the warm-up, as in a run.
		engine.Schedule(ladderWarmup, func(int64) {
			net.StartMeasurement()
			w.StartMeasurement()
		})
	}
	return engine, nil
}

func cmeshRung(seed uint64) (*sim.Engine, error) {
	engine := sim.NewEngine()
	net, err := cmesh.New(engine, config.Default())
	if err != nil {
		return nil, err
	}
	w, err := traffic.NewWorkload(engine, net, ladderPair(), seed)
	if err != nil {
		return nil, err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	return engine, nil
}

// stepLadder times the rungs and returns ns per Engine.Step for each.
func stepLadder(z ladderSize, seed uint64, art *models.Artifact) (map[string]float64, error) {
	type rung struct {
		name   string
		engine *sim.Engine
		rounds []float64
	}
	var rungs []*rung
	add := func(name string, engine *sim.Engine, err error) error {
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", name, err)
		}
		engine.Run(ladderWarmup)
		rungs = append(rungs, &rung{name: name, engine: engine})
		return nil
	}
	if err := add("calendar", calendarRung(), nil); err != nil {
		return nil, err
	}
	e, err := trafficRung(seed)
	if err := add("traffic", e, err); err != nil {
		return nil, err
	}
	e, err = cmeshRung(seed)
	if err := add("cmesh", e, err); err != nil {
		return nil, err
	}
	for _, r := range []struct {
		name, preset             string
		account, measure, policy bool
	}{
		{"kernel", "pearl-dyn", false, false, false},
		{"account", "pearl-dyn", true, false, false},
		{"measured", "pearl-dyn", true, true, false},
		{"reactive", "dyn-rw500", true, true, true},
		{"ml", "ml-rw500", true, true, true},
		{"proteus", "proteus-rw500", true, true, true},
		{"d3noc", "d3noc-rw500", true, true, true},
	} {
		e, err := pearlRung(r.preset, seed, r.account, r.measure, r.policy, art)
		if err := add(r.name, e, err); err != nil {
			return nil, err
		}
	}
	for round := 0; round < z.rounds; round++ {
		for _, r := range rungs {
			start := time.Now()
			for i := 0; i < z.roundSteps; i++ {
				r.engine.Step()
			}
			r.rounds = append(r.rounds, float64(time.Since(start).Nanoseconds())/float64(z.roundSteps))
		}
	}
	out := make(map[string]float64, len(rungs))
	for _, r := range rungs {
		out[r.name] = median(r.rounds)
	}
	return out, nil
}

var predictSink float64

// predictNS times the ML unit's arithmetic alone: one ridge prediction
// over a Table III feature vector.
func predictNS(z ladderSize, art *models.Artifact) float64 {
	feats := make([]float64, core.FeatureCount)
	for i := range feats {
		feats[i] = float64(i%7) + 0.5
	}
	start := time.Now()
	for i := 0; i < z.predictCalls; i++ {
		predictSink += art.Ridge().Predict(feats)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(z.predictCalls)
}

// samplerNS is what the window sampler costs per cycle: the same run with
// and without an OnWindow hook, back to back, and the median difference
// over such pairs after one discarded pair. The effect is a few
// hundred ns on a run whose own time moves by as much between repeats, so
// the pairing matters: each difference is taken within half a second.
func samplerNS(ctx context.Context, z ladderSize, seed uint64) (float64, error) {
	with := pearlSpec(streamPreset, ladderPair(), seed, fullWarmup, z.measure, true)
	without := with
	without.windowed = false
	perCycle := func(s spec) (float64, error) {
		start := time.Now()
		_, _, err := s.run(ctx, nil)
		return float64(time.Since(start).Nanoseconds()) / float64(s.cycles()), err
	}
	var diffs []float64
	for i := 0; i < z.samplerPairs; i++ {
		on, err := perCycle(with)
		if err != nil {
			return 0, err
		}
		off, err := perCycle(without)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			diffs = append(diffs, on-off)
		}
	}
	return median(diffs), nil
}

// runSpans traces full-length runs on the harness-built stack and returns
// the median of each span per run, with the measure span's allocation
// and delivered-packet rates. It alternates one PEARL and one CMESH run.
func runSpans(z ladderSize, seed uint64) (map[string]float64, error) {
	specs := []spec{
		pearlSpec(streamPreset, ladderPair(), seed, fullWarmup, z.measure, false),
		cmeshSpec(1, ladderPair(), seed, fullWarmup, z.measure),
	}
	tr := newTracer()
	durs := map[string][]float64{}
	var allocs, bytes, perPacket []float64
	for i := 0; i < z.spanReps; i++ {
		for _, s := range specs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			first := len(tr.spans)
			_, res, err := s.runTraced(tr, -1, nil)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			var measureNS float64
			for _, sp := range tr.spans[first:] {
				durs[sp.Name] = append(durs[sp.Name], float64(sp.End-sp.Start))
				if sp.Name == "experiments.measure" {
					measureNS = float64(sp.End - sp.Start)
				}
			}
			if s.backend == server.BackendPEARL {
				// The whole run's allocations over its cycles: build and
				// finalize are in, as they are in every Run*Ctx call.
				allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(s.cycles()))
				bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(s.cycles()))
				perPacket = append(perPacket, measureNS/float64(res.DeliveredPackets))
			}
		}
	}
	us := func(name string) float64 { return median(durs[name]) / 1e3 }
	warmMS, measureMS := median(durs["experiments.warmup"])/1e6, median(durs["experiments.measure"])/1e6
	return map[string]float64{
		"config.resolve_us":                        us("config.resolve"),
		"core.new_us":                              us("core.new"),
		"cmesh.new_us":                             us("cmesh.new"),
		"traffic.new_us":                           us("traffic.new"),
		"controller.new_us":                        us("controller.new"),
		"experiments.build_us":                     us("experiments.build"),
		"experiments.finalize_us":                  us("experiments.finalize"),
		"experiments.warmup_ms":                    warmMS,
		"experiments.measure_ms":                   measureMS,
		"experiments.warmup_share":                 warmMS / (warmMS + measureMS),
		"experiments.allocs_per_cycle":             median(allocs),
		"experiments.bytes_per_cycle":              median(bytes),
		"experiments.host_ns_per_delivered_packet": median(perPacket),
	}, nil
}

// ladder measures the per-layer metrics of the simulator's layers. It
// trains the ML rung's model itself, as a pass's set-up would.
func ladder(ctx context.Context, e *env, size size) (map[string]float64, error) {
	z := ladderSizeFor(size)
	art, err := trainModel(size, e.seed)
	if err != nil {
		return nil, err
	}
	steps, err := stepLadder(z, e.seed, art)
	if err != nil {
		return nil, err
	}
	sampler, err := samplerNS(ctx, z, e.seed)
	if err != nil {
		return nil, err
	}
	account, observe := steps["account"]-steps["kernel"], steps["measured"]-steps["account"]
	out := map[string]float64{
		"sim.step_ns":                     steps["calendar"],
		"traffic.tick_ns":                 steps["traffic"] - steps["calendar"],
		"core.tick_ns":                    steps["kernel"] - steps["traffic"],
		"cmesh.tick_ns":                   steps["cmesh"] - steps["traffic"],
		"power.account_ns":                account,
		"stats.observe_ns":                observe,
		"experiments.window_sampler_ns":   sampler,
		"experiments.measure_overhead_ns": account + observe + sampler,
		"mlkit.predict_ns":                predictNS(z, art),
	}
	for _, policy := range []string{"reactive", "ml", "proteus", "d3noc"} {
		out["controller.policy_overhead_ns."+policy] = steps[policy] - steps["measured"]
	}
	spans, err := runSpans(z, e.seed)
	if err != nil {
		return nil, err
	}
	for name, v := range spans {
		out[name] = v
	}
	return out, nil
}
