package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/photonic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// buildLoaded wires a network to the standard test workload and runs
// warmup + measurement, returning the network and workload.
func buildLoaded(t *testing.T, cfg config.Config, seed uint64, warm, measure int64) (*Network, *traffic.Workload) {
	t.Helper()
	engine := sim.NewEngine()
	net, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, err := traffic.NewWorkload(engine, net, pair, seed)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(warm)
	net.StartMeasurement()
	w.StartMeasurement()
	engine.Run(measure)
	net.StopMeasurement(measure)
	return net, w
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default()
	cfg.StaticWavelengths = 7
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestPacketsFlowEndToEnd(t *testing.T) {
	net, w := buildLoaded(t, config.PEARLDyn(), 1, 2000, 10000)
	m := net.Metrics()
	if m.Delivered.TotalPackets() == 0 {
		t.Fatal("nothing delivered")
	}
	if m.Delivered.Packets[0] == 0 || m.Delivered.Packets[1] == 0 {
		t.Fatalf("one class starved: %v", m.Delivered)
	}
	if m.Latency.Mean() <= float64(PipelineCycles) {
		t.Fatalf("mean latency %v implausibly low", m.Latency.Mean())
	}
	if w.Retired == 0 {
		t.Fatal("no requests completed the round trip")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		net, _ := buildLoaded(t, config.DynRW(500), 77, 1000, 8000)
		return net.Metrics().Delivered.TotalPackets(), net.Metrics().Latency.Mean()
	}
	p1, l1 := run()
	p2, l2 := run()
	if p1 != p2 || l1 != l2 {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v", p1, l1, p2, l2)
	}
}

func TestStaticStateNeverChanges(t *testing.T) {
	net, _ := buildLoaded(t, config.StaticWL(32), 3, 1000, 5000)
	for i := 0; i < config.NumRouters; i++ {
		if net.Router(i).State() != photonic.WL32 {
			t.Fatalf("router %d drifted to %v", i, net.Router(i).State())
		}
	}
	res := net.Metrics().StateResidency
	if res.Fraction(32) != 1 {
		t.Fatalf("residency at 32WL = %v, want 1", res.Fraction(32))
	}
}

func TestReactiveScalingChangesStates(t *testing.T) {
	net, _ := buildLoaded(t, config.DynRW(500), 5, 2000, 20000)
	res := net.Metrics().StateResidency
	if len(res.Keys()) < 2 {
		t.Fatalf("reactive scaling never left one state: %v", res.Keys())
	}
}

func TestReactiveNo8WLWhenDisallowed(t *testing.T) {
	cfg := config.DynRW(500)
	cfg.Allow8WL = false
	net, _ := buildLoaded(t, cfg, 5, 2000, 20000)
	if net.Metrics().StateResidency.Fraction(8) != 0 {
		t.Fatal("8WL state used despite Allow8WL=false")
	}
}

func TestMLPolicyDrivesStates(t *testing.T) {
	engine := sim.NewEngine()
	cfg := config.MLRW(500, true)
	net, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A constant low predictor must drive every router to 8WL.
	net.SetStatePolicy(MLPolicy{Model: PredictorFunc(func([]float64) float64 { return 1 }), Allow8WL: cfg.Allow8WL})
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, _ := traffic.NewWorkload(engine, net, pair, 9)
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(3000)
	for i := 0; i < config.NumRouters; i++ {
		if net.Router(i).State() != photonic.WL8 {
			t.Fatalf("router %d at %v, want 8WL", i, net.Router(i).State())
		}
	}
}

func TestMLWithoutPredictorHoldsState(t *testing.T) {
	net, _ := buildLoaded(t, config.MLRW(500, true), 11, 1000, 3000)
	for i := 0; i < config.NumRouters; i++ {
		if net.Router(i).State() != photonic.WL64 {
			t.Fatalf("router %d left 64WL with no predictor", i)
		}
	}
}

func TestWindowHookFires(t *testing.T) {
	engine := sim.NewEngine()
	cfg := config.DynRW(500)
	net, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		router   int
		injected int64
	}
	var calls []call
	var featWidth int
	net.SetWindowHook(func(router int, feats []float64, injected int64, beta float64, next photonic.WLState) {
		calls = append(calls, call{router, injected})
		featWidth = len(feats)
		if beta < 0 || beta > 1 {
			t.Errorf("beta %v outside [0,1]", beta)
		}
	})
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, _ := traffic.NewWorkload(engine, net, pair, 13)
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(3000)
	// Each router's windows are offset by 10 x routerID cycles; by cycle
	// 3000 every router has seen at least 4 windows.
	perRouter := map[int]int{}
	for _, c := range calls {
		perRouter[c.router]++
	}
	if len(perRouter) != config.NumRouters {
		t.Fatalf("hooks from %d routers, want %d", len(perRouter), config.NumRouters)
	}
	for r, n := range perRouter {
		if n < 4 {
			t.Errorf("router %d fired %d hooks", r, n)
		}
	}
	if featWidth != 30 {
		t.Fatalf("feature width %d, want 30", featWidth)
	}
}

func TestWindowOffsetStaggersBoundaries(t *testing.T) {
	engine := sim.NewEngine()
	net, err := New(engine, config.DynRW(500))
	if err != nil {
		t.Fatal(err)
	}
	var cycles = map[int]int64{}
	net.SetWindowHook(func(router int, _ []float64, _ int64, _ float64, _ photonic.WLState) {
		if _, ok := cycles[router]; !ok {
			cycles[router] = engine.Cycle()
		}
	})
	engine.Register(net)
	engine.Run(1200)
	for r := 1; r < config.NumRouters; r++ {
		if cycles[r]-cycles[r-1] != 10 {
			t.Fatalf("router %d first boundary at %d, router %d at %d; want 10-cycle stagger",
				r-1, cycles[r-1], r, cycles[r])
		}
	}
}

func TestFCFSAndDynBothDeliver(t *testing.T) {
	// A GPU-heavy pairing (light CPU benchmark, intense GPU kernel) is
	// the scenario Algorithm 1 protects: under FCFS the CPU queues
	// behind multi-flit GPU bursts.
	build := func(cfg config.Config) *Network {
		engine := sim.NewEngine()
		net, err := New(engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pair := traffic.Pair{CPU: traffic.CPUProfiles()[7], GPU: traffic.GPUProfiles()[11]}
		w, err := traffic.NewWorkload(engine, net, pair, 21)
		if err != nil {
			t.Fatal(err)
		}
		net.SetDeliveryHandler(w.OnDeliver)
		engine.Register(w)
		engine.Register(net)
		engine.Run(2000)
		net.StartMeasurement()
		engine.Run(15000)
		net.StopMeasurement(15000)
		return net
	}
	dyn := build(config.PEARLDyn())
	fcfs := build(config.PEARLFCFS())
	d := dyn.Metrics().ThroughputBitsPerCycle()
	f := fcfs.Metrics().ThroughputBitsPerCycle()
	if d == 0 || f == 0 {
		t.Fatalf("throughputs dyn=%v fcfs=%v", d, f)
	}
	// CPU mean latency under Dyn must not exceed FCFS under GPU bursts.
	dc := dyn.Metrics().CPULatency.Mean()
	fc := fcfs.Metrics().CPULatency.Mean()
	if dc > fc*1.1 {
		t.Fatalf("Dyn CPU latency %v worse than FCFS %v", dc, fc)
	}
}

func TestLowWavelengthsHurtThroughput(t *testing.T) {
	hi, _ := buildLoaded(t, config.StaticWL(64), 31, 2000, 15000)
	lo, _ := buildLoaded(t, config.StaticWL(8), 31, 2000, 15000)
	h := hi.Metrics().ThroughputBitsPerCycle()
	l := lo.Metrics().ThroughputBitsPerCycle()
	if l >= h {
		t.Fatalf("8WL throughput %v not below 64WL %v", l, h)
	}
	// Latency must be higher at 8WL.
	if lo.Metrics().Latency.Mean() <= hi.Metrics().Latency.Mean() {
		t.Fatalf("8WL latency %v not above 64WL %v",
			lo.Metrics().Latency.Mean(), hi.Metrics().Latency.Mean())
	}
}

func TestPowerAccountIntegration(t *testing.T) {
	engine := sim.NewEngine()
	net, err := New(engine, config.PEARLDyn())
	if err != nil {
		t.Fatal(err)
	}
	acct := power.NewAccount(config.NetworkFrequencyHz)
	net.SetAccount(acct)
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, _ := traffic.NewWorkload(engine, net, pair, 41)
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(5000)
	// Uniform 64WL network must average the paper's 1.16 W.
	if got := acct.AverageLaserPowerW(); got < 1.159 || got > 1.161 {
		t.Fatalf("avg laser power %v, want 1.16", got)
	}
	if acct.DeliveredBits() == 0 {
		t.Fatal("no delivered bits accounted")
	}
	if acct.EnergyPerBitJ() <= 0 {
		t.Fatal("no energy per bit")
	}
	b := acct.Breakdown()
	if b.Modulation == 0 || b.Conversion == 0 || b.Heating == 0 {
		t.Fatalf("missing photonic components: %+v", b)
	}
}

func TestTurnOnStallsRecorded(t *testing.T) {
	net, _ := buildLoaded(t, config.DynRW(500), 51, 2000, 30000)
	if net.Metrics().StateResidency.Fraction(64) == 1 {
		t.Skip("workload never left 64WL; no stalls expected")
	}
	if net.AuxCounters().TurnOnStalls == 0 {
		t.Fatal("state changes occurred but no turn-on stalls recorded")
	}
}

func TestInjectValidation(t *testing.T) {
	net, err := New(sim.NewEngine(), config.PEARLDyn())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*noc.Packet{
		noc.NewRequest(1, -1, 2, noc.ClassCPU, noc.SrcCPUL1D, 0),
		noc.NewRequest(2, 0, 99, noc.ClassCPU, noc.SrcCPUL1D, 0),
		noc.NewRequest(3, 4, 4, noc.ClassCPU, noc.SrcCPUL1D, 0),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", p)
				}
			}()
			net.Inject(p)
		}()
	}
}

func TestInjectBackpressure(t *testing.T) {
	net, err := New(sim.NewEngine(), config.PEARLDyn())
	if err != nil {
		t.Fatal(err)
	}
	// Fill router 0's CPU buffer (64 slots of 1-flit requests) without
	// ever ticking the network.
	var id uint64
	accepted := 0
	for i := 0; i < 200; i++ {
		id++
		if net.Inject(noc.NewRequest(id, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, 0)) {
			accepted++
		}
	}
	if accepted != config.Default().CPUBufferSlots {
		t.Fatalf("accepted %d, want exactly the buffer capacity %d",
			accepted, config.Default().CPUBufferSlots)
	}
}

func TestConservationNoLoss(t *testing.T) {
	// Stop injection, drain, and check every accepted packet is either
	// delivered or still queued — the network must not lose packets.
	engine := sim.NewEngine()
	net, err := New(engine, config.PEARLDyn())
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	net.SetDeliveryHandler(func(*noc.Packet, int64) { delivered++ })
	engine.Register(net)
	var id uint64
	accepted := 0
	for r := 0; r < config.NumClusterRouters; r++ {
		for i := 0; i < 10; i++ {
			id++
			dst := (r + 1 + i) % config.NumRouters
			if dst == r {
				dst = (dst + 1) % config.NumRouters
			}
			class := noc.ClassCPU
			src := noc.SrcCPUL1D
			if i%2 == 1 {
				class = noc.ClassGPU
				src = noc.SrcGPUL1
			}
			p := noc.NewRequest(id, r, dst, class, src, 0)
			if net.Inject(p) {
				accepted++
			}
		}
	}
	engine.Run(2000)
	if delivered != accepted {
		t.Fatalf("delivered %d of %d accepted packets (in flight: %d)",
			delivered, accepted, net.InFlight())
	}
	if net.InFlight() != 0 {
		t.Fatalf("network not drained: %d in flight", net.InFlight())
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// Construct the pathology the DBA fixes: a long GPU response queued
	// ahead of a CPU request on the same router. Under FCFS the CPU
	// packet waits for the full GPU serialization; under Dyn it leaves
	// in parallel.
	delay := func(cfg config.Config) int64 {
		engine := sim.NewEngine()
		net, err := New(engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cpuArrival int64 = -1
		net.SetDeliveryHandler(func(p *noc.Packet, c int64) {
			if p.Class == noc.ClassCPU {
				cpuArrival = c
			}
		})
		engine.Register(net)
		// Two long GPU responses enqueued strictly before the CPU
		// request: under FCFS the second response blocks the CPU packet
		// behind a 10-cycle serialization; under Dyn the CPU class
		// transmits in parallel on its own share.
		gpu1 := noc.NewResponse(1, 0, 1, noc.ClassGPU, noc.SrcGPUL2Down, 0)
		gpu2 := noc.NewResponse(2, 0, 1, noc.ClassGPU, noc.SrcGPUL2Down, 0)
		if !net.Inject(gpu1) || !net.Inject(gpu2) {
			t.Fatal("gpu injection failed")
		}
		engine.Run(1)
		cpu := noc.NewRequest(3, 0, 2, noc.ClassCPU, noc.SrcCPUL1D, 0)
		if !net.Inject(cpu) {
			t.Fatal("cpu injection failed")
		}
		engine.Run(100)
		if cpuArrival < 0 {
			t.Fatal("CPU packet never arrived")
		}
		return cpuArrival
	}
	fcfs := delay(config.PEARLFCFS())
	dyn := delay(config.PEARLDyn())
	if dyn >= fcfs {
		t.Fatalf("DBA did not beat FCFS under HOL blocking: dyn=%d fcfs=%d", dyn, fcfs)
	}
}

func TestAccessors(t *testing.T) {
	net, _ := buildLoaded(t, config.PEARLDyn(), 61, 500, 500)
	if net.Config().Name() != "PEARL-Dyn(64WL)" {
		t.Error("Config accessor wrong")
	}
	if net.Account() != nil {
		t.Error("Account should be nil when unset")
	}
	if net.Router(0).CoreOccupancy(noc.ClassCPU) < 0 {
		t.Error("occupancy negative")
	}
	if net.AuxCounters().Arrived == 0 {
		t.Error("no arrivals counted")
	}
}
