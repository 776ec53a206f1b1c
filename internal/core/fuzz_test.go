package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/photonic"
	"repro/internal/sim"
)

// chaosPolicy switches wavelength states randomly every window — an
// adversarial schedule that exercises turn-on stalls, mid-transmission
// down-switches and share fluctuations simultaneously.
type chaosPolicy struct{ rng *sim.RNG }

func (p chaosPolicy) NextState(WindowInfo) photonic.WLState {
	return photonic.States()[p.rng.Intn(len(photonic.States()))]
}

// TestConservationUnderChaos floods the network with random traffic while
// a chaos policy thrashes the laser states, then drains and checks that
// every accepted packet is delivered exactly once.
func TestConservationUnderChaos(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		engine := sim.NewEngine()
		cfg := config.DynRW(100) // fast windows: many state changes
		cfg.Allow8WL = true
		net, err := New(engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		net.SetStatePolicy(chaosPolicy{rng: rng.Fork()})

		delivered := map[uint64]int{}
		net.SetDeliveryHandler(func(p *noc.Packet, _ int64) { delivered[p.ID]++ })
		engine.Register(net)

		accepted := map[uint64]bool{}
		var id uint64
		traffic := rng.Fork()
		// Inject random traffic for 5000 cycles.
		for cycle := 0; cycle < 5000; cycle++ {
			for i := 0; i < traffic.Intn(4); i++ {
				id++
				src := traffic.Intn(config.NumRouters)
				dst := traffic.Intn(config.NumRouters)
				for dst == src {
					dst = traffic.Intn(config.NumRouters)
				}
				class := noc.ClassCPU
				srcLabel := noc.SrcCPUL1D
				if traffic.Bernoulli(0.5) {
					class, srcLabel = noc.ClassGPU, noc.SrcGPUL1
				}
				var p *noc.Packet
				if traffic.Bernoulli(0.3) {
					p = noc.NewResponse(id, src, dst, class, srcLabel, engine.Cycle())
				} else {
					p = noc.NewRequest(id, src, dst, class, srcLabel, engine.Cycle())
				}
				if net.Inject(p) {
					accepted[p.ID] = true
				}
			}
			engine.Step()
		}
		// Drain.
		for i := 0; i < 200000 && net.InFlight() != 0; i++ {
			engine.Step()
		}
		if net.InFlight() != 0 {
			t.Fatalf("seed %d: %d packets stuck under chaos policy", seed, net.InFlight())
		}
		if len(delivered) != len(accepted) {
			t.Fatalf("seed %d: delivered %d of %d accepted", seed, len(delivered), len(accepted))
		}
		for pid, n := range delivered {
			if n != 1 {
				t.Fatalf("seed %d: packet %d delivered %d times", seed, pid, n)
			}
			if !accepted[pid] {
				t.Fatalf("seed %d: phantom delivery of %d", seed, pid)
			}
		}
	}
}

// TestLaserStallHonoursTurnOn verifies no transmission starts during the
// stabilisation window after an up-switch.
func TestLaserStallHonoursTurnOn(t *testing.T) {
	engine := sim.NewEngine()
	cfg := config.DynRW(100)
	cfg.LaserTurnOnNs = 32 // 64 cycles
	net, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Start everyone at 8WL, then force an up-switch via a static policy
	// change while traffic waits.
	net.SetStatePolicy(StaticPolicy{State: photonic.WL8})
	engine.Register(net)
	engine.Run(150) // let the first window boundary pull states to 8WL
	if net.Router(0).State() != photonic.WL8 {
		t.Fatalf("router 0 at %v, want 8WL", net.Router(0).State())
	}
	// Queue a packet, then swing the policy to 64WL.
	p := noc.NewRequest(1, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, engine.Cycle())
	if !net.Inject(p) {
		t.Fatal("inject failed")
	}
	var deliveredAt int64 = -1
	net.SetDeliveryHandler(func(_ *noc.Packet, c int64) { deliveredAt = c })
	net.SetStatePolicy(StaticPolicy{State: photonic.WL64})
	// Find router 0's next window boundary and run past it plus the
	// stall.
	engine.Run(400)
	if deliveredAt < 0 {
		t.Fatal("packet never delivered")
	}
	if net.AuxCounters().TurnOnStalls == 0 {
		t.Fatal("up-switch recorded no stall")
	}
}

// TestStateResidencyAccountsAllCycles confirms residency totals equal
// routers x measured cycles.
func TestStateResidencyAccountsAllCycles(t *testing.T) {
	net, _ := buildLoaded(t, config.DynRW(500), 7, 1000, 4000)
	res := net.Metrics().StateResidency
	want := int64(config.NumRouters) * 4000
	if res.Total() != want {
		t.Fatalf("residency total %d, want %d", res.Total(), want)
	}
}

// TestEjectionFIFOPerClass checks arrivals eject in arrival order within
// a class.
func TestEjectionFIFOPerClass(t *testing.T) {
	engine := sim.NewEngine()
	net, err := New(engine, config.PEARLDyn())
	if err != nil {
		t.Fatal(err)
	}
	var order []uint64
	net.SetDeliveryHandler(func(p *noc.Packet, _ int64) {
		if p.Class == noc.ClassCPU {
			order = append(order, p.ID)
		}
	})
	engine.Register(net)
	for i := uint64(1); i <= 10; i++ {
		if !net.Inject(noc.NewRequest(i, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, 0)) {
			t.Fatal("inject failed")
		}
	}
	engine.Run(200)
	if len(order) != 10 {
		t.Fatalf("delivered %d of 10", len(order))
	}
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("out-of-order ejection: %v", order)
		}
	}
}
