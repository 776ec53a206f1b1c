package pearl

import (
	"bytes"
	"testing"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// recordTrace captures a workload's injection stream against a live PEARL
// network.
func recordTrace(t *testing.T, cycles int64) []trace.Record {
	t.Helper()
	engine := sim.NewEngine()
	net, err := core.New(engine, config.PEARLDyn())
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	target := rec.Wrap(net)
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, err := traffic.NewWorkload(engine, target, pair, 99)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(cycles)
	return rec.Records()
}

func TestTraceRecordReplayAcrossNetworks(t *testing.T) {
	records := recordTrace(t, 8000)
	if len(records) < 100 {
		t.Fatalf("recorded only %d packets", len(records))
	}

	// Serialise and reload (full binary round trip).
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, records); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(records) {
		t.Fatalf("round trip lost records: %d vs %d", len(loaded), len(records))
	}

	// Replay into a photonic network and into the CMESH: every packet
	// must be delivered by both.
	replayInto := func(build func(*sim.Engine) (interface {
		Inject(p *noc.Packet) bool
	}, func() int)) (delivered int, inflight int) {
		engine := sim.NewEngine()
		target, inFlight := build(engine)
		player, err := trace.NewPlayer(target, loaded)
		if err != nil {
			t.Fatal(err)
		}
		engine.Register(player)
		last := loaded[len(loaded)-1].InjectCycle
		engine.Run(last + 1)
		engine.RunUntil(func() bool { return player.Done() && inFlight() == 0 }, 100000)
		return int(player.Injected), inFlight()
	}

	injP, leftP := replayInto(func(engine *sim.Engine) (interface {
		Inject(p *noc.Packet) bool
	}, func() int) {
		net, err := core.New(engine, config.StaticWL(32))
		if err != nil {
			t.Fatal(err)
		}
		engine.Register(net)
		return net, net.InFlight
	})
	if injP != len(loaded) || leftP != 0 {
		t.Fatalf("photonic replay: injected %d/%d, %d stuck", injP, len(loaded), leftP)
	}

	injC, leftC := replayInto(func(engine *sim.Engine) (interface {
		Inject(p *noc.Packet) bool
	}, func() int) {
		net, err := cmesh.New(engine, config.Default())
		if err != nil {
			t.Fatal(err)
		}
		engine.Register(net)
		return net, net.InFlight
	})
	if injC != len(loaded) || leftC != 0 {
		t.Fatalf("cmesh replay: injected %d/%d, %d stuck", injC, len(loaded), leftC)
	}
}

func TestDeterministicAcrossFullStack(t *testing.T) {
	// The entire stack — workload, network, power scaling, power
	// accounting — must be bit-reproducible.
	run := func() (uint64, float64, float64) {
		engine := sim.NewEngine()
		net, _ := core.New(engine, config.DynRW(500))
		acct := NewPowerAccount()
		net.SetAccount(acct)
		pair := traffic.Pair{CPU: traffic.CPUProfiles()[9], GPU: traffic.GPUProfiles()[9]}
		w, _ := traffic.NewWorkload(engine, net, pair, 123)
		net.SetDeliveryHandler(w.OnDeliver)
		engine.Register(w)
		engine.Register(net)
		net.StartMeasurement()
		w.StartMeasurement()
		engine.Run(15000)
		net.StopMeasurement(15000)
		return net.Metrics().Delivered.TotalBits(), acct.AverageLaserPowerW(), net.Metrics().Latency.Mean()
	}
	b1, p1, l1 := run()
	b2, p2, l2 := run()
	if b1 != b2 || p1 != p2 || l1 != l2 {
		t.Fatalf("full stack not deterministic: (%d,%v,%v) vs (%d,%v,%v)", b1, p1, l1, b2, p2, l2)
	}
}
