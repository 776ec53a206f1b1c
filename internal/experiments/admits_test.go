package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// injectOnly is a network with its admission check hidden: the workload
// sees a target with Inject alone, so it builds every packet it draws
// and lets Inject refuse it. refused counts those refusals.
type injectOnly struct {
	net     network
	refused *int
}

func (h injectOnly) Inject(p *noc.Packet) bool {
	ok := h.net.Inject(p)
	if !ok {
		*h.refused++
	}
	return ok
}

// admitSide is one stack of the admission differential: build's wiring,
// with the workload's target either the bare network or injectOnly, and
// the delivered packets' IDs and cycles folded into ids.
type admitSide struct {
	rep     stack
	refused int
	ids     uint64
}

func newAdmitSide(t *testing.T, p Point, opts Options, hide bool) *admitSide {
	t.Helper()
	s := &admitSide{}
	engine := sim.NewEngine()
	wseed := runSeed(opts.Seed, p.Pair.Name())
	r := stack{engine: engine, name: p.Name(), pair: p.Pair}
	if p.Backend == BackendCMESH {
		net, err := cmesh.New(engine, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		net.SetLinkScale(max(p.LinkScale, 1))
		r.net = net
	} else {
		net, err := core.New(engine, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := p.controller()
		if err != nil {
			t.Fatal(err)
		}
		pol, err := ctrl.Policy(wseed)
		if err != nil {
			t.Fatal(err)
		}
		net.SetStatePolicy(pol)
		r.net, r.photonic = net, net
	}
	r.acct = power.NewAccount(config.NetworkFrequencyHz)
	r.net.SetAccount(r.acct)
	var target traffic.Target = r.net
	if hide {
		target = injectOnly{net: r.net, refused: &s.refused}
	}
	w, err := traffic.NewWorkload(engine, target, p.Pair, wseed)
	if err != nil {
		t.Fatal(err)
	}
	r.workload = w
	r.net.SetDeliveryHandler(func(pkt *noc.Packet, cycle int64) {
		s.ids = (s.ids^pkt.ID)*1099511628211 ^ uint64(cycle)
		w.OnDeliver(pkt, cycle)
	})
	engine.Register(w)
	engine.Register(r.net)
	s.rep = r
	return s
}

func (s *admitSide) run(opts Options) Result {
	s.rep.engine.Run(opts.WarmupCycles)
	s.rep.startMeasure()
	s.rep.engine.Run(opts.MeasureCycles)
	s.rep.stopMeasure(opts.MeasureCycles)
	return s.rep.finalize()
}

// TestAdmitsMatchesBuildAndRefuse holds the workload's admission check
// to the path it replaces. With the check, a packet the network would
// refuse is never built; without it (injectOnly), the packet is built,
// refused and recycled. Both must make the same draws and take the same
// packet IDs, so the Results, the workload counters and every delivered
// packet's ID and cycle must be equal. The bare side is also held to Run,
// so the stacks here are the ones experiments build. The points cover
// PEARL at full power, with reactive scaling and at a static 16
// wavelengths under FCFS, and CMESH at link scales 1, 2 and 4, where the
// mesh saturates and most injections are refused.
func TestAdmitsMatchesBuildAndRefuse(t *testing.T) {
	fcfs16 := config.StaticWL(16)
	fcfs16.Bandwidth = config.PolicyFCFS
	points := []Point{
		{Backend: BackendPEARL, Config: config.PEARLDyn()},
		{Backend: BackendPEARL, Config: config.DynRW(500)},
		{Backend: BackendPEARL, Config: fcfs16},
		{Backend: BackendCMESH, Config: config.Default(), LinkScale: 1},
		{Backend: BackendCMESH, Config: config.Default(), LinkScale: 2},
		{Backend: BackendCMESH, Config: config.Default(), LinkScale: 4},
	}
	pairs := traffic.TestPairs()[:3]
	for _, base := range points {
		t.Run(fmt.Sprintf("%s/%s", base.Backend, base.Name()), func(t *testing.T) {
			refused := 0
			for _, pair := range pairs {
				for _, seed := range []uint64{2018, 7} {
					p := base
					p.Pair = pair
					opts := Options{Seed: seed, WarmupCycles: 300, MeasureCycles: 2000}
					bare, hidden := newAdmitSide(t, p, opts, false), newAdmitSide(t, p, opts, true)
					got, want := bare.run(opts), hidden.run(opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d: Result with Admits %+v, build-and-refuse %+v", pair.Name(), seed, got, want)
					}
					gw, hw := bare.rep.workload, hidden.rep.workload
					if gw.Injected != hw.Injected || gw.Retired != hw.Retired || gw.Shed != hw.Shed {
						t.Fatalf("%s seed %d: Injected %v Retired %d Shed %d, build-and-refuse %v %d %d",
							pair.Name(), seed, gw.Injected, gw.Retired, gw.Shed, hw.Injected, hw.Retired, hw.Shed)
					}
					if bare.ids != hidden.ids {
						t.Fatalf("%s seed %d: delivered packet IDs or cycles differ", pair.Name(), seed)
					}
					run, err := Run(context.Background(), p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, run) {
						t.Fatalf("%s seed %d: Result %+v, Run %+v", pair.Name(), seed, got, run)
					}
					refused += hidden.refused
				}
			}
			if refused == 0 {
				t.Fatal("no injection was refused: the admission check was never asked a question that mattered")
			}
			t.Logf("%d refused injections", refused)
		})
	}
}
