package cmesh

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func build(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	engine := sim.NewEngine()
	net, err := New(engine, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	return engine, net
}

func TestSinglePacketTraversal(t *testing.T) {
	engine, net := build(t)
	var arrived *noc.Packet
	var when int64
	net.SetDeliveryHandler(func(p *noc.Packet, c int64) { arrived, when = p, c })
	engine.Register(net)
	// Corner to corner: router 0 -> router 15 is 6 hops.
	p := noc.NewRequest(1, 0, 15, noc.ClassCPU, noc.SrcCPUL1D, 0)
	if !net.Inject(p) {
		t.Fatal("inject failed")
	}
	engine.Run(50)
	if arrived == nil {
		t.Fatal("packet never arrived")
	}
	if arrived.Hops != 6 {
		t.Fatalf("hops = %d, want 6", arrived.Hops)
	}
	// 6 link traversals at 1 cycle each plus per-hop arbitration; the
	// latency must be at least the hop count.
	if when < 6 {
		t.Fatalf("arrival at cycle %d too fast for 6 hops", when)
	}
	if net.InFlight() != 0 {
		t.Fatal("mesh not drained")
	}
}

func TestMultiFlitPacketStaysIntact(t *testing.T) {
	engine, net := build(t)
	var delivered []*noc.Packet
	net.SetDeliveryHandler(func(p *noc.Packet, _ int64) { delivered = append(delivered, p) })
	engine.Register(net)
	p := noc.NewResponse(1, 3, 12, noc.ClassGPU, noc.SrcL3, 0)
	if !net.Inject(p) {
		t.Fatal("inject failed")
	}
	engine.Run(100)
	if len(delivered) != 1 || delivered[0] != p {
		t.Fatalf("delivered %v", delivered)
	}
}

func TestL3Mapping(t *testing.T) {
	// Traffic to the L3 router id must land at an attachment point;
	// responses from the L3 enter near the requester.
	engine, net := build(t)
	var got *noc.Packet
	net.SetDeliveryHandler(func(p *noc.Packet, _ int64) { got = p })
	engine.Register(net)
	p := noc.NewRequest(1, 0, config.L3RouterID, noc.ClassCPU, noc.SrcCPUL1D, 0)
	if !net.Inject(p) {
		t.Fatal("inject failed")
	}
	engine.Run(50)
	if got == nil {
		t.Fatal("L3 request not delivered")
	}
	// Router 0 is nearest attachment 5 (2 hops) vs 10 (4 hops).
	if got.Hops != 2 {
		t.Fatalf("hops = %d, want 2 (attach at router 5)", got.Hops)
	}
}

func TestNodeForSymmetry(t *testing.T) {
	if nodeFor(3, 3) != 3 {
		t.Fatal("cluster ids map to themselves")
	}
	if nodeFor(config.L3RouterID, 0) != 5 {
		t.Fatalf("L3 near router 0 = %d, want 5", nodeFor(config.L3RouterID, 0))
	}
	if nodeFor(config.L3RouterID, 15) != 10 {
		t.Fatalf("L3 near router 15 = %d, want 10", nodeFor(config.L3RouterID, 15))
	}
}

func TestHopDistance(t *testing.T) {
	if hopDistance(0, 15) != 6 {
		t.Fatalf("corner distance = %d", hopDistance(0, 15))
	}
	if hopDistance(5, 5) != 0 {
		t.Fatal("self distance nonzero")
	}
	if hopDistance(0, 3) != 3 {
		t.Fatalf("row distance = %d", hopDistance(0, 3))
	}
}

func TestInjectBackpressure(t *testing.T) {
	_, net := build(t)
	accepted := 0
	var id uint64
	for i := 0; i < 500; i++ {
		id++
		if net.Inject(noc.NewRequest(id, 0, 15, noc.ClassCPU, noc.SrcCPUL1D, 0)) {
			accepted++
		}
	}
	if accepted != config.Default().CPUBufferSlots {
		t.Fatalf("accepted %d, want %d", accepted, config.Default().CPUBufferSlots)
	}
}

func TestInjectValidation(t *testing.T) {
	_, net := build(t)
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

func TestConservationUnderLoad(t *testing.T) {
	engine, net := build(t)
	rng := sim.NewRNG(5)
	delivered := 0
	net.SetDeliveryHandler(func(*noc.Packet, int64) { delivered++ })
	engine.Register(net)
	accepted := 0
	var id uint64
	for burst := 0; burst < 20; burst++ {
		for i := 0; i < 50; i++ {
			id++
			src := rng.Intn(16)
			dst := rng.Intn(17)
			for dst == src {
				dst = rng.Intn(17)
			}
			class := noc.ClassCPU
			srcLabel := noc.SrcCPUL1D
			if rng.Bernoulli(0.5) {
				class, srcLabel = noc.ClassGPU, noc.SrcGPUL1
			}
			var p *noc.Packet
			if rng.Bernoulli(0.3) {
				p = noc.NewResponse(id, src, dst, class, srcLabel, engine.Cycle())
			} else {
				p = noc.NewRequest(id, src, dst, class, srcLabel, engine.Cycle())
			}
			if net.Inject(p) {
				accepted++
			}
		}
		engine.Run(20)
	}
	engine.Run(5000)
	if delivered != accepted {
		t.Fatalf("delivered %d of %d accepted (in flight %d)", delivered, accepted, net.InFlight())
	}
	if net.InFlight() != 0 {
		t.Fatal("mesh not drained")
	}
}

func TestXYOrderingNoDeadlock(t *testing.T) {
	// Saturate the mesh with adversarial all-to-all traffic and verify
	// forward progress (wormhole + XY must not deadlock).
	engine, net := build(t)
	delivered := 0
	net.SetDeliveryHandler(func(*noc.Packet, int64) { delivered++ })
	engine.Register(net)
	var id uint64
	for round := 0; round < 50; round++ {
		for src := 0; src < 16; src++ {
			dst := 15 - src
			if dst == src {
				continue
			}
			id++
			net.Inject(noc.NewResponse(id, src, dst, noc.ClassGPU, noc.SrcGPUL2Down, engine.Cycle()))
		}
		engine.Run(5)
	}
	engine.Run(10000)
	if net.InFlight() != 0 {
		t.Fatalf("mesh deadlocked with %d flits in flight after drain window", net.InFlight())
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestWithWorkload(t *testing.T) {
	engine, net := build(t)
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, err := traffic.NewWorkload(engine, net, pair, 3)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(2000)
	net.StartMeasurement()
	w.StartMeasurement()
	engine.Run(10000)
	net.StopMeasurement(10000)
	m := net.Metrics()
	if m.Delivered.TotalPackets() == 0 {
		t.Fatal("no packets delivered")
	}
	if m.Delivered.Packets[0] == 0 || m.Delivered.Packets[1] == 0 {
		t.Fatalf("class starved: %+v", m.Delivered)
	}
	if w.Retired == 0 {
		t.Fatal("no round trips completed")
	}
}

func TestCMESHSlowerThanSingleHop(t *testing.T) {
	// Mean latency across the mesh must exceed the photonic crossbar's
	// fixed pipeline: multiple hops, 2-cycle-ish per hop.
	engine, net := build(t)
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, _ := traffic.NewWorkload(engine, net, pair, 9)
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(1000)
	net.StartMeasurement()
	engine.Run(5000)
	net.StopMeasurement(5000)
	if net.Metrics().Latency.Mean() < 4 {
		t.Fatalf("CMESH latency %v implausibly low", net.Metrics().Latency.Mean())
	}
}

func TestEnergyAccounting(t *testing.T) {
	engine, net := build(t)
	acct := power.NewAccount(config.NetworkFrequencyHz)
	net.SetAccount(acct)
	engine.Register(net)
	p := noc.NewRequest(1, 0, 3, noc.ClassCPU, noc.SrcCPUL1D, 0)
	net.Inject(p)
	engine.Run(50)
	b := acct.Breakdown()
	// 3 hops with links plus final ejection: 4 router traversals, 3 link
	// traversals.
	wantRouter := 4 * FlitBits * power.CMESHRouterJPerBit
	wantLink := 3 * FlitBits * power.CMESHLinkJPerBitPerHop
	if diff := b.ElectricalRouter - wantRouter; diff < -1e-18 || diff > 1e-18 {
		t.Fatalf("router energy %v, want %v", b.ElectricalRouter, wantRouter)
	}
	if diff := b.ElectricalLink - wantLink; diff < -1e-18 || diff > 1e-18 {
		t.Fatalf("link energy %v, want %v", b.ElectricalLink, wantLink)
	}
	if b.ElectricalLeakage <= 0 {
		t.Fatal("no leakage charged")
	}
	if b.Laser != 0 {
		t.Fatal("electrical mesh must not charge laser energy")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		engine := sim.NewEngine()
		net, _ := New(engine, config.Default())
		pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
		w, _ := traffic.NewWorkload(engine, net, pair, 77)
		net.SetDeliveryHandler(w.OnDeliver)
		engine.Register(w)
		engine.Register(net)
		net.StartMeasurement()
		w.StartMeasurement()
		engine.Run(8000)
		net.StopMeasurement(8000)
		return net.Metrics().Delivered.TotalPackets()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default()
	cfg.CPUBufferSlots = 0
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Fatal("expected error")
	}
}

// The reference router tick: the full scan this package ran before the
// occupancy masks, kept word for word (free functions instead of
// methods, its own forward and pointer-search credit return) so that it
// neither reads nor maintains occupied, wants or settled. It probes all
// 18 input VCs for route compute and again for each of the 5 output
// ports; TestOccupancyTickMatchesFullScan holds the mask-driven tick to
// its every decision.

func refTick(n *Network, cycle int64) {
	for _, r := range n.routers {
		refTickRouter(n, r, cycle)
	}
	if n.acct != nil {
		n.acct.AddElectricalLeakage(NumNodes)
		n.acct.AddCycle()
	}
}

func refTickRouter(n *Network, r *router, cycle int64) {
	for _, ref := range r.inputs {
		refRouteAndAllocate(n, r, ref.vc, cycle)
	}
	for out := 0; out <= portLocal; out++ {
		refArbitrate(n, r, out, r.inputs[:], cycle)
	}
}

func refHeadReady(vc *inVC, cycle int64) (flit, bool) {
	if vc.q.len() == 0 {
		return flit{}, false
	}
	head := *vc.q.front()
	if head.readyAt > cycle {
		return flit{}, false
	}
	return head.f, true
}

func refRouteAndAllocate(n *Network, r *router, vc *inVC, cycle int64) {
	head, ok := refHeadReady(vc, cycle)
	if !ok {
		return
	}
	if head.isHead && !vc.routed {
		vc.outPort = n.route(r, head.pkt)
		vc.routed = true
		vc.hasVC = false
	}
	if !vc.routed || vc.outPort == portLocal || vc.hasVC {
		return
	}
	for v := 0; v < VCsPerPort; v++ {
		st := &r.out[vc.outPort][v]
		if st.owner == nil && st.credits > 0 {
			st.owner = head.pkt
			vc.outVC = v
			vc.hasVC = true
			return
		}
	}
}

func refArbitrate(n *Network, r *router, out int, inputs []inputRef, cycle int64) {
	if cycle < r.outBusyUntil[out] {
		return
	}
	nIn := len(inputs)
	start := r.rr[out]
	for k := 0; k < nIn; k++ {
		ref := inputs[(start+k)%nIn]
		vc := ref.vc
		head, ok := refHeadReady(vc, cycle)
		if !ok || !vc.routed || vc.outPort != out {
			continue
		}
		if out != portLocal {
			if !vc.hasVC {
				continue
			}
			if r.out[out][vc.outVC].credits <= 0 {
				continue
			}
		}
		refForward(n, r, ref, head, cycle)
		r.rr[out] = (start + k + 1) % nIn
		return
	}
}

func refForward(n *Network, r *router, ref inputRef, f flit, cycle int64) {
	vc := ref.vc
	vc.q.pop()
	if ref.local {
		n.slotsUsed[r.id][ref.class]--
	}
	if n.acct != nil {
		n.acct.AddElectricalHop(FlitBits, vc.outPort != portLocal)
	}
	r.outBusyUntil[vc.outPort] = cycle + n.linkCyclesPerFlit
	if vc.outPort == portLocal {
		n.eject(f, cycle)
	} else {
		st := &r.out[vc.outPort][vc.outVC]
		st.credits--
		nb := refNeighbor(n, r, vc.outPort)
		dvc := &nb.in[refOpposite(vc.outPort)][vc.outVC]
		dvc.q.push(timedFlit{f: f, readyAt: cycle + n.linkCyclesPerFlit + RouterPipelineCycles})
		if f.isHead {
			f.pkt.Hops++
		}
		if f.isTail {
			st.owner = nil
		}
	}
	if f.isTail {
		vc.routed = false
		vc.hasVC = false
	}
	if !ref.local {
		refReturnCredit(n, r, vc)
	}
}

func refReturnCredit(n *Network, r *router, vc *inVC) {
	for p := 0; p < numNeighborPorts; p++ {
		for v := 0; v < VCsPerPort; v++ {
			if &r.in[p][v] == vc {
				up := refNeighbor(n, r, p)
				up.out[refOpposite(p)][v].credits++
				if up.out[refOpposite(p)][v].credits > SlotsPerVC {
					panic("cmesh: credit overflow")
				}
				return
			}
		}
	}
	panic("cmesh: credit return for unknown VC")
}

// refNeighbor and refOpposite are the mesh geometry computed from router
// coordinates, against which the tick's neighbor and port tables are
// held.
func refNeighbor(n *Network, r *router, port int) *router {
	switch port {
	case portNorth:
		return n.routers[r.id-Width]
	case portSouth:
		return n.routers[r.id+Width]
	case portEast:
		return n.routers[r.id+1]
	case portWest:
		return n.routers[r.id-1]
	default:
		panic(fmt.Sprintf("cmesh: neighbor of port %d", port))
	}
}

func refOpposite(port int) int {
	switch port {
	case portNorth:
		return portSouth
	case portSouth:
		return portNorth
	case portEast:
		return portWest
	case portWest:
		return portEast
	default:
		panic(fmt.Sprintf("cmesh: opposite of port %d", port))
	}
}

// checkMasks asserts that every router's input masks, the front-flit
// arrival cycle it keeps for each occupied input, the holder of each
// downstream VC and its free-VC masks say exactly what its VCs' own
// state says.
func checkMasks(t *testing.T, n *Network, cycle int64) {
	t.Helper()
	for _, r := range n.routers {
		for i, ref := range r.inputs {
			vc, bit := ref.vc, uint32(1)<<i
			if got, want := r.occupied&bit != 0, vc.q.len() > 0; got != want {
				t.Fatalf("cycle %d router %d input %d: occupied=%v with %d flits buffered", cycle, r.id, i, got, vc.q.len())
			}
			if vc.q.len() > 0 && r.ready[i] != vc.q.front().readyAt {
				t.Fatalf("cycle %d router %d input %d: ready=%d, front flit arrives at %d", cycle, r.id, i, r.ready[i], vc.q.front().readyAt)
			}
			for out := range r.wants {
				if got, want := r.wants[out]&bit != 0, vc.routed && vc.outPort == out; got != want {
					t.Fatalf("cycle %d router %d input %d: wants[%d]=%v, routed=%v outPort=%d", cycle, r.id, i, out, got, vc.routed, vc.outPort)
				}
			}
			if got, want := r.settled&bit != 0, vc.routed && (vc.outPort == portLocal || vc.hasVC); got != want {
				t.Fatalf("cycle %d router %d input %d: settled=%v, routed=%v outPort=%d hasVC=%v", cycle, r.id, i, got, vc.routed, vc.outPort, vc.hasVC)
			}
			holds := vc.routed && vc.outPort != portLocal && vc.hasVC
			if got, want := r.starved&bit != 0, holds && r.out[vc.outPort][vc.outVC].credits == 0; got != want {
				t.Fatalf("cycle %d router %d input %d: starved=%v, holds VC %v", cycle, r.id, i, got, holds)
			}
			if holds && r.out[vc.outPort][vc.outVC].holder != i {
				t.Fatalf("cycle %d router %d input %d: holds out[%d][%d], whose holder is %d", cycle, r.id, i, vc.outPort, vc.outVC, r.out[vc.outPort][vc.outVC].holder)
			}
		}
		for p := range r.out {
			for v, st := range r.out[p] {
				if got, want := r.free[p]&(1<<v) != 0, st.owner == nil && st.credits > 0; got != want {
					t.Fatalf("cycle %d router %d out[%d][%d]: free=%v, owner %d credits %d", cycle, r.id, p, v, got, ownerID(st.owner), st.credits)
				}
			}
		}
		if r.occupied>>numInputs != 0 {
			t.Fatalf("cycle %d router %d: occupied %#x has bits past the input list", cycle, r.id, r.occupied)
		}
	}
}

// delivery is one packet handed to the delivery callback.
type delivery struct {
	id    uint64
	cycle int64
	hops  int
}

// diffSide is one of the two meshes a differential run drives.
type diffSide struct {
	engine    *sim.Engine
	net       *Network
	acct      *power.Account
	delivered []delivery
}

func newDiffSide(t *testing.T, scale int, tick func(*Network, int64)) *diffSide {
	t.Helper()
	s := &diffSide{engine: sim.NewEngine(), acct: power.NewAccount(config.NetworkFrequencyHz)}
	net, err := New(s.engine, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	net.SetLinkScale(scale)
	net.SetAccount(s.acct)
	net.SetDeliveryHandler(func(p *noc.Packet, c int64) {
		s.delivered = append(s.delivered, delivery{id: p.ID, cycle: c, hops: p.Hops})
	})
	s.engine.Register(sim.ComponentFunc(func(c int64) { tick(net, c) }))
	s.net = net
	return s
}

// ownerID names the packet holding a downstream VC (0 = free).
func ownerID(p *noc.Packet) uint64 {
	if p == nil {
		return 0
	}
	return p.ID
}

// compareMeshes fails unless every piece of router state the tick reads
// or writes agrees between the two meshes.
func compareMeshes(t *testing.T, got, want *Network, cycle int64) {
	t.Helper()
	if g, w := got.InFlight(), want.InFlight(); g != w {
		t.Fatalf("cycle %d: InFlight %d, reference %d", cycle, g, w)
	}
	for id, g := range got.routers {
		w := want.routers[id]
		if g.rr != w.rr {
			t.Fatalf("cycle %d router %d: rr %v, reference %v", cycle, id, g.rr, w.rr)
		}
		if g.outBusyUntil != w.outBusyUntil {
			t.Fatalf("cycle %d router %d: outBusyUntil %v, reference %v", cycle, id, g.outBusyUntil, w.outBusyUntil)
		}
		if gu, wu := got.slotsUsed[id], want.slotsUsed[id]; gu != wu {
			t.Fatalf("cycle %d router %d: slotsUsed %v, reference %v", cycle, id, gu, wu)
		}
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				gs, ws := g.out[p][v], w.out[p][v]
				if gs.credits != ws.credits || ownerID(gs.owner) != ownerID(ws.owner) {
					t.Fatalf("cycle %d router %d out[%d][%d]: credits %d owner %d, reference credits %d owner %d",
						cycle, id, p, v, gs.credits, ownerID(gs.owner), ws.credits, ownerID(ws.owner))
				}
			}
		}
		for i := range g.inputs {
			gv, wv := g.inputs[i].vc, w.inputs[i].vc
			if gv.q.len() != wv.q.len() || gv.routed != wv.routed || gv.hasVC != wv.hasVC ||
				(gv.routed && gv.outPort != wv.outPort) || (gv.hasVC && gv.outVC != wv.outVC) {
				t.Fatalf("cycle %d router %d input %d: %d flits routed=%v out=%d hasVC=%v vc=%d, reference %d flits routed=%v out=%d hasVC=%v vc=%d",
					cycle, id, i, gv.q.len(), gv.routed, gv.outPort, gv.hasVC, gv.outVC,
					wv.q.len(), wv.routed, wv.outPort, wv.hasVC, wv.outVC)
			}
		}
	}
}

// TestOccupancyTickMatchesFullScan drives the mask-driven tick and the
// full-scan reference with the same seeded injection and holds them
// equal after every cycle: the delivery sequence (packet, cycle, hops),
// each round-robin pointer, link-busy time, credit count, VC owner and
// wormhole state, InFlight and, at the end, the energy account. Traffic
// is all-to-all over the 16 clusters and the L3, single- and five-flit
// packets of both classes, in bursts heavy enough to fill class queues
// (Inject must refuse on both sides alike), each followed by a drain to
// an empty mesh so that idle routers are skipped and woken again.
func TestOccupancyTickMatchesFullScan(t *testing.T) {
	const (
		bursts      = 6
		burstCycles = 120
		drainLimit  = 50000
	)
	for _, scale := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			got := newDiffSide(t, scale, (*Network).Tick)
			want := newDiffSide(t, scale, refTick)
			rng := sim.NewRNG(uint64(2018 + scale))
			var id uint64
			accepted, refused, drains, seen := 0, 0, 0, 0

			step := func() {
				cycle := got.engine.Cycle()
				got.engine.Step()
				want.engine.Step()
				if len(got.delivered) != len(want.delivered) {
					t.Fatalf("cycle %d: %d packets delivered, reference %d", cycle, len(got.delivered), len(want.delivered))
				}
				for ; seen < len(got.delivered); seen++ {
					if got.delivered[seen] != want.delivered[seen] {
						t.Fatalf("cycle %d: delivery %d is %+v, reference %+v", cycle, seen, got.delivered[seen], want.delivered[seen])
					}
				}
				compareMeshes(t, got.net, want.net, cycle)
				checkMasks(t, got.net, cycle)
			}

			for burst := 0; burst < bursts; burst++ {
				// Odd bursts add a hot source so its class queues fill.
				hot := -1
				if burst%2 == 1 {
					hot = rng.Intn(config.NumRouters)
				}
				for c := 0; c < burstCycles; c++ {
					for k := rng.Intn(12); k > 0; k-- {
						src := rng.Intn(config.NumRouters)
						if hot >= 0 && rng.Bernoulli(0.5) {
							src = hot
						}
						dst := rng.Intn(config.NumRouters)
						for dst == src {
							dst = rng.Intn(config.NumRouters)
						}
						class, label := noc.ClassCPU, noc.SrcCPUL1D
						if rng.Bernoulli(0.5) {
							class, label = noc.ClassGPU, noc.SrcGPUL1
						}
						mk := noc.NewRequest
						if rng.Bernoulli(0.4) {
							mk = noc.NewResponse
						}
						id++
						now := got.engine.Cycle()
						ok := got.net.Inject(mk(id, src, dst, class, label, now))
						if refOK := want.net.Inject(mk(id, src, dst, class, label, now)); ok != refOK {
							t.Fatalf("cycle %d: Inject(%d->%d) = %v, reference %v", now, src, dst, ok, refOK)
						}
						if ok {
							accepted++
						} else {
							refused++
						}
					}
					step()
				}
				for n := 0; got.net.InFlight() > 0; n++ {
					if n == drainLimit {
						t.Fatalf("burst %d: %d flits still in flight after %d drain cycles", burst, got.net.InFlight(), drainLimit)
					}
					step()
				}
				drains++
				for _, r := range got.net.routers {
					if r.occupied != 0 {
						t.Fatalf("burst %d: router %d occupied %#x on an empty mesh", burst, r.id, r.occupied)
					}
				}
				for idle := 0; idle < 10; idle++ {
					step()
				}
			}

			if refused == 0 {
				t.Fatal("no injection was refused: the bursts never filled a class queue")
			}
			if len(got.delivered) != accepted {
				t.Fatalf("delivered %d of %d accepted packets", len(got.delivered), accepted)
			}
			if drains != bursts {
				t.Fatalf("drained %d times, want %d", drains, bursts)
			}
			if g, w := got.acct.Breakdown(), want.acct.Breakdown(); g != w {
				t.Fatalf("energy %+v, reference %+v", g, w)
			}
		})
	}
}
