package core

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/photonic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Aux carries secondary counters outside the headline metrics.
type Aux struct {
	// TurnOnStalls counts laser up-switches that stalled transmission.
	TurnOnStalls uint64
	// Arrived counts packets that reached a destination's receive
	// buffer (measured or not).
	Arrived uint64
}

// Network is the PEARL optical crossbar: 16 cluster routers plus the L3
// router, all driven in lockstep as one engine component.
type Network struct {
	engine *sim.Engine
	cfg    config.Config

	routers [config.NumRouters]*Router

	policy       StatePolicy
	initialState photonic.WLState
	turnOnCycles int

	acct    *power.Account
	metrics *stats.Network
	aux     Aux

	onDeliver  func(p *noc.Packet, cycle int64)
	windowHook func(routerID int, feats []float64, injected int64, betaTotal float64, next photonic.WLState)

	measuring bool
}

// New validates the configuration and builds the network. Register the
// returned network with the engine after the traffic workload so packets
// injected in a cycle are visible to routers the same cycle.
func New(engine *sim.Engine, cfg config.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		engine:       engine,
		cfg:          cfg,
		metrics:      stats.NewNetwork(),
		turnOnCycles: cfg.TurnOnCycles(),
	}
	// Initial state: the configured static state, or full power for the
	// scaling policies (they scale down from 64 WL).
	switch cfg.Power {
	case config.PowerStatic:
		s, err := photonic.StateForWavelengths(cfg.StaticWavelengths)
		if err != nil {
			return nil, err
		}
		n.initialState = s
		n.policy = StaticPolicy{State: s}
	case config.PowerReactive:
		n.initialState = photonic.WL64
		n.policy = ReactivePolicy{Thresholds: cfg.Thresholds, Allow8WL: cfg.Allow8WL}
	case config.PowerML, config.PowerProteus, config.PowerD3NOC, config.PowerOnline, config.PowerRL:
		// Controller-installed policies: they scale down from full power,
		// like the other scaling policies.
		n.initialState = photonic.WL64
		n.policy = nil // set via SetStatePolicy
	default:
		return nil, errors.New("core: unknown power policy " + cfg.Power.String())
	}
	for i := range n.routers {
		n.routers[i] = newRouter(i, n)
	}
	return n, nil
}

// Config returns the build configuration.
func (n *Network) Config() config.Config { return n.cfg }

// Metrics returns the measurement accumulator.
func (n *Network) Metrics() *stats.Network { return n.metrics }

// AuxCounters returns the secondary counters.
func (n *Network) AuxCounters() Aux { return n.aux }

// Router returns router i for inspection in tests and tools.
func (n *Network) Router(i int) *Router { return n.routers[i] }

// SetAccount attaches a power/energy accumulator.
func (n *Network) SetAccount(a *power.Account) { n.acct = a }

// Account returns the attached power account, if any.
func (n *Network) Account() *power.Account { return n.acct }

// SetDeliveryHandler installs the callback invoked as packets eject to
// cores (the traffic workload's OnDeliver).
func (n *Network) SetDeliveryHandler(h func(p *noc.Packet, cycle int64)) { n.onDeliver = h }

// SetWindowHook installs a per-router reservation-window callback used by
// the ML data-collection pipeline: it receives the window's feature
// snapshot (valid for the call, as WindowInfo.Features), the 128-bit flits
// injected during that window (the label for the previous window), the
// mean occupancy, and the chosen next state.
func (n *Network) SetWindowHook(h func(routerID int, feats []float64, injected int64, betaTotal float64, next photonic.WLState)) {
	n.windowHook = h
}

// SetStatePolicy overrides the wavelength-state policy; the training
// pipeline uses this to run random-state data-collection passes.
func (n *Network) SetStatePolicy(p StatePolicy) { n.policy = p }

// StartMeasurement begins recording delivery statistics and state
// residency (end of warmup).
func (n *Network) StartMeasurement() { n.measuring = true }

// StopMeasurement freezes statistics, stamps the measured duration and
// seals the latency histograms.
func (n *Network) StopMeasurement(measuredCycles int64) {
	n.measuring = false
	n.metrics.MeasuredCycles = measuredCycles
	n.metrics.Seal()
}

// Inject enqueues a packet at its source router's class buffer. It
// reports false when the buffer is full this cycle.
func (n *Network) Inject(p *noc.Packet) bool {
	checkEndpoints(p.Src, p.Dst)
	return n.routers[p.Src].inject(p, n.engine.Cycle())
}

// Admits reports whether Inject would accept a packet of bits bits from
// src to dst in class this cycle, changing nothing: its flits fit the
// class buffer's free slots and the buffer holds fewer packets than
// slots, the two tests noc.Buffer.Push makes.
func (n *Network) Admits(src, dst int, class noc.Class, bits int) bool {
	checkEndpoints(src, dst)
	b := n.routers[src].coreIn[class]
	return (bits+config.FlitBits-1)/config.FlitBits <= b.Free() && b.Len() < b.Capacity()
}

func checkEndpoints(src, dst int) {
	if src < 0 || src >= config.NumRouters {
		panic(fmt.Sprintf("core: inject with bad source %d", src))
	}
	if dst < 0 || dst >= config.NumRouters || dst == src {
		panic(fmt.Sprintf("core: inject with bad destination %d (src %d)", dst, src))
	}
}

// Tick advances every router one cycle in index order, then global
// accounting.
func (n *Network) Tick(cycle int64) {
	for _, r := range n.routers {
		r.tick(cycle)
	}
	if n.acct != nil {
		n.acct.AddCycle()
	}
}

// HandleEvent implements sim.Handler for the typed arrival events
// scheduled by Router.finish: ptr is the packet, arg its class.
func (n *Network) HandleEvent(cycle int64, ptr any, arg int64) {
	n.arrive(ptr.(*noc.Packet), noc.Class(arg), cycle)
}

// arrive lands a transmitted packet in its destination's receive buffer;
// space was reserved at transmission start.
func (n *Network) arrive(p *noc.Packet, class noc.Class, cycle int64) {
	dst := n.routers[p.Dst]
	flits := p.Flits(config.FlitBits)
	dst.reserved[class] -= flits
	if dst.reserved[class] < 0 {
		panic("core: reservation accounting went negative")
	}
	if !dst.netIn[class].Push(p) {
		panic("core: reserved arrival found a full buffer")
	}
	p.ArriveCycle = cycle
	p.Hops = 1
	dst.collector.CountReceive(p)
	n.aux.Arrived++
}

// deliver hands an ejected packet to statistics and the workload.
func (n *Network) deliver(p *noc.Packet, cycle int64) {
	if n.measuring {
		n.metrics.Delivered.Add(int(p.Class), p.SizeBits)
		lat := cycle - p.InjectCycle
		if p.Class == noc.ClassCPU {
			n.metrics.CPULatency.Add(lat)
		} else {
			n.metrics.GPULatency.Add(lat)
		}
	}
	if n.acct != nil {
		n.acct.AddDeliveredBits(p.SizeBits)
	}
	if n.onDeliver != nil {
		n.onDeliver(p, cycle)
	}
}

// InFlight reports packets buffered or on the wire, for drain checks.
func (n *Network) InFlight() int {
	total := 0
	for _, r := range n.routers {
		for c := 0; c < noc.NumClasses; c++ {
			total += r.coreIn[c].Len() + r.netIn[c].Len() + r.reserved[c]
		}
	}
	return total
}

// WavelengthsOn reports the mean per-router wavelength count currently
// powered — the instantaneous photonic state the streaming layer
// samples at reservation-window boundaries. Read-only and off the
// per-cycle hot path (routers already cache their state's wavelength
// count).
func (n *Network) WavelengthsOn() float64 {
	sum := 0
	for _, r := range n.routers {
		sum += r.stateWL
	}
	return float64(sum) / float64(len(n.routers))
}
