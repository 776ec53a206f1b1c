package core

import (
	"math/bits"
	"strconv"

	"repro/internal/config"
	"repro/internal/features"
	"repro/internal/noc"
	"repro/internal/photonic"
)

// Fixed pipeline latency added to every packet beyond link serialization:
// reservation broadcast, switch allocation + crossbar traversal,
// waveguide propagation, and O/E + destination buffer write (§III.A.3's
// RC/RB/SA/BW stages).
const PipelineCycles = 4

// EjectPerClassPerCycle bounds how many packets a cluster's cores can
// sink per class per cycle (the router's 8 outputs to CPUs and GPUs).
const EjectPerClassPerCycle = 4

// L3SendChannels gives the banked L3 router parallel send waveguides; the
// shared cache answers all 16 clusters, so a single SWMR channel would
// serialise the whole chip (§III.A.2 notes more optical layers for
// scaling). Laser power accounting still charges the L3 as one router so
// every configuration carries the identical constant bias.
const L3SendChannels = 8

// A bank's serializers are one bit each in a uint16 (Router.busyTx).
const _ uint16 = 1<<L3SendChannels - 1

// transmitter is one serializer driving the router's send waveguide for
// one class. Serialization is fluid: every cycle the in-flight packet
// advances by the class's current share of the active wavelengths, so
// Algorithm 1's per-cycle reallocation takes effect immediately — when
// the competing class drains, the survivor's transmission accelerates to
// the full link the very next cycle, and a mid-window laser down-switch
// slows it. A packet occupies the link for at least one two-cycle frame
// (photonic.FrameCycles).
type transmitter struct {
	pkt       *noc.Packet
	class     noc.Class
	remaining float64
	elapsed   int
}

// Router is one PEARL cluster (or L3) router on the optical crossbar.
type Router struct {
	id  int
	net *Network

	// coreIn are the per-class injection buffers fed by the local cores'
	// L1/L2 caches (or the L3 cache at the L3 router).
	coreIn [noc.NumClasses]*noc.Buffer
	// netIn are the per-class receive buffers fed by the photodetector
	// banks, drained toward the local cores.
	netIn [noc.NumClasses]*noc.Buffer
	// reserved counts netIn slots promised to in-flight packets so the
	// R-SWMR sender never transmits into a full receiver.
	reserved [noc.NumClasses]int

	// tx holds the per-class transmitters; the L3 router gets
	// L3SendChannels per class.
	tx [noc.NumClasses][]transmitter
	// busyTx[bank] has bit i set while tx[bank][i] carries a packet, so
	// the progress and start scans visit only busy or only free
	// serializers, in index order.
	busyTx [noc.NumClasses]uint16
	// txActive counts busy transmitters per packet class (indexed by the
	// in-flight packet's class, not the serializer bank — FCFS serializes
	// both classes through tx[0]). It makes txBusy/linkBusy O(1) and lets
	// idle routers skip the transmit scan entirely.
	txActive [noc.NumClasses]int

	state photonic.WLState
	// stateWL/stateWLf/stateBits cache Wavelengths() and BitsPerCycle()
	// for the current state; the state only changes at window boundaries
	// but these values are read every cycle.
	stateWL    int
	stateWLf   float64
	stateBits  float64
	stallUntil int64

	collector     *features.Collector
	betaSum       float64
	betaCycles    int64
	nextWindowEnd int64

	alloc Allocation
	// rates and rings memoise progressTransmissions' per-class serializer
	// rate (bits per cycle) and modulating ring count; they depend only
	// on alloc and the WL state, so setAlloc and setState refresh them.
	rates [noc.NumClasses]float64
	rings [noc.NumClasses]int
	// lastBetaCPU/lastBetaGPU memoize the occupancies Allocate last ran
	// on; Allocate is a pure function of them (bounds and step are fixed
	// per run), so identical betas reuse the previous allocation. -1 is
	// unreachable, forcing the first cycle to compute.
	lastBetaCPU float64
	lastBetaGPU float64
}

func newRouter(id int, net *Network) *Router {
	cfg := net.cfg
	r := &Router{id: id, net: net}
	name := "r" + strconv.Itoa(id)
	r.coreIn[noc.ClassCPU] = noc.NewBuffer(name+"-core-cpu", cfg.CPUBufferSlots, config.FlitBits)
	r.coreIn[noc.ClassGPU] = noc.NewBuffer(name+"-core-gpu", cfg.GPUBufferSlots, config.FlitBits)
	r.netIn[noc.ClassCPU] = noc.NewBuffer(name+"-net-cpu", cfg.CPUBufferSlots, config.FlitBits)
	r.netIn[noc.ClassGPU] = noc.NewBuffer(name+"-net-gpu", cfg.GPUBufferSlots, config.FlitBits)
	channels := 1
	if id == config.L3RouterID {
		channels = L3SendChannels
	}
	for c := range r.tx {
		r.tx[c] = make([]transmitter, channels)
	}
	r.collector = features.NewCollector(id == config.L3RouterID)
	if cfg.Bandwidth == config.PolicyFCFS {
		r.alloc = Allocation{CPUShare: 1, GPUShare: 1} // one merged transmitter takes the link
	}
	r.setState(net.initialState)
	r.lastBetaCPU, r.lastBetaGPU = -1, -1
	r.nextWindowEnd = int64(id*cfg.FeatureOffsetCycles + cfg.ReservationWindow)
	return r
}

// State returns the router's current wavelength state.
func (r *Router) State() photonic.WLState { return r.state }

// setState switches the wavelength state and refreshes the cached
// per-state values.
func (r *Router) setState(s photonic.WLState) {
	r.state = s
	r.stateWL = s.Wavelengths()
	r.stateWLf = float64(r.stateWL)
	r.stateBits = s.BitsPerCycle()
	r.refreshRates()
}

// setAlloc installs a bandwidth split, refreshing the memoised rates only
// when the split actually changed.
func (r *Router) setAlloc(a Allocation) {
	if a != r.alloc {
		r.alloc = a
		r.refreshRates()
	}
}

// refreshRates recomputes the per-class serializer rates and ring counts
// from the current shares and WL state.
func (r *Router) refreshRates() {
	shares := r.currentShares()
	for c := range r.rates {
		r.rates[c] = shares[c] * r.stateBits
		r.rings[c] = int(float64(shares[c]*r.stateWLf) + 0.5)
	}
}

// CoreOccupancy returns the Eq. 1/2 occupancy fraction for a class.
func (r *Router) CoreOccupancy(class noc.Class) float64 {
	return r.coreIn[class].Occupancy()
}

// inject pushes a locally generated packet into the class injection
// buffer.
func (r *Router) inject(p *noc.Packet, cycle int64) bool {
	if !r.coreIn[p.Class].Push(p) {
		return false
	}
	p.EnqueueCycle = cycle
	r.collector.CountInjection(p)
	return true
}

// tick advances the router one cycle.
func (r *Router) tick(cycle int64) {
	if cycle == r.nextWindowEnd {
		r.windowBoundary(cycle)
	}
	if r.idle() {
		r.collector.ObserveIdle(r.stateWL)
		r.countCycle()
		return
	}
	r.ejectArrivals(cycle)
	r.allocateBandwidth()
	r.progressTransmissions(cycle)
	r.startTransmissions(cycle)
	r.observe(cycle)
}

// idle reports whether this cycle's eject, allocate, progress and start
// steps would all do nothing: no packet buffered or in flight, and the
// allocator already memoised on the two zero occupancies it would read
// (FCFS never reallocates). An idle router's cycle only counts.
func (r *Router) idle() bool {
	return r.txActive[noc.ClassCPU]+r.txActive[noc.ClassGPU] == 0 &&
		r.coreIn[noc.ClassCPU].Len()+r.coreIn[noc.ClassGPU].Len()+
			r.netIn[noc.ClassCPU].Len()+r.netIn[noc.ClassGPU].Len() == 0 &&
		(r.lastBetaCPU == 0 && r.lastBetaGPU == 0 || r.net.cfg.Bandwidth == config.PolicyFCFS)
}

// progressTransmissions advances every in-flight packet by its class's
// current bandwidth share and completes those whose last bit left, at the
// memoised per-class rates (zero while the laser stabilises).
func (r *Router) progressTransmissions(cycle int64) {
	if r.txActive[noc.ClassCPU]+r.txActive[noc.ClassGPU] == 0 {
		return // idle router: nothing in flight, skip the scan
	}
	rates, rings := r.rates, r.rings
	if cycle < r.stallUntil {
		rates = [noc.NumClasses]float64{}
	}
	acct := r.net.acct
	for bank := range r.tx {
		for busy := r.busyTx[bank]; busy != 0; busy &= busy - 1 {
			i := bits.TrailingZeros16(busy)
			t := &r.tx[bank][i]
			rate := rates[t.class]
			t.remaining -= rate
			t.elapsed++
			if acct != nil && rate > 0 {
				acct.AddModulation(rings[t.class], 1)
			}
			if t.remaining <= 0 && t.elapsed >= photonic.FrameCycles {
				r.finish(bank, i, cycle)
			}
		}
	}
}

// currentShares returns the per-class bandwidth shares as an array.
func (r *Router) currentShares() [noc.NumClasses]float64 {
	return [noc.NumClasses]float64{r.alloc.CPUShare, r.alloc.GPUShare}
}

// finish releases the serializer and launches the packet toward its
// destination (pipeline latency covers reservation, crossbar,
// propagation and O/E).
func (r *Router) finish(bank, i int, cycle int64) {
	t := &r.tx[bank][i]
	p := t.pkt
	class := t.class
	t.pkt = nil
	r.busyTx[bank] &^= 1 << i
	r.txActive[class]--
	p.DepartCycle = cycle
	// Typed payload event instead of a closure: scheduling the arrival
	// allocates nothing (the *Packet rides in the event's any slot).
	r.net.engine.SchedulePayload(PipelineCycles, r.net, p, int64(class))
}

// ejectArrivals drains the receive buffers toward the local cores.
func (r *Router) ejectArrivals(cycle int64) {
	for class := 0; class < noc.NumClasses; class++ {
		if r.netIn[class].Len() == 0 {
			continue // Len inlines; skip the Pop call for idle buffers
		}
		for i := 0; i < EjectPerClassPerCycle; i++ {
			p := r.netIn[class].Pop()
			if p == nil {
				break
			}
			r.collector.CountEjection(p)
			r.net.deliver(p, cycle)
		}
	}
}

// allocateBandwidth runs Algorithm 1 steps 1-3 (or full-link FCFS). A
// class with a packet mid-serialization counts as (minimally) occupied so
// the exclusive 100/0 cases never freeze an in-flight transmission.
func (r *Router) allocateBandwidth() {
	if r.net.cfg.Bandwidth == config.PolicyFCFS {
		return // the full-link split set at construction never changes
	}
	betaCPU := r.CoreOccupancy(noc.ClassCPU)
	betaGPU := r.CoreOccupancy(noc.ClassGPU)
	const inFlight = 1e-6
	if betaCPU == 0 && r.txBusy(noc.ClassCPU) {
		betaCPU = inFlight
	}
	if betaGPU == 0 && r.txBusy(noc.ClassGPU) {
		betaGPU = inFlight
	}
	if betaCPU == r.lastBetaCPU && betaGPU == r.lastBetaGPU {
		return // same inputs, same allocation
	}
	r.lastBetaCPU, r.lastBetaGPU = betaCPU, betaGPU
	r.setAlloc(Allocate(
		betaCPU, betaGPU,
		r.net.cfg.CPUUpperBound, r.net.cfg.GPUUpperBound,
		r.net.cfg.BandwidthStep,
	))
}

// txBusy reports whether any serializer is carrying a packet of the
// class.
func (r *Router) txBusy(class noc.Class) bool {
	return r.txActive[class] > 0
}

// startTransmissions begins serializing head packets subject to shares,
// laser stalls and destination buffer reservations.
func (r *Router) startTransmissions(cycle int64) {
	if r.coreIn[noc.ClassCPU].Len()+r.coreIn[noc.ClassGPU].Len() == 0 {
		return // nothing queued to start
	}
	if cycle < r.stallUntil {
		return // laser stabilising after an up-switch
	}
	if r.net.cfg.Bandwidth == config.PolicyFCFS {
		r.startFCFS(cycle)
		return
	}
	shares := r.currentShares()
	for class := 0; class < noc.NumClasses; class++ {
		if shares[class] <= 0 {
			continue
		}
		for free := r.freeTx(class); free != 0; free &= free - 1 {
			p := r.coreIn[class].Front()
			if p == nil {
				break
			}
			if !r.startOn(class, bits.TrailingZeros16(free), p, noc.Class(class)) {
				break // destination full: head-of-line stall for this class
			}
		}
	}
}

// startFCFS serves the strictly oldest head across both classes at the
// full link rate — the PEARL-FCFS baseline, where a long GPU burst blocks
// CPU packets behind it.
func (r *Router) startFCFS(int64) {
	for free := r.freeTx(0); free != 0; free &= free - 1 {
		cpu := r.coreIn[noc.ClassCPU].Front()
		gpu := r.coreIn[noc.ClassGPU].Front()
		var p *noc.Packet
		var class noc.Class
		switch {
		case cpu == nil && gpu == nil:
			return
		case gpu == nil || (cpu != nil && cpu.EnqueueCycle <= gpu.EnqueueCycle):
			p, class = cpu, noc.ClassCPU
		default:
			p, class = gpu, noc.ClassGPU
		}
		if !r.startOn(0, bits.TrailingZeros16(free), p, class) {
			return
		}
	}
}

// freeTx returns the idle serializers of a bank as a bit set.
func (r *Router) freeTx(bank int) uint16 {
	return ^r.busyTx[bank] & (1<<len(r.tx[bank]) - 1)
}

// startOn attempts to begin transmitting p on serializer i of a bank. It
// reserves destination buffer space first; false means the destination
// cannot accept the packet this cycle. Serialization progress happens in
// progressTransmissions from the next cycle on.
func (r *Router) startOn(bank, i int, p *noc.Packet, class noc.Class) bool {
	dst := r.net.routers[p.Dst]
	flits := p.Flits(config.FlitBits)
	if dst.netIn[class].Free()-dst.reserved[class] < flits {
		return false
	}
	dst.reserved[class] += flits
	popped := r.coreIn[class].Pop()
	if popped != p {
		panic("core: transmitter lost the head packet")
	}
	t := &r.tx[bank][i]
	t.pkt = p
	t.class = class
	t.remaining = float64(p.SizeBits)
	t.elapsed = 0
	r.busyTx[bank] |= 1 << i
	r.txActive[class]++
	r.collector.CountSend(p)
	if acct := r.net.acct; acct != nil {
		acct.AddConversion(p.SizeBits)
	}
	return true
}

// linkBusy reports whether any serializer is active this cycle.
func (r *Router) linkBusy() bool {
	return r.txActive[noc.ClassCPU]+r.txActive[noc.ClassGPU] > 0
}

// observe updates the window accumulators, feature gauges, residency and
// power integration for this cycle.
func (r *Router) observe(int64) {
	cpuUsed := r.coreIn[noc.ClassCPU].Used()
	gpuUsed := r.coreIn[noc.ClassGPU].Used()
	if used := cpuUsed + gpuUsed; used != 0 {
		total := r.coreIn[noc.ClassCPU].Capacity() + r.coreIn[noc.ClassGPU].Capacity()
		r.betaSum += float64(used) / float64(total)
	}
	r.collector.ObserveCycle(
		r.coreIn[noc.ClassCPU].Occupancy(), r.netIn[noc.ClassCPU].Occupancy(),
		r.coreIn[noc.ClassGPU].Occupancy(), r.netIn[noc.ClassGPU].Occupancy(),
		r.linkBusy(), r.stateWL,
	)
	r.countCycle()
}

// countCycle is the part of a cycle's observation that does not read the
// buffers or the link: the window's cycle count, state residency and the
// power account's router cycle. An idle router's cycle is only this and
// Collector.ObserveIdle.
func (r *Router) countCycle() {
	r.betaCycles++
	if r.net.measuring {
		r.net.metrics.StateResidency.Add(r.stateWL, 1)
	}
	if r.net.acct != nil {
		r.net.acct.AddRouterCycle(r.state)
	}
}

// windowBoundary runs Algorithm 1 steps 7-8 (or the ML/random policy) and
// resets the window counters.
func (r *Router) windowBoundary(cycle int64) {
	beta := 0.0
	if r.betaCycles > 0 {
		beta = r.betaSum / float64(r.betaCycles)
	}
	info := WindowInfo{
		RouterID:       r.id,
		Features:       r.collector.Snapshot(),
		BetaTotal:      beta,
		MeanPacketBits: r.collector.MeanInjectedBits(noc.RequestBits),
		InjectedFlits:  r.collector.InjectedFlits(),
		WindowCycles:   r.net.cfg.ReservationWindow,
		Current:        r.state,
	}
	next := r.state
	if r.net.policy != nil {
		next = r.net.policy.NextState(info)
	}
	if hook := r.net.windowHook; hook != nil {
		hook(r.id, info.Features, r.collector.InjectedFlits(), beta, next)
	}
	if next != r.state {
		if next.Wavelengths() > r.stateWL {
			r.stallUntil = cycle + int64(r.net.turnOnCycles)
			r.net.aux.TurnOnStalls++
		}
		if acct := r.net.acct; acct != nil && r.net.cfg.Power.UsesMLUnit() {
			acct.AddMLPrediction()
		}
		r.setState(next)
	} else if acct := r.net.acct; acct != nil && r.net.cfg.Power.UsesMLUnit() {
		// The predictor runs every window regardless of outcome.
		acct.AddMLPrediction()
	}
	r.collector.Reset()
	r.betaSum = 0
	r.betaCycles = 0
	r.nextWindowEnd += int64(r.net.cfg.ReservationWindow)
}
