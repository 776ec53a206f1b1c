// Package cmesh implements the paper's electrical baseline: a 4x4
// concentrated mesh (CMESH) with the same cluster organisation as PEARL —
// each router concentrates 2 CPU cores, 4 GPU CUs and their L1/L2 caches
// — dimension-order (XY) wormhole routing, 4 virtual channels of 4
// 128-bit flit slots per input port, credit-based flow control, and
// 128-bit links sized so the mesh bisection matches the 64-wavelength
// photonic crossbar (§IV: "CMESH is designed to have the same bisection
// bandwidth as the PEARL architectures").
//
// The shared L3 (with its two memory controllers) attaches at the two
// central routers; traffic addressed to the PEARL L3 router id is routed
// to the nearer attachment point, so the same workloads drive both
// networks unchanged.
package cmesh

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mesh geometry and router microarchitecture constants.
const (
	// Width is the mesh side (4x4 concentrated mesh).
	Width = config.GridWidth
	// NumNodes is the mesh router count.
	NumNodes = Width * Width
	// VCsPerPort is the virtual channel count per input port (§IV).
	VCsPerPort = 4
	// SlotsPerVC is the flit depth of each VC buffer (§IV).
	SlotsPerVC = 4
	// FlitBits is the link phit width; one flit crosses a link per
	// cycle, giving a bisection of 4 links x 128 bits = 512 bits/cycle
	// per direction, equal to the photonic crossbar's 8 cluster
	// channels x 64 bits/cycle.
	FlitBits = config.FlitBits
	// RouterPipelineCycles is the electrical router's per-hop pipeline
	// depth (buffer write, route compute/VC allocation, switch
	// allocation, switch traversal) beyond link traversal.
	RouterPipelineCycles = 2
)

// L3 attachment points: the banked shared L3 and its memory controllers
// attach at the four central routers of the mesh, mirroring the photonic
// L3 router's multi-channel connectivity so both networks offer the L3
// comparable injection/ejection bandwidth.
var l3Attach = [4]int{5, 6, 9, 10}

// port indices.
const (
	portNorth = iota
	portSouth
	portEast
	portWest
	numNeighborPorts
)

// flit is one 128-bit slice of a packet in flight.
type flit struct {
	pkt    *noc.Packet
	isHead bool
	isTail bool
}

// timedFlit is a flit with its link-arrival cycle.
type timedFlit struct {
	f       flit
	readyAt int64
}

// flitRing is a fixed-capacity circular flit FIFO. Capacity is set once
// at construction to the VC's flow-control bound (credits for neighbor
// VCs, the class buffer size for injection queues), so steady-state
// enqueue/dequeue reuses the backing array and never allocates. Pushing
// past capacity is a flow-control bug and panics rather than growing.
type flitRing struct {
	buf  []timedFlit
	head int
	n    int
}

func newFlitRing(capacity int) flitRing {
	return flitRing{buf: make([]timedFlit, capacity)}
}

func (q *flitRing) len() int { return q.n }

func (q *flitRing) push(tf timedFlit) {
	if q.n == len(q.buf) {
		panic("cmesh: VC buffer overflow (flow control violated)")
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = tf
	q.n++
}

// front returns the head flit in place; callers must check len first.
func (q *flitRing) front() *timedFlit { return &q.buf[q.head] }

func (q *flitRing) pop() {
	q.buf[q.head] = timedFlit{} // release the packet pointer
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// inVC is one input virtual channel: a bounded flit FIFO plus wormhole
// routing state for the packet currently occupying it.
type inVC struct {
	q flitRing

	// routed reports whether the head packet has passed route compute.
	routed  bool
	outPort int // destination output port (or portLocal)
	outVC   int // allocated downstream VC (neighbor ports only)
	hasVC   bool
}

// portLocal is a pseudo output port index for ejection.
const portLocal = numNeighborPorts

// numInputs is the length of a router's fixed input-VC list: the
// neighbor VCs in [port][vc] order, then the class injection queues.
const numInputs = numNeighborPorts*VCsPerPort + noc.NumClasses

// neighborInput and localInput give an input VC's position in that list,
// which is also its bit in the router's occupancy masks.
func neighborInput(port, vc int) int { return port*VCsPerPort + vc }
func localInput(c noc.Class) int     { return numNeighborPorts*VCsPerPort + int(c) }

// outVCState is sender-side bookkeeping for one downstream VC.
type outVCState struct {
	owner   *noc.Packet // packet holding the VC until its tail passes
	credits int         // free slots in the downstream buffer
}

// router is one CMESH node.
type router struct {
	id   int
	x, y int

	// in holds neighbor input VCs: [port][vc].
	in [numNeighborPorts][VCsPerPort]inVC
	// local holds the two class injection queues, treated as two extra
	// input VCs whose capacity matches the PEARL core buffers.
	local [noc.NumClasses]inVC
	// localSlotsUsed tracks flit occupancy of each class queue.
	localSlotsUsed [noc.NumClasses]int

	// out tracks downstream VC ownership and credits: [port][vc].
	out [numNeighborPorts][VCsPerPort]outVCState

	// rr rotates arbitration priority per output port (local ejection
	// included): the index into inputs the next scan starts from.
	rr [numNeighborPorts + 1]int

	// outBusyUntil serialises narrow links: an output port is busy for
	// linkCyclesPerFlit cycles per flit.
	outBusyUntil [numNeighborPorts + 1]int64

	// inputs caches the fixed input-VC reference list (built once).
	inputs [numInputs]inputRef

	// Occupancy masks over inputs (bit i = inputs[i]), kept current
	// wherever the state they summarise changes, so the tick visits only
	// VCs with work instead of probing all of them for every port:
	//
	//   occupied  the VC buffers at least one flit
	//   wants[o]  the VC holds a routed packet bound for output port o
	//   settled   routed, and ejecting or already holding a downstream
	//             VC: route compute and VC allocation have nothing to do
	occupied uint32
	wants    [numNeighborPorts + 1]uint32
	settled  uint32
}

// Network is the electrical CMESH under the same Target interface as the
// photonic network.
type Network struct {
	engine  *sim.Engine
	cfg     config.Config
	routers [NumNodes]*router

	acct      *power.Account
	metrics   *stats.Network
	onDeliver func(p *noc.Packet, cycle int64)
	measuring bool

	// linkCyclesPerFlit scales link bandwidth down for the Figure 5
	// sweep ("we reduce the bandwidth proportionally", §IV.C): 1 matches
	// the 64-wavelength photonic bisection, 2 halves it, 4 quarters it.
	linkCyclesPerFlit int64

	// partialEjected counts packets whose head has reached the local
	// port but whose tail has not, for drain checks. The per-packet
	// flit count itself rides on Packet.EjectedFlits, so ejection does
	// no map work.
	partialEjected int
}

// New builds the mesh. Only the buffer-size fields of the configuration
// are used; bandwidth and power policies do not apply to the electrical
// baseline.
func New(engine *sim.Engine, cfg config.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		engine:            engine,
		cfg:               cfg,
		metrics:           stats.NewNetwork(),
		linkCyclesPerFlit: 1,
	}
	for i := range n.routers {
		r := &router{id: i, x: i % Width, y: i / Width}
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				r.out[p][v].credits = SlotsPerVC
				r.in[p][v].q = newFlitRing(SlotsPerVC)
			}
		}
		for c := 0; c < noc.NumClasses; c++ {
			slots := cfg.CPUBufferSlots
			if noc.Class(c) == noc.ClassGPU {
				slots = cfg.GPUBufferSlots
			}
			r.local[c].q = newFlitRing(slots)
		}
		r.inputs = buildInputs(r)
		n.routers[i] = r
	}
	return n, nil
}

// buildInputs assembles the fixed input-VC reference list for a router.
func buildInputs(r *router) (refs [numInputs]inputRef) {
	for p := 0; p < numNeighborPorts; p++ {
		for v := 0; v < VCsPerPort; v++ {
			refs[neighborInput(p, v)] = inputRef{vc: &r.in[p][v], port: p, vcIndex: v}
		}
	}
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		refs[localInput(c)] = inputRef{vc: &r.local[c], local: true, class: c}
	}
	return refs
}

// Metrics returns the measurement accumulator.
func (n *Network) Metrics() *stats.Network { return n.metrics }

// SetLinkScale narrows every link so a flit occupies it for k cycles,
// scaling the bisection bandwidth by 1/k for the Figure 5 comparison
// against bandwidth-constrained photonic configurations.
func (n *Network) SetLinkScale(k int) {
	if k < 1 {
		panic("cmesh: link scale below 1")
	}
	n.linkCyclesPerFlit = int64(k)
}

// SetAccount attaches the energy accumulator.
func (n *Network) SetAccount(a *power.Account) { n.acct = a }

// SetDeliveryHandler installs the workload's delivery callback.
func (n *Network) SetDeliveryHandler(h func(p *noc.Packet, cycle int64)) { n.onDeliver = h }

// StartMeasurement begins recording statistics.
func (n *Network) StartMeasurement() { n.measuring = true }

// StopMeasurement freezes statistics.
func (n *Network) StopMeasurement(measuredCycles int64) {
	n.measuring = false
	n.metrics.MeasuredCycles = measuredCycles
}

// nodeFor maps a crossbar router id (0-15 clusters, 16 = L3) onto a mesh
// node; L3 traffic lands on the attachment point nearest to other.
func nodeFor(id, other int) int {
	if id != config.L3RouterID {
		return id
	}
	ref := other
	if ref == config.L3RouterID {
		ref = l3Attach[0]
	}
	best, bestDist := l3Attach[0], 1<<30
	for _, a := range l3Attach {
		d := hopDistance(a, ref)
		if d < bestDist {
			best, bestDist = a, d
		}
	}
	return best
}

func hopDistance(a, b int) int {
	ax, ay := a%Width, a/Width
	bx, by := b%Width, b/Width
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Inject enqueues a packet at its source node's class queue. The queue
// capacity matches the PEARL class buffers so both networks see identical
// injection backpressure.
func (n *Network) Inject(p *noc.Packet) bool {
	if p.Src < 0 || p.Src > config.L3RouterID || p.Dst < 0 || p.Dst > config.L3RouterID || p.Src == p.Dst {
		panic(fmt.Sprintf("cmesh: bad endpoints %d->%d", p.Src, p.Dst))
	}
	src := nodeFor(p.Src, p.Dst)
	r := n.routers[src]
	capSlots := n.cfg.CPUBufferSlots
	if p.Class == noc.ClassGPU {
		capSlots = n.cfg.GPUBufferSlots
	}
	flits := p.Flits(FlitBits)
	if r.localSlotsUsed[p.Class]+flits > capSlots {
		return false
	}
	r.localSlotsUsed[p.Class] += flits
	now := n.engine.Cycle()
	p.EnqueueCycle = now
	vc := &r.local[p.Class]
	for i := 0; i < flits; i++ {
		vc.q.push(timedFlit{
			f:       flit{pkt: p, isHead: i == 0, isTail: i == flits-1},
			readyAt: now,
		})
	}
	r.occupied |= 1 << localInput(p.Class)
	return true
}

// Tick advances every router: route compute + VC allocation + switch
// arbitration, then one flit per output port per router.
func (n *Network) Tick(cycle int64) {
	for _, r := range n.routers {
		n.tickRouter(r, cycle)
	}
	if n.acct != nil {
		n.acct.AddElectricalLeakage(NumNodes)
		n.acct.AddCycle()
	}
}

// inputRef identifies one input VC of a router (neighbor or local).
type inputRef struct {
	vc    *inVC
	local bool
	class noc.Class // for local queues, to release slot accounting
	// port and vcIndex locate a neighbor VC in router.in, and so the
	// upstream credit counter that its pops return to.
	port, vcIndex int
}

// tickRouter route-computes and VC-allocates the heads that need it,
// then arbitrates each output port and forwards at most one flit per
// port.
func (n *Network) tickRouter(r *router, cycle int64) {
	if r.occupied == 0 {
		return
	}
	n.routeAndAllocate(r, cycle)
	// Arbitrate each output port (including local ejection) round-robin.
	for out := 0; out <= portLocal; out++ {
		n.arbitrate(r, out, cycle)
	}
}

// routeAndAllocate performs RC on new heads and VA for neighbor-bound
// packets, visiting the buffered VCs that still lack one of the two in
// inputs order (VA is first come, first served).
func (n *Network) routeAndAllocate(r *router, cycle int64) {
	for m := r.occupied &^ r.settled; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		vc := r.inputs[i].vc
		head := vc.q.front()
		if head.readyAt > cycle {
			continue // still crossing the link
		}
		if head.f.isHead && !vc.routed {
			vc.outPort = n.route(r, head.f.pkt)
			vc.routed = true
			vc.hasVC = false
			r.wants[vc.outPort] |= 1 << i
			if vc.outPort == portLocal {
				r.settled |= 1 << i
			}
		}
		if !vc.routed || vc.outPort == portLocal {
			continue
		}
		// VC allocation: claim a free downstream VC on the chosen port.
		// (An unsettled neighbor-bound packet holds none yet.)
		for v := 0; v < VCsPerPort; v++ {
			st := &r.out[vc.outPort][v]
			if st.owner == nil && st.credits > 0 {
				st.owner = head.f.pkt
				vc.outVC = v
				vc.hasVC = true
				r.settled |= 1 << i
				break
			}
		}
	}
}

// route computes the XY output port for a packet at router r.
func (n *Network) route(r *router, p *noc.Packet) int {
	dst := nodeFor(p.Dst, p.Src)
	if dst == r.id {
		return portLocal
	}
	dx, dy := dst%Width, dst/Width
	switch {
	case dx > r.x:
		return portEast
	case dx < r.x:
		return portWest
	case dy > r.y:
		return portSouth
	default:
		return portNorth
	}
}

// arbitrate forwards at most one flit through the given output port:
// the first eligible candidate in round-robin order from rr[out], that
// is inputs rr[out]..numInputs-1 and then 0..rr[out]-1.
func (n *Network) arbitrate(r *router, out int, cycle int64) {
	if cycle < r.outBusyUntil[out] {
		return // narrow link still serialising the previous flit
	}
	// Candidates: a flit buffered, routed to this port and, for a
	// neighbor port, a downstream VC held (settled means exactly that
	// for a packet that is not ejecting).
	m := r.wants[out] & r.settled & r.occupied
	if m == 0 {
		return
	}
	// Round-robin order: candidates at or above the pointer in the low
	// word, those below it in the high word, lowest bit first.
	below := uint32(1)<<r.rr[out] - 1
	for w := uint64(m&^below) | uint64(m&below)<<32; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w) & 31
		vc := r.inputs[i].vc
		if vc.q.front().readyAt > cycle {
			continue // still crossing the link
		}
		if out != portLocal && r.out[out][vc.outVC].credits <= 0 {
			continue
		}
		n.forward(r, i, cycle)
		r.rr[out] = (i + 1) % numInputs
		return
	}
}

// forward moves the head flit of input i through the crossbar.
func (n *Network) forward(r *router, i int, cycle int64) {
	ref := &r.inputs[i]
	vc := ref.vc
	f := vc.q.front().f
	vc.q.pop()
	if vc.q.len() == 0 {
		r.occupied &^= 1 << i
	}
	if ref.local {
		r.localSlotsUsed[ref.class]--
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
		nb := n.neighbor(r, vc.outPort)
		in := oppositePort(vc.outPort)
		nb.in[in][vc.outVC].q.push(timedFlit{f: f, readyAt: cycle + n.linkCyclesPerFlit + RouterPipelineCycles})
		nb.occupied |= 1 << neighborInput(in, vc.outVC)
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
		r.wants[vc.outPort] &^= 1 << i
		r.settled &^= 1 << i
	}
	// Popping from a neighbor input VC frees one slot in this router's
	// buffer; the credit for it belongs to the upstream sender and is
	// returned at once (see returnCredit).
	if !ref.local {
		n.returnCredit(r, ref)
	}
}

// returnCredit frees one credit at the upstream router feeding the given
// neighbor input VC: the sender's out[][] entry for the link into it.
func (n *Network) returnCredit(r *router, ref *inputRef) {
	st := &n.neighbor(r, ref.port).out[oppositePort(ref.port)][ref.vcIndex]
	st.credits++
	if st.credits > SlotsPerVC {
		panic("cmesh: credit overflow")
	}
}

// neighbor returns the router across the given port.
func (n *Network) neighbor(r *router, port int) *router {
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

func oppositePort(port int) int {
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

// eject accumulates flits at the local port and delivers the packet when
// its tail arrives. The reassembly counter lives on the packet itself
// (zeroed by the pool), so this path is allocation- and map-free.
func (n *Network) eject(f flit, cycle int64) {
	p := f.pkt
	p.EjectedFlits++
	if !f.isTail {
		if p.EjectedFlits == 1 {
			n.partialEjected++
		}
		return
	}
	if p.EjectedFlits != p.Flits(FlitBits) {
		panic(fmt.Sprintf("cmesh: packet %d ejected %d of %d flits", p.ID, p.EjectedFlits, p.Flits(FlitBits)))
	}
	if p.EjectedFlits > 1 {
		n.partialEjected--
	}
	p.EjectedFlits = 0
	p.ArriveCycle = cycle
	if n.measuring {
		n.metrics.Delivered.Add(int(p.Class), p.SizeBits)
		lat := cycle - p.InjectCycle
		n.metrics.Latency.Add(lat)
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

// InFlight reports flits buffered anywhere in the mesh plus partially
// ejected packets, for drain checks.
func (n *Network) InFlight() int {
	total := 0
	for _, r := range n.routers {
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				total += r.in[p][v].q.len()
			}
		}
		for c := 0; c < noc.NumClasses; c++ {
			total += r.local[c].q.len()
		}
	}
	return total + n.partialEjected
}

// WavelengthsOn is always 0: the electrical mesh has no photonic state.
// It exists so both backends satisfy the streaming window sampler's
// source interface.
func (n *Network) WavelengthsOn() float64 { return 0 }
