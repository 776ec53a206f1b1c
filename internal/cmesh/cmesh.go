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

// opposite[p] is the port a flit sent out of port p arrives on.
var opposite = [numNeighborPorts]int{
	portNorth: portSouth,
	portSouth: portNorth,
	portEast:  portWest,
	portWest:  portEast,
}

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

// newFlitRing takes a ring of the given capacity from the front of
// *backing: a router's rings share one array, so its buffered flits sit
// together in memory.
func newFlitRing(backing *[]timedFlit, capacity int) flitRing {
	q := flitRing{buf: (*backing)[:capacity:capacity]}
	*backing = (*backing)[capacity:]
	return q
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
	holder  int         // the owner's input index in this router
	credits int         // free slots in the downstream buffer
}

// router is one CMESH node. The state a tick reads on every cycle the
// router has work comes first, so the masks, link timers, round-robin
// pointers and front-flit arrival cycles share a few cache lines.
type router struct {
	// Masks over inputs (bit i = inputs[i]), kept current wherever the
	// state they summarise changes, so the tick visits only VCs with
	// work instead of probing all of them for every port:
	//
	//   occupied  the VC buffers at least one flit
	//   wants[o]  the VC holds a routed packet bound for output port o
	//   settled   routed, and ejecting or already holding a downstream
	//             VC: route compute and VC allocation have nothing to do
	//   starved   the downstream VC it holds has no credit
	occupied uint32
	settled  uint32
	starved  uint32
	wants    [numNeighborPorts + 1]uint32

	// free[port] has bit v set when out[port][v] can be allocated: no
	// owner and at least one credit.
	free [numNeighborPorts]uint8

	// outBusyUntil serialises narrow links: an output port is busy for
	// linkCyclesPerFlit cycles per flit.
	outBusyUntil [numNeighborPorts + 1]int64

	// rr rotates arbitration priority per output port (local ejection
	// included): the index into inputs the next scan starts from.
	rr [numNeighborPorts + 1]int

	// ready[i] is the link-arrival cycle of input i's front flit, valid
	// while bit i of occupied is set. It is written where the front
	// changes: a push into an empty VC and a pop that leaves flits
	// behind.
	ready [numInputs]int64

	id   int
	x, y int

	// nb is the router across each neighbor port, nil at the mesh edge.
	nb [numNeighborPorts]*router

	// out tracks downstream VC ownership and credits: [port][vc].
	out [numNeighborPorts][VCsPerPort]outVCState

	// in holds neighbor input VCs: [port][vc].
	in [numNeighborPorts][VCsPerPort]inVC
	// local holds the two class injection queues, treated as two extra
	// input VCs whose capacity matches the PEARL core buffers.
	local [noc.NumClasses]inVC

	// inputs caches the fixed input-VC reference list (built once).
	inputs [numInputs]inputRef
}

// Network is the electrical CMESH under the same Target interface as the
// photonic network.
type Network struct {
	engine  *sim.Engine
	routers [NumNodes]*router

	// classSlots is each class injection queue's flit capacity, and
	// slotsUsed[node][class] the flits each node's queue holds. They live
	// here rather than in the routers so that Admits, which most due
	// generators ask every cycle, reads one small array.
	classSlots [noc.NumClasses]int
	slotsUsed  [NumNodes][noc.NumClasses]int

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
		classSlots:        [noc.NumClasses]int{noc.ClassCPU: cfg.CPUBufferSlots, noc.ClassGPU: cfg.GPUBufferSlots},
		metrics:           stats.NewNetwork(),
		linkCyclesPerFlit: 1,
	}
	for i := range n.routers {
		r := &router{id: i, x: i % Width, y: i / Width}
		backing := make([]timedFlit, numNeighborPorts*VCsPerPort*SlotsPerVC+cfg.CPUBufferSlots+cfg.GPUBufferSlots)
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				r.out[p][v].credits = SlotsPerVC
				r.in[p][v].q = newFlitRing(&backing, SlotsPerVC)
			}
			r.free[p] = 1<<VCsPerPort - 1
		}
		for c := 0; c < noc.NumClasses; c++ {
			r.local[c].q = newFlitRing(&backing, n.classSlots[c])
		}
		r.inputs = buildInputs(r)
		n.routers[i] = r
	}
	for _, r := range n.routers {
		if r.y > 0 {
			r.nb[portNorth] = n.routers[r.id-Width]
		}
		if r.y < Width-1 {
			r.nb[portSouth] = n.routers[r.id+Width]
		}
		if r.x < Width-1 {
			r.nb[portEast] = n.routers[r.id+1]
		}
		if r.x > 0 {
			r.nb[portWest] = n.routers[r.id-1]
		}
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

// StopMeasurement freezes statistics and seals the latency histograms.
func (n *Network) StopMeasurement(measuredCycles int64) {
	n.measuring = false
	n.metrics.MeasuredCycles = measuredCycles
	n.metrics.Seal()
}

// nodeTable[id][other] is nearestNode(id, other) for every pair of
// crossbar router ids, built once: Inject, Admits and every head's route
// compute look it up instead of scanning the L3 attachment points.
var nodeTable = func() (t [config.NumRouters][config.NumRouters]int) {
	for id := range t {
		for other := range t[id] {
			t[id][other] = nearestNode(id, other)
		}
	}
	return t
}()

// nodeFor maps a crossbar router id (0-15 clusters, 16 = L3) onto a mesh
// node; L3 traffic lands on the attachment point nearest to other.
func nodeFor(id, other int) int { return nodeTable[id][other] }

// nearestNode is nodeFor computed: the attachment point nearest to
// other, the first of the four on a tie.
func nearestNode(id, other int) int {
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
	checkEndpoints(p.Src, p.Dst)
	node := nodeFor(p.Src, p.Dst)
	flits := p.Flits(FlitBits)
	if n.slotsUsed[node][p.Class]+flits > n.classSlots[p.Class] {
		return false
	}
	n.slotsUsed[node][p.Class] += flits
	r := n.routers[node]
	now := n.engine.Cycle()
	p.EnqueueCycle = now
	vc := &r.local[p.Class]
	for i := 0; i < flits; i++ {
		vc.q.push(timedFlit{
			f:       flit{pkt: p, isHead: i == 0, isTail: i == flits-1},
			readyAt: now,
		})
	}
	in := localInput(p.Class)
	if r.occupied&(1<<in) == 0 {
		r.ready[in] = now
	}
	r.occupied |= 1 << in
	return true
}

// Admits reports whether Inject would accept a packet of bits bits from
// src to dst in class this cycle, changing nothing: its flits fit the
// free slots of the class queue at src's mesh node.
func (n *Network) Admits(src, dst int, class noc.Class, bits int) bool {
	checkEndpoints(src, dst)
	return n.slotsUsed[nodeFor(src, dst)][class]+(bits+FlitBits-1)/FlitBits <= n.classSlots[class]
}

func checkEndpoints(src, dst int) {
	if src < 0 || src > config.L3RouterID || dst < 0 || dst > config.L3RouterID || src == dst {
		panic(fmt.Sprintf("cmesh: bad endpoints %d->%d", src, dst))
	}
}

// Tick advances every router: route compute + VC allocation + switch
// arbitration, then one flit per output port per router.
func (n *Network) Tick(cycle int64) {
	for _, r := range &n.routers {
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
	// Arbitrate each output port (including local ejection) round-robin,
	// skipping a port that has no candidate or whose link is still
	// serialising the previous flit. A candidate is a flit buffered,
	// routed to the port and, for a neighbor port, holding a downstream
	// VC (settled means exactly that for a packet that is not ejecting)
	// with a credit (not starved). A forward changes only its own
	// input's bits, and an input wants one port, so a port's candidates
	// do not move while the ports before it arbitrate.
	cand := r.settled & r.occupied &^ r.starved
	for out := 0; out <= portLocal; out++ {
		if m := r.wants[out] & cand; m != 0 && cycle >= r.outBusyUntil[out] {
			n.arbitrate(r, out, m, cycle)
		}
	}
}

// routeAndAllocate performs RC on new heads and VA for neighbor-bound
// packets, visiting the buffered VCs that still lack one of the two in
// inputs order (VA is first come, first served).
func (n *Network) routeAndAllocate(r *router, cycle int64) {
	for m := r.occupied &^ r.settled; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if r.ready[i] > cycle {
			continue // still crossing the link
		}
		vc := r.inputs[i].vc
		head := vc.q.front()
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
		// VC allocation: claim the lowest free downstream VC on the
		// chosen port. (An unsettled neighbor-bound packet holds none
		// yet.)
		if f := r.free[vc.outPort]; f != 0 {
			v := bits.TrailingZeros8(f)
			st := &r.out[vc.outPort][v]
			st.owner, st.holder = head.f.pkt, i
			r.free[vc.outPort] &^= 1 << v
			vc.outVC = v
			vc.hasVC = true
			r.settled |= 1 << i
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

// arbitrate forwards at most one flit through the given output port,
// whose link is free: the first of the candidates m whose flit has
// arrived, in round-robin order from rr[out], that is inputs
// rr[out]..numInputs-1 and then 0..rr[out]-1.
func (n *Network) arbitrate(r *router, out int, m uint32, cycle int64) {
	// Round-robin order: candidates at or above the pointer in the low
	// word, those below it in the high word, lowest bit first.
	below := uint32(1)<<r.rr[out] - 1
	for w := uint64(m&^below) | uint64(m&below)<<32; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w) & 31
		if r.ready[i] > cycle {
			continue // still crossing the link
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
	} else {
		r.ready[i] = vc.q.front().readyAt
	}
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
		nb := r.neighbor(vc.outPort)
		in := opposite[vc.outPort]
		readyAt := cycle + n.linkCyclesPerFlit + RouterPipelineCycles
		nb.in[in][vc.outVC].q.push(timedFlit{f: f, readyAt: readyAt})
		j := neighborInput(in, vc.outVC)
		if nb.occupied&(1<<j) == 0 {
			nb.ready[j] = readyAt
		}
		nb.occupied |= 1 << j
		if f.isHead {
			f.pkt.Hops++
		}
		if f.isTail {
			st.owner = nil
			if st.credits > 0 {
				r.free[vc.outPort] |= 1 << vc.outVC
			}
		} else if st.credits == 0 {
			r.starved |= 1 << i
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
		r.returnCredit(ref)
	}
}

// returnCredit frees one credit at the upstream router feeding the given
// neighbor input VC: the sender's out[][] entry for the link into it.
func (r *router) returnCredit(ref *inputRef) {
	up, port := r.neighbor(ref.port), opposite[ref.port]
	st := &up.out[port][ref.vcIndex]
	st.credits++
	if st.credits > SlotsPerVC {
		panic("cmesh: credit overflow")
	}
	if st.owner == nil {
		up.free[port] |= 1 << ref.vcIndex
	} else {
		up.starved &^= 1 << st.holder
	}
}

// neighbor returns the router across the given port; there is none past
// the mesh edge.
func (r *router) neighbor(port int) *router {
	nb := r.nb[port]
	if nb == nil {
		panic(fmt.Sprintf("cmesh: router %d has no neighbor on port %d", r.id, port))
	}
	return nb
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
