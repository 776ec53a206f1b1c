package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Service latencies in network cycles for the memory-side components that
// answer requests.
const (
	// L3HitCycles is the shared L3 lookup latency.
	L3HitCycles = 24
	// MemExtraCycles is the additional main-memory latency on an L3 miss.
	MemExtraCycles = 120
	// RemoteL2Cycles is a peer cluster's L2 snoop/service latency.
	RemoteL2Cycles = 12
)

// Target is the network under test: it accepts packets at their source
// router. Inject returns false when the router's input buffer cannot take
// the packet this cycle; the workload retries.
type Target interface {
	Inject(p *noc.Packet) bool
}

// admitter is the optional half of a Target: Admits reports, without
// changing anything, whether Inject would accept a packet of bits bits
// from src to dst in class this cycle. The workload asks it before
// building a packet, so a refused injection costs a compare instead of
// a packet built and recycled. A target without it takes the
// build-and-refuse path, with the same results.
type admitter interface {
	Admits(src, dst int, class noc.Class, bits int) bool
}

// coin is a Bernoulli(p) test as an integer compare on one draw's top 53
// bits: m < t equals Float64() < p (sim.BernoulliThreshold). A p at or
// outside [0, 1] draws nothing and answers t != 0, as RNG.Bernoulli
// does.
type coin struct {
	t     uint64
	draws bool
}

func newCoin(p float64) coin {
	t, draws := sim.BernoulliThreshold(p)
	return coin{t: t, draws: draws}
}

func (c coin) flip(rng *sim.RNG) bool {
	if !c.draws {
		return c.t != 0
	}
	return rng.Uint64()>>11 < c.t
}

// The request-source split of requestSource as thresholds on the top 53
// bits of one draw: Float64() < p is m < ⌈p·2⁵³⌉.
var (
	cpuL1IT = newCoin(0.20).t
	cpuL1DT = newCoin(0.70).t
	gpuL1T  = newCoin(0.60).t
)

// generator drives one traffic class at one cluster router: a two-state
// Markov-modulated Poisson demand process in front of a bounded MSHR
// window.
type generator struct {
	// The fields a due cycle reads come first: the stream, the chain and
	// MSHR state, the steady and per-packet tests and the bounds, in the
	// first 192 bytes of the generator's slot, the rest after them.

	// rng is embedded by value: the 32 generators of a workload live in
	// one contiguous array (see Workload.gens), so a run's whole
	// traffic state walks the cache linearly instead of chasing per-
	// generator pointers.
	rng sim.RNG

	bursting    bool
	level       float64 // burst intensity in [0,1], ramping up/down
	pending     int     // demands waiting for an MSHR slot
	outstanding int     // requests in flight awaiting responses

	// quiet and full are the integer forms of a cycle at the two levels
	// the burst chain rests at: quiet (not bursting, level 0) and full
	// (bursting, level 1).
	quiet, full steady

	// writeback and l3 are the profile's per-packet WriteFraction and
	// L3Fraction tests as integer compares.
	writeback, l3 coin

	// class, maxPending and maxOutstanding copy the profile's Class,
	// MaxPending and MaxOutstanding next to the state they bound.
	class          noc.Class
	maxPending     int
	maxOutstanding int
	router         int

	profile Profile
	shed    uint64

	// wakeDemand is the demand of the cycle a draw-ahead stopped at (see
	// drawAhead); the workload keeps that cycle in its wake array.
	wakeDemand int

	// expFor/expNegRate cache exp(-rate) for the Poisson sampler. The rate
	// only changes while a burst ramps, so in steady state the exponential
	// (one of the costliest calls in the cycle loop) is computed once, not
	// every cycle. expFor starts as NaN so the first cycle always fills
	// the cache.
	expFor     float64
	expNegRate float64
	// expTab is a direct-mapped cache of exp(-rate) behind the
	// single-entry cache above: a ramping burst walks the same ladder of
	// float rate values on every burst (each value recurs dozens of times
	// per million cycles), so most rate changes hit the table instead of
	// math.Exp. The slice aliases a table shared by every generator of
	// the workload: the memo is value-transparent — a slot is only
	// consumed when its stored rate matches exactly — so sharing changes
	// which lookups miss, never what any lookup returns.
	expTab []expEntry
	// rampStep and rateSpan precompute 1/RampCycles and
	// BurstRate-BaseRate; both are bit-identical to computing them inline
	// every cycle, just cheaper.
	rampStep float64
	rateSpan float64
}

// steady is one cycle of a generator whose burst level does not move, as
// two integer compares on tickDemand's own draws. The first draw is the
// chain's leave test (burst entry when quiet, burst exit when full):
// m < leaveT. A cycle that stays draws its Poisson demand at the state's
// fixed rate, where k = 0 is m < zeroT on the second draw (see
// sim.BernoulliThreshold and sim.PoissonZeroThreshold). ok is false when
// either test is not a plain one-draw compare for the profile, and the
// state then takes the ordinary code.
type steady struct {
	ok     bool
	leaveT uint64
	zeroT  uint64
	exp    float64 // exp(-rate) at the state's rate
}

// newSteady builds the steady form of a state whose leave test is
// Bernoulli(leave) and whose Poisson rate is rate.
func newSteady(leave, rate float64) steady {
	var s steady
	var draws bool
	s.leaveT, draws = sim.BernoulliThreshold(leave)
	s.ok = draws && rate > 0 && rate <= 30 // PoissonExp's one-uniform first step
	if s.ok {
		s.exp = math.Exp(-rate)
		s.zeroT = sim.PoissonZeroThreshold(s.exp)
	}
	return s
}

// numGenerators is the workload's generator count; Tick's due set is a
// uint64 with one bit per generator.
const numGenerators = config.NumClusterRouters * noc.NumClasses

const _ uint64 = 1 << (numGenerators - 1) // does not compile past 64 generators

// drawAheadHorizon bounds one draw-ahead: a generator whose next demand
// lies further out stops there and draws ahead again at that cycle. It
// also bounds the draws wasted past the end of a run, at most this many
// cycles per generator.
const drawAheadHorizon = 4096

// expEntry is one slot of the direct-mapped exp(-rate) cache. The zero
// value is safe: a stored rate of 0 can never be read back wrongly because
// PoissonExp returns before consuming exp(-mean) when mean <= 0.
type expEntry struct {
	rate float64
	exp  float64
}

// expTabBits sizes the exp cache (2^11 = 2048 slots, 32 KiB).
const expTabBits = 11

// newExpTable allocates an empty exp(-rate) memo. One table serves all
// 32 generators of a workload (the burst-rate ladders of a pair's two
// profiles fit 2048 slots with room to spare) — 32 KiB per workload
// instead of 1 MiB of per-generator tables. Sharing is bit-transparent
// because a slot is re-verified against the exact rate before its
// cached exponential is consumed.
func newExpTable() []expEntry { return make([]expEntry, 1<<expTabBits) }

// tickDemand advances the burst chain and returns this cycle's new
// demands. Bursts ramp to full intensity over RampCycles (kernels
// announce themselves through partial activity) and collapse twice as
// fast when they end. A generator at rest takes the steady form of the
// same draws.
func (g *generator) tickDemand() int {
	if s := g.steadyState(); s != nil {
		// steadyRun(s, 1), without copying the stream in and out.
		if g.rng.Uint64()>>11 < s.leaveT {
			g.bursting = !g.bursting
			return g.rampDemand()
		}
		if m := g.rng.Uint64() >> 11; m >= s.zeroT {
			return g.rng.PoissonTail(float64(m)/(1<<53), s.exp)
		}
		return 0
	}
	if g.bursting {
		if g.rng.Bernoulli(g.profile.BurstExit) {
			g.bursting = false
		}
	} else if g.rng.Bernoulli(g.profile.BurstEntry) {
		g.bursting = true
	}
	return g.rampDemand()
}

// steadyState returns the steady form of the generator's state, or nil
// while its burst level is moving or the form does not apply.
func (g *generator) steadyState() *steady {
	switch {
	case !g.bursting && g.level == 0 && g.quiet.ok:
		return &g.quiet
	case g.bursting && g.level == 1 && g.full.ok:
		return &g.full
	}
	return nil
}

// steadyRun steps a generator in steady state s for up to n cycles. It
// returns how many cycles stayed in s with no demand; if that is less
// than n, the next cycle left s or drew a demand, and d is its demand,
// finished by the ordinary code from the draw it stopped at. A cycle that
// leaves s flips the chain and ramps exactly as tickDemand would: a full
// burst's level never exceeds 1, and a quiet one's never moves.
func (g *generator) steadyRun(s *steady, n int64) (stayed int64, d int) {
	rng := g.rng
	for ; stayed < n; stayed++ {
		if rng.Uint64()>>11 < s.leaveT {
			g.rng = rng
			g.bursting = !g.bursting
			return stayed, g.rampDemand()
		}
		if m := rng.Uint64() >> 11; m >= s.zeroT {
			d = rng.PoissonTail(float64(m)/(1<<53), s.exp)
			g.rng = rng
			return stayed, d
		}
	}
	g.rng = rng
	return stayed, 0
}

// rampDemand is tickDemand after the burst chain has moved: it steps the
// burst level and draws the cycle's Poisson demand at the resulting rate.
func (g *generator) rampDemand() int {
	if g.profile.RampCycles == 0 {
		if g.bursting {
			g.level = 1
		} else {
			g.level = 0
		}
	} else if g.bursting {
		g.level += g.rampStep
		if g.level > 1 {
			g.level = 1
		}
	} else if g.level > 0 {
		g.level -= 2 * g.rampStep
		if g.level < 0 {
			g.level = 0
		}
	}
	rate := g.profile.BaseRate + float64(g.level*g.rateSpan)
	if rate != g.expFor {
		g.expFor = rate
		e := &g.expTab[(math.Float64bits(rate)*0x9E3779B97F4A7C15)>>(64-expTabBits)]
		if e.rate != rate {
			e.rate = rate
			e.exp = math.Exp(-rate)
		}
		g.expNegRate = e.exp
	}
	return g.rng.PoissonExp(rate, g.expNegRate)
}

// drawAhead runs the cycles after cycle, as tickDemand would, until one
// yields a non-zero demand or horizon cycles have passed (Tick passes
// drawAheadHorizon). It returns the cycle it stopped at and leaves that
// cycle's demand in wakeDemand; every cycle before it has zero demand.
// The caller must hold pending == 0: only tickDemand and drain draw from
// the generator's stream, and drain draws only while demands are
// pending, so until the next non-zero demand the stream does not depend
// on the network and the draws happen in the same order they would one
// cycle at a time.
func (g *generator) drawAhead(cycle, horizon int64) (wake int64) {
	end := cycle + horizon
	for c := cycle + 1; c <= end; c++ {
		var demand int
		if s := g.steadyState(); s != nil {
			stayed, d := g.steadyRun(s, end-c+1)
			if c += stayed; c > end {
				break
			}
			demand = d
		} else {
			demand = g.tickDemand()
		}
		if demand != 0 {
			g.wakeDemand = demand
			return c
		}
	}
	g.wakeDemand = 0
	return end
}

// Workload wires a benchmark pair onto a network target: it owns the 32
// per-router per-class generators, schedules memory-side responses through
// the engine, releases MSHR credits on response delivery, and tallies the
// Figure 4 injection breakdown.
type Workload struct {
	engine *sim.Engine
	target Target
	// admits is target's admission check, or nil when it has none.
	admits admitter
	// mem is each class's MemFraction test as an integer compare.
	mem [noc.NumClasses]coin

	// gens holds the generators by value: one contiguous block of
	// demand-process state (burst chains, MSHR windows, embedded RNG
	// streams) per workload.
	gens [config.NumClusterRouters][noc.NumClasses]generator
	// wake[r*NumClasses+class] is the cycle generator (r, class) drew
	// ahead to: it has no demand before then and nothing pending, so Tick
	// skips it. A wake before the current cycle means no draw-ahead is
	// held. The cycles live here rather than in the generators so the
	// per-cycle scan reads one contiguous block.
	wake   [numGenerators]int64
	rng    *sim.RNG
	nextID uint64

	// pool recycles packet storage: every workload packet terminates in
	// OnDeliver (requests after their response is scheduled, replies after
	// retiring, writebacks immediately), so steady-state traffic allocates
	// no packets at all.
	pool noc.Pool

	// respQ holds service-complete responses waiting for buffer space at
	// their source router, drained FIFO each cycle. Index is the
	// response's source router (clusters and L3).
	respQ [config.NumRouters][noc.NumClasses][]*noc.Packet
	// respMask has bit r*2+class set when respQ[r][class] is non-empty,
	// so the drain pass touches only occupied queues instead of scanning
	// all 34 (NumRouters x NumClasses fits a uint64).
	respMask uint64

	measuring bool
	// Injected counts packets accepted by the network during
	// measurement (Figure 4 numerator).
	Injected stats.ClassCounts
	// Retired counts requests whose response came back.
	Retired uint64
	// Shed counts demands dropped because the pending queue was full
	// (core stall).
	Shed uint64
}

// NewWorkload builds the generator set for a benchmark pair. The caller
// must register the returned workload with the engine before the network
// so demand is injected ahead of router arbitration each cycle.
func NewWorkload(engine *sim.Engine, target Target, pair Pair, seed uint64) (*Workload, error) {
	if err := pair.CPU.Validate(); err != nil {
		return nil, err
	}
	if err := pair.GPU.Validate(); err != nil {
		return nil, err
	}
	if pair.CPU.Class != noc.ClassCPU || pair.GPU.Class != noc.ClassGPU {
		return nil, fmt.Errorf("traffic: pair %s has mismatched classes", pair.Name())
	}
	tab := newExpTable()
	w := &Workload{engine: engine, target: target, rng: sim.NewRNG(seed)}
	w.admits, _ = target.(admitter)
	w.mem[noc.ClassCPU] = newCoin(pair.CPU.MemFraction)
	w.mem[noc.ClassGPU] = newCoin(pair.GPU.MemFraction)
	for i := range w.wake {
		w.wake[i] = -1
	}
	for r := 0; r < config.NumClusterRouters; r++ {
		w.gens[r][noc.ClassCPU].init(r, pair.CPU, w.rng.Fork(), tab)
		w.gens[r][noc.ClassGPU].init(r, pair.GPU, w.rng.Fork(), tab)
	}
	return w, nil
}

// init fills one in-place generator slot. rng's state is copied in by
// value: the fork happens in the same order NewWorkload always forked,
// so the draw sequences are unchanged.
func (g *generator) init(router int, profile Profile, rng *sim.RNG, tab []expEntry) {
	g.router = router
	g.profile = profile
	g.class = profile.Class
	g.maxPending = profile.MaxPending
	g.maxOutstanding = profile.MaxOutstanding
	g.rng = *rng
	g.expFor = math.NaN()
	g.expTab = tab
	if profile.RampCycles != 0 {
		g.rampStep = 1 / float64(profile.RampCycles)
	}
	g.rateSpan = profile.BurstRate - profile.BaseRate
	// The rates tickDemand computes at level 0 and level 1, bit for bit.
	g.quiet = newSteady(profile.BurstEntry, profile.BaseRate+float64(0*g.rateSpan))
	g.full = newSteady(profile.BurstExit, profile.BaseRate+float64(1*g.rateSpan))
	g.writeback = newCoin(profile.WriteFraction)
	g.l3 = newCoin(profile.L3Fraction)
}

// StartMeasurement begins counting injections (end of warmup).
func (w *Workload) StartMeasurement() { w.measuring = true }

// StopMeasurement freezes the counts.
func (w *Workload) StopMeasurement() { w.measuring = false }

// Tick first drains queued responses, then generates demand and injects
// as many packets as credits and buffer space allow.
func (w *Workload) Tick(cycle int64) {
	w.drainResponses(cycle)
	// A generator drawn ahead past this cycle has no demand and nothing
	// pending to drain, so only the others are due; the mask keeps their
	// (router, class) order.
	var due uint64
	for i, wake := range &w.wake {
		due |= uint64(wake-cycle-1) >> 63 << i // sign bit: wake <= cycle, without a branch
	}
	for ; due != 0; due &= due - 1 {
		i := bits.TrailingZeros64(due)
		g := &w.gens[i/noc.NumClasses][i%noc.NumClasses]
		var demand int
		if w.wake[i] == cycle {
			demand = g.wakeDemand // the cycle a draw-ahead stopped at
		} else {
			demand = g.tickDemand()
		}
		g.pending += demand
		if over := g.pending - g.maxPending; over > 0 {
			g.pending = g.maxPending
			g.shed += uint64(over)
			if w.measuring {
				w.Shed += uint64(over)
			}
		}
		w.drain(g, cycle)
		if g.pending == 0 {
			w.wake[i] = g.drawAhead(cycle, drawAheadHorizon)
		}
	}
}

// drain issues pending demands until an MSHR or buffer limit stops it.
// Each attempt makes all of a packet's draws, in the order writeback,
// L3, destination, request source, and takes its packet ID, accepted or
// not; when the target has an admission check, a packet it would refuse
// is never built.
func (w *Workload) drain(g *generator, cycle int64) {
	for g.pending > 0 {
		isWriteback := g.writeback.flip(&g.rng)
		if !isWriteback && g.outstanding >= g.maxOutstanding {
			return
		}
		w.nextID++
		dst := g.destination()
		class := g.class
		src, bits := writebackSource(class), noc.ResponseBits
		if !isWriteback {
			src, bits = g.requestSource(), noc.RequestBits
		}
		if w.admits != nil && !w.admits.Admits(g.router, dst, class, bits) {
			return // buffer full; fresh draws next cycle
		}
		var p *noc.Packet
		if isWriteback {
			p = w.pool.GetResponse(w.nextID, g.router, dst, class, src, cycle)
		} else {
			p = w.pool.GetRequest(w.nextID, g.router, dst, class, src, cycle)
		}
		if !w.target.Inject(p) {
			w.pool.Put(p)
			return
		}
		g.pending--
		if !isWriteback {
			g.outstanding++
		}
		if w.measuring {
			w.Injected.Add(int(p.Class), p.SizeBits)
		}
	}
}

// destination draws a packet's destination router: the L3 with
// probability L3Fraction, otherwise a uniformly chosen peer cluster.
func (g *generator) destination() int {
	if g.l3.flip(&g.rng) {
		return config.L3RouterID
	}
	dst := g.rng.Intn(config.NumClusterRouters - 1)
	if dst >= g.router {
		dst++ // skip self
	}
	return dst
}

// requestSource picks the cache level labelling a request, matching the
// Table III feature taxonomy.
func (g *generator) requestSource() noc.Source {
	m := g.rng.Uint64() >> 11
	if g.class == noc.ClassCPU {
		switch {
		case m < cpuL1IT:
			return noc.SrcCPUL1I
		case m < cpuL1DT:
			return noc.SrcCPUL1D
		default:
			return noc.SrcCPUL2Down
		}
	}
	if m < gpuL1T {
		return noc.SrcGPUL1
	}
	return noc.SrcGPUL2Down
}

// writebackSource labels dirty-eviction traffic as L2-down data.
func writebackSource(class noc.Class) noc.Source {
	if class == noc.ClassCPU {
		return noc.SrcCPUL2Down
	}
	return noc.SrcGPUL2Down
}

// OnDeliver must be called by the network when a packet reaches its
// destination router. It schedules the memory-side response for requests
// and releases the MSHR credit when a response returns home. Every
// delivered packet terminates here, so its storage is recycled into the
// pool — nothing may retain a delivered packet past this call.
func (w *Workload) OnDeliver(p *noc.Packet, cycle int64) {
	switch {
	case p.Kind == noc.KindRequest && p.WantsResponse:
		w.scheduleResponse(p, cycle)
	case p.Kind == noc.KindResponse && p.Dst < config.NumClusterRouters:
		// A response arriving home retires the original request, unless
		// it is writeback traffic terminating at a peer/L3 (handled by
		// the Dst check plus origin marker below).
		if g := w.originGenerator(p); g != nil {
			if g.outstanding > 0 {
				g.outstanding--
			}
			w.Retired++
		}
	}
	w.pool.Put(p)
}

// originGenerator maps a returning response to the generator that issued
// the request. Responses built by scheduleResponse carry the requester's
// class and terminate at the requester's router; writebacks never match
// because their Reply marker is false.
func (w *Workload) originGenerator(p *noc.Packet) *generator {
	if !p.Reply {
		return nil
	}
	return &w.gens[p.Dst][p.Class]
}

// scheduleResponse models the destination's service time, then injects the
// response into the destination router's input buffers (retrying while the
// buffer is full).
func (w *Workload) scheduleResponse(req *noc.Packet, cycle int64) {
	latency := int64(RemoteL2Cycles)
	src := noc.SrcCPUL2Up
	if req.Class == noc.ClassGPU {
		src = noc.SrcGPUL2Up
	}
	if req.Dst == config.L3RouterID {
		latency = L3HitCycles
		if w.mem[req.Class].flip(w.rng) {
			latency += MemExtraCycles
		}
		src = noc.SrcL3
	}
	w.nextID++
	resp := w.pool.GetResponse(w.nextID, req.Dst, req.Src, req.Class, src, cycle+latency)
	resp.Reply = true
	// Typed payload event instead of a closure: the response pointer rides
	// in the event itself, so scheduling the service completion allocates
	// nothing.
	w.engine.SchedulePayload(latency, w, resp, 0)
}

// HandleEvent implements sim.Handler for service-completion events: ptr is
// the finished response, released into its source router's pending queue.
func (w *Workload) HandleEvent(cycle int64, ptr any, _ int64) {
	resp := ptr.(*noc.Packet)
	resp.InjectCycle = cycle
	w.respQ[resp.Src][resp.Class] = append(w.respQ[resp.Src][resp.Class], resp)
	w.respMask |= 1 << (uint(resp.Src)*noc.NumClasses + uint(resp.Class))
}

// drainResponses injects queued responses FIFO, stopping per queue at the
// first buffer-full rejection, which the target's admission check (when
// it has one) answers without an Inject. Ascending bit order visits
// (router, class) pairs exactly as the full nested scan would.
func (w *Workload) drainResponses(int64) {
	for mask := w.respMask; mask != 0; {
		b := uint(bits.TrailingZeros64(mask))
		mask &^= 1 << b
		r, class := b/noc.NumClasses, b%noc.NumClasses
		q := w.respQ[r][class]
		n := 0
		for _, p := range q {
			if w.admits != nil && !w.admits.Admits(p.Src, p.Dst, p.Class, p.SizeBits) {
				break
			}
			if !w.target.Inject(p) {
				break
			}
			n++
			if w.measuring {
				w.Injected.Add(int(p.Class), p.SizeBits)
			}
		}
		if n > 0 {
			remaining := copy(q, q[n:])
			for i := remaining; i < len(q); i++ {
				q[i] = nil
			}
			w.respQ[r][class] = q[:remaining]
			if remaining == 0 {
				w.respMask &^= 1 << b
			}
		}
	}
}

// Outstanding returns total in-flight requests across all generators
// (drain checks in tests).
func (w *Workload) Outstanding() int {
	total := 0
	for r := range w.gens {
		for c := range w.gens[r] {
			total += w.gens[r][c].outstanding
		}
	}
	return total
}

// Pending returns total queued-but-unissued demands.
func (w *Workload) Pending() int {
	total := 0
	for r := range w.gens {
		for c := range w.gens[r] {
			total += w.gens[r][c].pending
		}
	}
	return total
}
