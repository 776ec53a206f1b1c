package experiments

import (
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/stats"
)

// WindowStats is one reservation window's worth of live measurement,
// emitted through Options.OnWindow while a run executes. Every field is
// derived purely from simulator state, so for a fixed seed the sequence
// of WindowStats values is as deterministic as the final Result.
type WindowStats struct {
	// Window is the zero-based window index within the measurement
	// phase; Cycle is the absolute cycle at which the window closed and
	// Cycles how many cycles it covered (the final window may be a
	// partial one when MeasureCycles is not a multiple of the
	// reservation window).
	Window int   `json:"window"`
	Cycle  int64 `json:"cycle"`
	Cycles int64 `json:"cycles"`
	// DeliveredPackets and ThroughputBitsPerCycle cover this window
	// only (deltas of the cumulative measurement counters).
	DeliveredPackets       uint64  `json:"delivered_packets"`
	ThroughputBitsPerCycle float64 `json:"throughput_bits_per_cycle"`
	// Latency percentiles over the packets delivered in this window, by
	// nearest rank (a stats.CycleHistogram reset at every window); zero
	// when nothing landed.
	LatencyP50Cycles float64 `json:"latency_p50_cycles"`
	LatencyP99Cycles float64 `json:"latency_p99_cycles"`
	// WavelengthsOn is the mean per-router wavelength count powered at
	// the window boundary (always 0 for the electrical backend).
	WavelengthsOn float64 `json:"wavelengths_on"`
	// PowerW is the window's mean total power draw.
	PowerW float64 `json:"power_w"`
	// InFlight is the packet population still in the network at the
	// window boundary.
	InFlight int `json:"in_flight"`
}

// windowSource is what the sampler needs from either backend: the
// cumulative measurement counters, the live packet population, and the
// instantaneous photonic state.
type windowSource interface {
	Metrics() *stats.Network
	InFlight() int
	WavelengthsOn() float64
}

// windowSampler observes a run at reservation-window boundaries and
// hands per-window deltas to the OnWindow hook. It is registered as an
// extra engine component after the network (so it sees the cycle's
// completed state) and only when a hook is set, keeping the kernel's
// hot path untouched for ordinary runs: it never mutates simulator
// state, only reads it once per window.
type windowSampler struct {
	hook   func(WindowStats)
	src    windowSource
	acct   *power.Account
	period int64
	freqHz float64

	active      bool
	first       int64 // first measured cycle
	lastEmit    int64 // last cycle folded into an emitted window
	index       int
	lastBits    uint64
	lastPackets uint64
	lastEnergy  float64
	// lats holds the current window's latencies; reset, not reallocated,
	// at every window boundary.
	lats stats.CycleHistogram
}

func newWindowSampler(hook func(WindowStats), src windowSource, acct *power.Account, period int64, freqHz float64) *windowSampler {
	if period <= 0 {
		period = 1
	}
	return &windowSampler{hook: hook, src: src, acct: acct, period: period, freqHz: freqHz}
}

// wrapDeliver chains the sampler onto the workload's delivery handler:
// the workload sees exactly the callback it always has, and the sampler
// records the packet's latency for the current window's percentiles.
func (s *windowSampler) wrapDeliver(inner func(p *noc.Packet, cycle int64)) func(p *noc.Packet, cycle int64) {
	return func(p *noc.Packet, cycle int64) {
		if s.active {
			s.lats.Add(cycle - p.InjectCycle)
		}
		inner(p, cycle)
	}
}

// start arms the sampler at the first measured cycle, snapshotting the
// cumulative baselines the first window's deltas subtract.
func (s *windowSampler) start(cycle int64) {
	s.active = true
	s.first = cycle
	s.lastEmit = cycle - 1
	m := s.src.Metrics()
	s.lastBits = m.Delivered.TotalBits()
	s.lastPackets = m.Delivered.TotalPackets()
	if s.acct != nil {
		s.lastEnergy = s.acct.TotalEnergyJ()
	}
}

// Tick closes a window on its last cycle. The sampler registers after
// the network, so the cycle's deliveries and state transitions are
// already folded in when it looks.
func (s *windowSampler) Tick(cycle int64) {
	if !s.active || (cycle-s.first+1)%s.period != 0 {
		return
	}
	s.emit(cycle)
}

// finish flushes the trailing partial window (when MeasureCycles is not
// a multiple of the reservation window) and disarms the sampler. now is
// the first cycle after measurement.
func (s *windowSampler) finish(now int64) {
	s.emit(now - 1)
	s.active = false
}

func (s *windowSampler) emit(endCycle int64) {
	cycles := endCycle - s.lastEmit
	if cycles <= 0 {
		return
	}
	m := s.src.Metrics()
	bits := m.Delivered.TotalBits()
	packets := m.Delivered.TotalPackets()
	ws := WindowStats{
		Window:                 s.index,
		Cycle:                  endCycle,
		Cycles:                 cycles,
		DeliveredPackets:       packets - s.lastPackets,
		ThroughputBitsPerCycle: float64(bits-s.lastBits) / float64(cycles),
		LatencyP50Cycles:       s.lats.Percentile(50),
		LatencyP99Cycles:       s.lats.Percentile(99),
		WavelengthsOn:          s.src.WavelengthsOn(),
		InFlight:               s.src.InFlight(),
	}
	if s.acct != nil && s.freqHz > 0 {
		energy := s.acct.TotalEnergyJ()
		ws.PowerW = (energy - s.lastEnergy) * s.freqHz / float64(cycles)
		s.lastEnergy = energy
	}
	s.index++
	s.lastEmit = endCycle
	s.lastBits = bits
	s.lastPackets = packets
	s.lats.Reset()
	s.hook(ws)
}
