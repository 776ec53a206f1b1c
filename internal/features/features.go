// Package features implements the Table III feature vector: the 30
// router-local counters the ML power-scaling unit reads at each
// reservation-window boundary. Everything here is information the paper
// argues is already present at each router — buffer occupancy counters,
// packet-header taps and per-source counters — reset at the end of every
// window (§III.D.2).
package features

import (
	"fmt"

	"repro/internal/noc"
)

// Feature indices into the 30-wide vector, matching Table III's numbering
// minus one.
const (
	FeatL3Router       = iota // 1. L3 router flag
	FeatCPUCoreBufUtil        // 2. CPU core input buffer utilisation
	FeatCPUNetBufUtil         // 3. other-router CPU input buffer utilisation
	FeatGPUCoreBufUtil        // 4. GPU core input buffer utilisation
	FeatGPUNetBufUtil         // 5. other-router GPU input buffer utilisation
	FeatLinkUtil              // 6. outgoing link utilisation
	FeatPktsToCore            // 7. packets sent to a local core
	FeatInFromRouters         // 8. incoming packets from other routers
	FeatInFromCores           // 9. incoming packets from the cores
	FeatRequestsSent          // 10. requests sent
	FeatRequestsRecv          // 11. requests received
	FeatResponsesSent         // 12. responses sent
	FeatResponsesRecv         // 13. responses received
	FeatRequestSrcBase        // 14-21. requests by cache source
	// 22-29. responses by cache source
	FeatResponseSrcBase = FeatRequestSrcBase + int(noc.NumSources)
	// 30. number of wavelengths
	FeatWavelengths = FeatResponseSrcBase + int(noc.NumSources)

	// Count is the full feature-vector width (30).
	Count = FeatWavelengths + 1
)

// SchemaVersion identifies the feature-vector layout. A trained model
// artifact records the version it was fitted against, and the serving
// side refuses to load artifacts from a different one — weights are
// meaningless over a reordered or resized vector. Bump this whenever
// the indices above (or Count) change.
const SchemaVersion = 1

// Collector accumulates one router's counters across a reservation window.
type Collector struct {
	isL3 bool

	cycles int64

	cpuCoreOccSum, cpuNetOccSum float64
	gpuCoreOccSum, gpuNetOccSum float64
	linkBusyCycles              int64

	pktsToCore    int64
	inFromRouters int64
	inFromCores   int64

	requestsSent, requestsRecv   int64
	responsesSent, responsesRecv int64

	requestBySrc  [noc.NumSources]int64
	responseBySrc [noc.NumSources]int64

	wavelengthSum int64

	// injectedBits tracks total bits injected from cores, giving the
	// mean packet size used by the Eq. 7 state mapping.
	injectedBits int64
	// injectedFlits counts injected 128-bit flits (buffer slots); the
	// paper's "packets" are single-flit 128-bit units, so this is the
	// training label.
	injectedFlits int64
}

// NewCollector returns an empty collector; isL3 sets the Table III
// feature-1 flag.
func NewCollector(isL3 bool) *Collector {
	return &Collector{isL3: isL3}
}

// ObserveCycle records the per-cycle gauges: the four buffer occupancies
// (fractions in [0,1]), whether the outgoing link carried data, and the
// active wavelength count.
func (c *Collector) ObserveCycle(cpuCore, cpuNet, gpuCore, gpuNet float64, linkBusy bool, wavelengths int) {
	c.cycles++
	c.cpuCoreOccSum += cpuCore
	c.cpuNetOccSum += cpuNet
	c.gpuCoreOccSum += gpuCore
	c.gpuNetOccSum += gpuNet
	if linkBusy {
		c.linkBusyCycles++
	}
	c.wavelengthSum += int64(wavelengths)
}

// ObserveIdle records a cycle of a router with empty buffers and an idle
// link: ObserveCycle(0, 0, 0, 0, false, wavelengths) without the four
// additions of +0.0, which leave the occupancy sums bit-identical (they
// start at +0 and only ever grow by non-negative values).
func (c *Collector) ObserveIdle(wavelengths int) {
	c.cycles++
	c.wavelengthSum += int64(wavelengths)
}

// CountInjection records a packet entering the network from the local
// cores (or the L3 cache at the L3 router).
func (c *Collector) CountInjection(p *noc.Packet) {
	c.inFromCores++
	c.injectedBits += int64(p.SizeBits)
	c.injectedFlits += int64(p.Flits(FlitBits))
	c.countMovement(p)
}

// CountSend records a packet departing on the router's send waveguide.
func (c *Collector) CountSend(p *noc.Packet) {
	if p.Kind == noc.KindRequest {
		c.requestsSent++
	} else {
		c.responsesSent++
	}
}

// CountReceive records a packet arriving from another router.
func (c *Collector) CountReceive(p *noc.Packet) {
	c.inFromRouters++
	if p.Kind == noc.KindRequest {
		c.requestsRecv++
	} else {
		c.responsesRecv++
	}
	c.countMovement(p)
}

// CountEjection records a packet handed to a local core.
func (c *Collector) CountEjection(*noc.Packet) {
	c.pktsToCore++
}

// countMovement tallies features 14-29 for packets moving through the
// router.
func (c *Collector) countMovement(p *noc.Packet) {
	if p.Source < 0 || p.Source >= noc.NumSources {
		panic(fmt.Sprintf("features: packet with invalid source %d", int(p.Source)))
	}
	if p.Kind == noc.KindRequest {
		c.requestBySrc[p.Source]++
	} else {
		c.responseBySrc[p.Source]++
	}
}

// FlitBits is the 128-bit buffer-slot width used to express injected
// traffic in the paper's single-flit packet units.
const FlitBits = 128

// Injected returns the packets injected from cores so far this window.
func (c *Collector) Injected() int64 { return c.inFromCores }

// InjectedFlits returns the 128-bit flit count injected from cores so far
// this window — the training label for the previous window's features
// (§IV.A; the paper's packets are single-flit 128-bit units).
func (c *Collector) InjectedFlits() int64 { return c.injectedFlits }

// MeanInjectedBits returns the mean injected packet size this window, or
// fallback when nothing was injected.
func (c *Collector) MeanInjectedBits(fallback float64) float64 {
	if c.inFromCores == 0 {
		return fallback
	}
	return float64(c.injectedBits) / float64(c.inFromCores)
}

// Snapshot renders the Table III vector for the window so far. It does
// not reset; call Reset afterwards (the paper resets counters at each
// window boundary).
func (c *Collector) Snapshot() []float64 {
	v := make([]float64, Count)
	if c.isL3 {
		v[FeatL3Router] = 1
	}
	if c.cycles > 0 {
		n := float64(c.cycles)
		v[FeatCPUCoreBufUtil] = c.cpuCoreOccSum / n
		v[FeatCPUNetBufUtil] = c.cpuNetOccSum / n
		v[FeatGPUCoreBufUtil] = c.gpuCoreOccSum / n
		v[FeatGPUNetBufUtil] = c.gpuNetOccSum / n
		v[FeatLinkUtil] = float64(c.linkBusyCycles) / n
		v[FeatWavelengths] = float64(c.wavelengthSum) / n
	}
	v[FeatPktsToCore] = float64(c.pktsToCore)
	v[FeatInFromRouters] = float64(c.inFromRouters)
	v[FeatInFromCores] = float64(c.inFromCores)
	v[FeatRequestsSent] = float64(c.requestsSent)
	v[FeatRequestsRecv] = float64(c.requestsRecv)
	v[FeatResponsesSent] = float64(c.responsesSent)
	v[FeatResponsesRecv] = float64(c.responsesRecv)
	for s := 0; s < int(noc.NumSources); s++ {
		v[FeatRequestSrcBase+s] = float64(c.requestBySrc[s])
		v[FeatResponseSrcBase+s] = float64(c.responseBySrc[s])
	}
	return v
}

// Reset clears every counter for the next window.
func (c *Collector) Reset() {
	*c = Collector{isL3: c.isL3}
}
