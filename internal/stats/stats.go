// Package stats collects the measurements the paper reports: delivered
// throughput (bits per cycle, Gbps), per-class breakdowns, end-to-end
// latency distributions and wavelength-state residency histograms.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Histogram is a float64 sample distribution with percentile support
// over a bounded ring of the most recent raw samples. Simulated
// latencies (whole cycles) go to CycleHistogram instead; this type
// serves the daemon's wall-clock job latencies and is CycleHistogram's
// reference in tests.
type Histogram struct {
	samples []float64
	next    int // the slot the next Add overwrites once samples is full
	limit   int
	sum     float64
	n       int64
}

// NewHistogram returns a histogram retaining the most recent limit raw
// samples (1<<20 when limit <= 0): once full, each Add overwrites the
// oldest, so percentiles follow the latest samples while N and Mean
// cover every one. Truncated reports whether any were overwritten.
func NewHistogram(limit int) *Histogram {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Histogram{limit: limit}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	if len(h.samples) < h.limit {
		h.samples = append(h.samples, x)
		return
	}
	h.samples[h.next] = x
	h.next = (h.next + 1) % h.limit
}

// Clone returns an independent copy of h: its retained samples, sum
// and count. A caller that guards h with a lock clones it under the lock
// and queries the copy after unlocking.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.samples = slices.Clone(h.samples)
	return &c
}

// N returns the total samples recorded.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the mean over all recorded samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Truncated reports whether samples beyond the retention limit were
// overwritten and so dropped from percentile computation.
func (h *Histogram) Truncated() bool { return h.n > int64(len(h.samples)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of retained
// samples using nearest-rank; 0 when empty.
func (h *Histogram) Percentile(p float64) float64 { return h.Percentiles(p)[0] }

// Percentiles returns the requested percentiles (each 0..100,
// nearest-rank) computed over a sorted copy of the retained samples,
// leaving the receiver's sample order untouched. One sort serves every
// requested quantile, which is what a metrics endpoint wants when it
// reports p50/p99 from a histogram shared with concurrent writers under
// an external lock.
func (h *Histogram) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(h.samples) == 0 {
		return out
	}
	sorted := make([]float64, len(h.samples))
	copy(sorted, h.samples)
	sort.Float64s(sorted)
	for i, p := range ps {
		switch {
		case p <= 0:
			out[i] = sorted[0]
		case p >= 100:
			out[i] = sorted[len(sorted)-1]
		default:
			rank := int(math.Ceil(p / 100 * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			out[i] = sorted[rank-1]
		}
	}
	return out
}

// ClassCounts tracks per-class packet and bit totals.
type ClassCounts struct {
	Packets [2]uint64
	Bits    [2]uint64
}

// Add records a delivered packet of the given class (0 or 1) and size.
func (c *ClassCounts) Add(class int, bits int) {
	c.Packets[class]++
	c.Bits[class] += uint64(bits)
}

// TotalPackets sums both classes.
func (c *ClassCounts) TotalPackets() uint64 { return c.Packets[0] + c.Packets[1] }

// TotalBits sums both classes.
func (c *ClassCounts) TotalBits() uint64 { return c.Bits[0] + c.Bits[1] }

// Share returns the class's fraction of total packets (0 when empty).
func (c *ClassCounts) Share(class int) float64 {
	tot := c.TotalPackets()
	if tot == 0 {
		return 0
	}
	return float64(c.Packets[class]) / float64(tot)
}

// maxResidencyKey is the largest wavelength count a router can hold
// (config.MaxWavelengths; this package stays free of that import).
const maxResidencyKey = 64

// Residency tracks how many cycles each wavelength state was active —
// Figure 8's state-residency breakdown. It is a fixed array indexed by
// wavelength count, so the per-router-per-cycle Add is one indexed
// increment; a key outside 0..64 panics. The zero value is ready to use.
type Residency struct {
	cycles [maxResidencyKey + 1]int64
	total  int64
}

// Add records n cycles spent in the state identified by key (wavelength
// count).
func (r *Residency) Add(key int, n int64) {
	if uint(key) > maxResidencyKey {
		badResidencyKey(key)
	}
	r.cycles[key] += n
	r.total += n
}

// Fraction returns the share of time spent in the state.
func (r *Residency) Fraction(key int) float64 {
	if uint(key) > maxResidencyKey {
		badResidencyKey(key)
	}
	if r.total == 0 {
		return 0
	}
	return float64(r.cycles[key]) / float64(r.total)
}

// badResidencyKey is out of line so Add stays small enough to inline.
//
//go:noinline
func badResidencyKey(key int) {
	panic(fmt.Sprintf("stats: residency key %d outside 0..%d", key, maxResidencyKey))
}

// Total returns total observed cycles.
func (r *Residency) Total() int64 { return r.total }

// Keys returns the state keys with a non-zero cycle count in ascending
// order.
func (r *Residency) Keys() []int {
	var keys []int
	for k, c := range r.cycles {
		if c != 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// Network aggregates the full set of run metrics.
type Network struct {
	// Delivered counts packets that reached their destination during the
	// measurement phase.
	Delivered ClassCounts
	// Injected counts packets created by the generators during the
	// measurement phase.
	Injected ClassCounts
	// CPULatency and GPULatency are end-to-end packet latency in cycles,
	// by class: each delivered packet is recorded once, in its class.
	CPULatency, GPULatency *CycleHistogram
	// Latency is the end-to-end latency of every delivered packet: the
	// read-only union of CPULatency and GPULatency.
	Latency HistogramUnion
	// StateResidency tracks wavelength-state time across all routers.
	StateResidency Residency
	// MeasuredCycles is the length of the measurement phase.
	MeasuredCycles int64
}

// NewNetwork returns an empty metric set.
func NewNetwork() *Network {
	cpu, gpu := new(CycleHistogram), new(CycleHistogram)
	return &Network{CPULatency: cpu, GPULatency: gpu, Latency: HistogramUnion{cpu, gpu}}
}

// Seal ends latency recording at the end of measurement: it seals both
// class histograms (see CycleHistogram.Seal), so a finished run keeps
// only what it counted and its reads write nothing.
func (n *Network) Seal() {
	n.CPULatency.Seal()
	n.GPULatency.Seal()
}

// ThroughputBitsPerCycle returns delivered bits per network cycle.
func (n *Network) ThroughputBitsPerCycle() float64 {
	if n.MeasuredCycles == 0 {
		return 0
	}
	return float64(n.Delivered.TotalBits()) / float64(n.MeasuredCycles)
}

// ThroughputGbps converts delivered throughput to Gbps at the given clock.
func (n *Network) ThroughputGbps(clockHz float64) float64 {
	return n.ThroughputBitsPerCycle() * clockHz / 1e9
}

// String summarises the headline numbers.
func (n *Network) String() string {
	return fmt.Sprintf("delivered=%d pkts (%.1f%% CPU) %.2f bits/cycle, mean latency %.1f cycles",
		n.Delivered.TotalPackets(), 100*n.Delivered.Share(0),
		n.ThroughputBitsPerCycle(), n.Latency.Mean())
}
