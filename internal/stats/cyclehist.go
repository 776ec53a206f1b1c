package stats

import (
	"fmt"
	"math"
	"slices"
)

// denseLimit bounds the counted value range of a CycleHistogram: one
// int64 counter per latency below it (32 KB when fully grown). PEARL's
// latency maxima sit at a few hundred to a few thousand cycles, so
// nearly every sample is a counter increment. A saturated CMESH
// delivers few packets with latencies in the tens of thousands; counting
// those densely would cost more than keeping them, so values at or
// above the limit are kept raw instead.
const denseLimit = 4096

// CycleHistogram is an exact latency distribution over whole cycles.
// Memory is bounded by the value range and the sample count together:
// at most denseLimit counters plus 8 bytes per sample at or above
// denseLimit, whatever the run length. The zero value is ready to use.
type CycleHistogram struct {
	// dense[v] counts the samples equal to v; it grows on demand to the
	// next power of two above the largest value seen, up to denseLimit.
	dense []int64
	// overflow holds the samples >= denseLimit, sorted lazily at the
	// first percentile query after an Add.
	overflow []int64
	sorted   bool
	n, sum   int64
}

// Add records a latency of v cycles. A negative latency is a simulator
// bug (delivery before injection) and panics.
func (h *CycleHistogram) Add(v int64) {
	h.n++
	h.sum += v
	// One unsigned compare sends negatives to the slow path too.
	if uint64(v) < uint64(len(h.dense)) {
		h.dense[v]++
		return
	}
	h.addSlow(v)
}

// addSlow handles a value outside the dense counters' current length.
func (h *CycleHistogram) addSlow(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative latency %d", v))
	}
	if v >= denseLimit {
		h.overflow = append(h.overflow, v)
		h.sorted = false
		return
	}
	size := 64
	for int64(size) <= v {
		size *= 2
	}
	dense := make([]int64, size)
	copy(dense, h.dense)
	h.dense = dense
	h.dense[v]++
}

// Reset empties the histogram for reuse and keeps its storage. The
// dense counters are cleared from 0 up to the largest value counted,
// found by walking until every counted sample is accounted for, so a
// reset costs the range of the samples it forgets, not the counters'
// length, and Add pays nothing to track it. The overflow slice keeps its
// capacity.
func (h *CycleHistogram) Reset() {
	left := h.n - int64(len(h.overflow))
	for v := 0; left > 0; v++ {
		left -= h.dense[v]
		h.dense[v] = 0
	}
	h.overflow = h.overflow[:0]
	h.sorted = false
	h.n, h.sum = 0, 0
}

// N returns the total samples recorded.
func (h *CycleHistogram) N() int64 { return h.n }

// Mean returns the mean over all recorded samples (0 when empty). The
// integer sum is exact, so the result equals a float64 accumulation of
// the same samples for any sum below 2^53.
func (h *CycleHistogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the p-th percentile over every recorded sample by
// nearest rank (rank = ceil(p/100*n)); p <= 0 gives the minimum,
// p >= 100 the maximum, an empty histogram 0.
func (h *CycleHistogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	var rank int64
	switch {
	case p <= 0:
		rank = 1
	case p >= 100:
		rank = h.n
	default:
		// NaN lands here; its conversion is implementation-defined and
		// the clamp sends it to the minimum.
		rank = int64(math.Ceil(p / 100 * float64(h.n)))
		if rank < 1 {
			rank = 1
		}
	}
	return float64(h.atRank(rank))
}

// Percentiles returns Percentile(p) for each requested p.
func (h *CycleHistogram) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// atRank returns the rank-th smallest sample (1-based): a prefix walk
// over the dense counters, then an index into the sorted overflow.
func (h *CycleHistogram) atRank(rank int64) int64 {
	var seen int64
	for v, c := range h.dense {
		seen += c
		if seen >= rank {
			return int64(v)
		}
	}
	if !h.sorted {
		slices.Sort(h.overflow)
		h.sorted = true
	}
	return h.overflow[rank-seen-1]
}
