package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// denseLimit bounds the counted value range of a CycleHistogram: one
// uint32 counter per latency below it (16 KB when fully grown). PEARL's
// latency maxima sit at a few hundred to a few thousand cycles, so
// nearly every sample is a counter increment. A saturated CMESH
// delivers few packets with latencies in the tens of thousands; counting
// those densely would cost more than keeping them, so values at or
// above the limit are kept raw instead.
const denseLimit = 4096

// maxSamples is the most samples one CycleHistogram answers for: up to
// it no uint32 counter can wrap. That is about 286M cycles of a
// saturated network, far past any run the daemon admits. Past it Seal
// and every percentile read panic rather than read a wrapped counter.
const maxSamples = math.MaxUint32

// CycleHistogram is an exact latency distribution over whole cycles.
// Memory is bounded by the value range and the sample count together:
// at most denseLimit 4-byte counters plus 8 bytes per sample at or
// above denseLimit, whatever the run length. Seal trims both to what
// was counted once recording is over. It counts at most maxSamples
// samples. The zero value is ready to use.
type CycleHistogram struct {
	// dense[v] counts the samples equal to v; it grows on demand to the
	// next power of two above the largest value seen, up to denseLimit.
	// Reads widen each count to int64 before adding it to another.
	dense []uint32
	// overflow holds the samples >= denseLimit, sorted lazily at the
	// first percentile query after an Add that left them unsorted.
	overflow []int64
	unsorted bool
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
		h.unsorted = true
		return
	}
	size := 64
	for int64(size) <= v {
		size *= 2
	}
	dense := make([]uint32, size)
	copy(dense, h.dense)
	h.dense = dense
	h.dense[v]++
}

// Reset empties the histogram for reuse and keeps its storage. The
// dense counters are cleared from 0 up to the largest value counted,
// found by walking until every counted sample is accounted for, so a
// reset costs the range of the samples it forgets, not the counters'
// length, and Add pays nothing to track it. The overflow slice keeps its
// capacity. A histogram past maxSamples, whose counters may have
// wrapped, is cleared whole.
func (h *CycleHistogram) Reset() {
	if h.n > maxSamples {
		clear(h.dense)
	} else {
		left := h.n - int64(len(h.overflow))
		for v := 0; left > 0; v++ {
			left -= int64(h.dense[v])
			h.dense[v] = 0
		}
	}
	h.overflow = h.overflow[:0]
	h.unsorted = false
	h.n, h.sum = 0, 0
}

// Seal ends recording: the dense counters are cut to the largest value
// counted + 1 and the overflow is sorted into an exactly sized slice,
// so a histogram a finished run keeps holds what it counted and no
// growth headroom. A sealed histogram's reads write nothing, so any
// number of goroutines may query it at once. Add and Reset still work
// afterwards; the first Add past the trimmed storage grows it again.
// Sealing a histogram past maxSamples panics.
func (h *CycleHistogram) Seal() {
	h.checkCount()
	top := len(h.dense)
	for top > 0 && h.dense[top-1] == 0 {
		top--
	}
	h.dense = exact(h.dense[:top])
	h.overflow = exact(h.sortedOverflow())
}

// exact returns a copy of s with no spare capacity, or nil when s is
// empty, so nothing of s's backing array stays reachable through it.
func exact[T uint32 | int64](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// N returns the total samples recorded.
func (h *CycleHistogram) N() int64 { return h.n }

// checkCount panics once h holds more samples than its counters can
// count without wrapping.
func (h *CycleHistogram) checkCount() {
	if h.n > maxSamples {
		panic(fmt.Sprintf("stats: %d latency samples in one histogram, past the %d its uint32 counters hold", h.n, uint64(maxSamples)))
	}
}

// Mean returns the mean over all recorded samples (0 when empty). The
// integer sum is exact, so the result equals a float64 accumulation of
// the same samples for any sum below 2^53.
func (h *CycleHistogram) Mean() float64 { return mean(h.sum, h.n) }

// Percentile returns the p-th percentile over every recorded sample by
// nearest rank (rank = ceil(p/100*n)); p <= 0 gives the minimum,
// p >= 100 the maximum, an empty histogram 0. It panics past
// maxSamples samples.
func (h *CycleHistogram) Percentile(p float64) float64 { return percentile(p, h, &emptyHist) }

// Percentiles returns Percentile(p) for each requested p.
func (h *CycleHistogram) Percentiles(ps ...float64) []float64 {
	return percentiles(ps, h, &emptyHist)
}

// sortedOverflow returns the overflow samples in ascending order,
// sorting them first only if an Add left them unsorted.
func (h *CycleHistogram) sortedOverflow() []int64 {
	if h.unsorted {
		slices.Sort(h.overflow)
		h.unsorted = false
	}
	return h.overflow
}

// emptyHist is the second operand of a single histogram's rank walk.
// Nothing adds to it, so reading it writes nothing.
var emptyHist CycleHistogram

// HistogramUnion is the read-only distribution of two CycleHistograms'
// samples together, answered from their storage without a copy. It
// reads the histograms it was built over, so it follows their later
// Adds.
type HistogramUnion struct{ a, b *CycleHistogram }

// N returns the samples recorded in both histograms.
func (u HistogramUnion) N() int64 { return u.a.n + u.b.n }

// Mean returns the mean over both histograms' samples (0 when empty).
func (u HistogramUnion) Mean() float64 { return mean(u.a.sum+u.b.sum, u.a.n+u.b.n) }

// Percentile returns the p-th percentile over both histograms' samples,
// by nearest rank as CycleHistogram.Percentile.
func (u HistogramUnion) Percentile(p float64) float64 { return percentile(p, u.a, u.b) }

// Percentiles returns Percentile(p) for each requested p.
func (u HistogramUnion) Percentiles(ps ...float64) []float64 { return percentiles(ps, u.a, u.b) }

func mean(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func percentiles(ps []float64, a, b *CycleHistogram) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentile(p, a, b)
	}
	return out
}

// percentile is the one nearest-rank query: the p-th percentile of the
// samples of a and b together. It refuses an operand past maxSamples;
// below that their summed counts cannot overflow the int64 walk.
func percentile(p float64, a, b *CycleHistogram) float64 {
	a.checkCount()
	b.checkCount()
	n := a.n + b.n
	if n == 0 {
		return 0
	}
	var rank int64
	switch {
	case p <= 0:
		rank = 1
	case p >= 100:
		rank = n
	default:
		// NaN lands here; its conversion is implementation-defined and
		// the clamp sends it to the minimum.
		rank = int64(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
	}
	return float64(atRank(rank, a, b))
}

// atRank returns the rank-th smallest sample (1-based) of a and b
// together: a prefix walk over their summed dense counters, then a pick
// from their merged sorted overflows.
func atRank(rank int64, a, b *CycleHistogram) int64 {
	long, short := a.dense, b.dense
	if len(long) < len(short) {
		long, short = short, long
	}
	var seen int64
	for v, c := range long {
		seen += int64(c)
		if v < len(short) {
			seen += int64(short[v])
		}
		if seen >= rank {
			return int64(v)
		}
	}
	return mergedAt(a.sortedOverflow(), b.sortedOverflow(), int(rank-seen-1))
}

// mergedAt returns element k (0-based) of the ascending merge of the
// sorted slices x and y without merging them. It binary-searches i, how
// many of the k+1 smallest come from x: the least i for which the last
// of the k+1-i taken from y does not exceed x[i].
func mergedAt(x, y []int64, k int) int64 {
	lo, hi := max(0, k+1-len(y)), min(k+1, len(x))
	i := lo + sort.Search(hi-lo, func(d int) bool {
		i := lo + d
		return y[k-i] <= x[i]
	})
	j := k + 1 - i
	switch {
	case i == 0:
		return y[j-1]
	case j == 0:
		return x[i-1]
	default:
		return max(x[i-1], y[j-1])
	}
}
