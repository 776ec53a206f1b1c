package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// queryPoints are the percentiles every differential check compares:
// both clamps, the p→0⁺ rank-0 hazard, the figures' p50/p99, a rank
// that lands on the last sample, out-of-range p on both sides, and NaN.
var queryPoints = []float64{0, 1e-9, 50, 99, 99.999, 100, 250, -5, math.NaN()}

// query is the table's marker for "compare against the reference now";
// any other negative value would make Add panic.
const query = -1

// distribution is what CycleHistogram and HistogramUnion both answer.
type distribution interface {
	N() int64
	Mean() float64
	Percentile(p float64) float64
	Percentiles(ps ...float64) []float64
}

// checkAgainstReference asserts h and the raw-sample Histogram agree on
// N, the mean's bit pattern and every query point, and that asking
// twice gives the same answers.
func checkAgainstReference(t *testing.T, h distribution, ref *Histogram) {
	t.Helper()
	if ref.Truncated() {
		t.Fatal("reference dropped samples; the stream is too long for it")
	}
	if h.N() != ref.N() {
		t.Fatalf("N = %d, reference %d", h.N(), ref.N())
	}
	if got, want := h.Mean(), ref.Mean(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Mean = %v, reference %v", got, want)
	}
	got, want := h.Percentiles(queryPoints...), ref.Percentiles(queryPoints...)
	if !slices.Equal(got, want) {
		t.Fatalf("Percentiles(%v) = %v, reference %v", queryPoints, got, want)
	}
	for i, p := range queryPoints {
		if one := h.Percentile(p); one != got[i] {
			t.Fatalf("Percentile(%v) = %v after Percentiles gave %v", p, one, got[i])
		}
	}
}

// runDifferential feeds ops to h, which must hold no samples, and to a
// raw-sample reference, comparing at every query marker and once more at
// the end, so an Add after a query has to re-dirty the lazy sort. It
// returns the reference.
func runDifferential(t *testing.T, h *CycleHistogram, ops []int64) *Histogram {
	t.Helper()
	ref := NewHistogram(0)
	for _, v := range ops {
		if v == query {
			checkAgainstReference(t, h, ref)
			continue
		}
		h.Add(v)
		ref.Add(float64(v))
	}
	checkAgainstReference(t, h, ref)
	return ref
}

func TestCycleHistogramMatchesRawSamples(t *testing.T) {
	ramp := make([]int64, 0, 3*denseLimit)
	for v := int64(3*denseLimit) - 1; v >= 0; v-- {
		ramp = append(ramp, v)
	}
	for _, tc := range []struct {
		name string
		ops  []int64
	}{
		{"empty", nil},
		{"one sample", []int64{7}},
		{"one zero", []int64{0}},
		{"all equal", []int64{86, 86, 86, 86, 86}},
		{"dense growth", []int64{3, 63, 64, 1, 2000, 65, 0}},
		{"straddling the limit", []int64{denseLimit - 2, denseLimit + 1, denseLimit - 1, denseLimit, denseLimit - 1, denseLimit}},
		{"only overflow", []int64{58487, denseLimit, 9000, 9000, 1 << 40}},
		{"one overflow sample", []int64{denseLimit}},
		{"interleaved", []int64{5, query, 1, query, 70000, query, 6000, 3, query, denseLimit, query}},
		{"descending ramp across the limit", ramp},
	} {
		t.Run(tc.name, func(t *testing.T) { runDifferential(t, new(CycleHistogram), tc.ops) })
	}
}

func TestCycleHistogramNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	new(CycleHistogram).Add(-1)
}

// TestCycleHistogramMemoryBound pins the representation: values below
// the limit cost counters sized to the largest one seen, never more
// than denseLimit of them, and only values at or above it are kept raw.
func TestCycleHistogramMemoryBound(t *testing.T) {
	var h CycleHistogram
	for i := 0; i < 100000; i++ {
		h.Add(int64(i % 340))
	}
	if len(h.dense) != 512 || len(h.overflow) != 0 {
		t.Fatalf("max 339: %d counters, %d raw; want 512, 0", len(h.dense), len(h.overflow))
	}
	h.Add(denseLimit - 1)
	h.Add(denseLimit)
	h.Add(58487)
	if len(h.dense) != denseLimit || len(h.overflow) != 2 {
		t.Fatalf("past the limit: %d counters, %d raw; want %d, 2", len(h.dense), len(h.overflow), denseLimit)
	}
}

// TestCycleHistogramReset: a histogram reset after arbitrary use
// answers every later stream exactly like a fresh one, and keeps the
// counters and overflow capacity it had grown.
func TestCycleHistogramReset(t *testing.T) {
	var h CycleHistogram
	for _, v := range []int64{3, 2000, 0, 2000, denseLimit, 58487, 9000} {
		h.Add(v)
	}
	h.Percentiles(queryPoints...) // leave the overflow sorted
	dense, overflowCap := len(h.dense), cap(h.overflow)
	for _, ops := range [][]int64{
		nil,
		{7},
		{1, 1999, 64},
		{denseLimit + 5, 4, denseLimit},
		{9000, 1, 2, 3, 58487, 2000},
	} {
		h.Reset()
		if len(h.dense) != dense || cap(h.overflow) != overflowCap {
			t.Fatalf("reset shrank the storage: %d counters, overflow cap %d; want %d, %d",
				len(h.dense), cap(h.overflow), dense, overflowCap)
		}
		var fresh CycleHistogram
		ref := NewHistogram(0)
		for _, v := range ops {
			h.Add(v)
			fresh.Add(v)
			ref.Add(float64(v))
		}
		checkAgainstReference(t, &h, ref)
		if !slices.Equal(h.Percentiles(queryPoints...), fresh.Percentiles(queryPoints...)) || h.Mean() != fresh.Mean() {
			t.Fatalf("after reset, %v answers unlike a fresh histogram", ops)
		}
		if dirty := slices.IndexFunc(h.dense[len(fresh.dense):], func(c uint32) bool { return c != 0 }); dirty >= 0 {
			t.Fatalf("after reset, %v left counter %d set past what it wrote", ops, len(fresh.dense)+dirty)
		}
	}
}

// TestCycleHistogramLongHorizon pins this type's one behaviour change
// over the raw-sample Histogram the simulator used before it: past
// 1<<20 samples that one answered percentiles over the first 1<<20
// only. Histogram now keeps the most recent 1<<20 instead, which drops
// samples all the same: the truncated answer is wrong at both p50 and
// p99.
func TestCycleHistogramLongHorizon(t *testing.T) {
	const head, tail = 1 << 20, 200000
	var h CycleHistogram
	truncated := NewHistogram(0)
	all := make([]int64, 0, head+tail)
	add := func(v int64) {
		h.Add(v)
		truncated.Add(float64(v))
		all = append(all, v)
	}
	for i := 0; i < head; i++ {
		add(int64(i % 1000))
	}
	for i := 0; i < tail; i++ {
		add(int64(2000 + i%5000)) // crosses denseLimit
	}
	if !truncated.Truncated() {
		t.Fatal("the reference should have dropped the tail")
	}
	slices.Sort(all)
	for _, p := range []float64{50, 99} {
		rank := int(math.Ceil(p / 100 * float64(len(all))))
		want := float64(all[rank-1])
		if got := h.Percentile(p); got != want {
			t.Errorf("p%v = %v, nearest rank over all %d samples is %v", p, got, len(all), want)
		}
		if first := truncated.Percentile(p); first == want {
			t.Errorf("p%v: the truncated answer %v equals the exact one; the stream does not show the difference", p, first)
		}
	}
	if got, want := h.Percentile(100), float64(all[len(all)-1]); got != want {
		t.Errorf("max = %v, want %v", got, want)
	}
}

// FuzzCycleHistogram decodes the input three bytes at a time into Adds
// of small, limit-straddling and overflow values and interleaved
// queries, and runs the same differential as the table test three times
// on one histogram: fresh, then sealed and reset, then reset unsealed.
func FuzzCycleHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 7})
	f.Add([]byte{1, 0, 86, 1, 0, 86, 1, 0, 86, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 0, 0, 0, 4, 4, 0, 4, 1, 0})
	f.Add([]byte{6, 255, 255, 6, 0, 0, 7, 0, 1, 0, 0, 0, 6, 0, 0})
	f.Add([]byte{2, 3, 200, 0, 0, 0, 6, 1, 1, 0, 0, 0, 3, 0, 1, 5, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]int64, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			ops = append(ops, decodeOp(data[0], data[1], data[2]))
		}
		var h CycleHistogram
		ref := runDifferential(t, &h, ops)
		h.Seal()
		checkAgainstReference(t, &h, ref)
		h.Reset()
		runDifferential(t, &h, ops)
		h.Reset()
		runDifferential(t, &h, ops)
	})
}

// decodeOp turns three fuzz bytes into query or a small,
// limit-straddling or overflow value, chosen by the low three bits of
// sel.
func decodeOp(sel, hi, lo byte) int64 {
	arg := int64(hi)<<8 | int64(lo)
	switch sel % 8 {
	case 0:
		return query
	case 1, 2, 3:
		return arg % denseLimit
	case 4, 5:
		return denseLimit - 2 + arg%5
	default:
		return denseLimit + arg*8
	}
}

// FuzzLatencyUnion feeds decoded values to one of two histograms, the
// side picked by bit 3 of each selector byte, and checks their union
// against the raw-sample reference over the concatenated samples at
// every query, at the end, and again once both are sealed.
func FuzzLatencyUnion(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 7, 0, 0, 0})                     // one side empty
	f.Add([]byte{9, 0, 7, 14, 0, 9, 0, 0, 0})           // the other side empty
	f.Add([]byte{6, 0, 3, 14, 0, 3, 6, 0, 1, 14, 0, 9}) // tied overflow on both sides
	f.Add([]byte{1, 0, 86, 9, 0, 86, 1, 0, 85, 9, 0, 87, 0, 0, 0})
	f.Add([]byte{2, 3, 200, 14, 255, 255, 0, 0, 0, 11, 0, 1, 4, 0, 3, 12, 0, 4, 6, 0, 0})
	f.Add([]byte{6, 255, 255, 6, 0, 0, 9, 0, 1, 0, 0, 0, 14, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b CycleHistogram
		u := HistogramUnion{&a, &b}
		ref := NewHistogram(0)
		for ; len(data) >= 3; data = data[3:] {
			v := decodeOp(data[0], data[1], data[2])
			if v == query {
				checkAgainstReference(t, u, ref)
				continue
			}
			side := &a
			if data[0]&8 != 0 {
				side = &b
			}
			side.Add(v)
			ref.Add(float64(v))
		}
		checkAgainstReference(t, u, ref)
		a.Seal()
		b.Seal()
		checkAgainstReference(t, u, ref)
	})
}

// TestCycleHistogramSeal: sealing keeps every answer bit-equal, cuts
// the counters to the largest value counted + 1 and the overflow to an
// exactly sized sorted slice, and Add and Reset afterwards still agree
// with the reference.
func TestCycleHistogramSeal(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after []int64
		counters      int // len(dense) once sealed
	}{
		{"empty", nil, []int64{5, denseLimit}, 0},
		{"only zero", []int64{0, 0}, []int64{1}, 1},
		{"dense", []int64{3, 63, 64, 1, 339, 65, 0}, []int64{2000, 7}, 340},
		{"largest value at the limit", []int64{denseLimit - 1, 2}, []int64{denseLimit - 1}, denseLimit},
		{"only overflow", []int64{58487, denseLimit, 9000, 9000, 1 << 40}, []int64{3, denseLimit + 1}, 0},
		{"both", []int64{9000, 7, denseLimit, 300, 58487, 0, 9000}, []int64{70000, 301, 5}, 301},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h CycleHistogram
			ref := NewHistogram(0)
			add := func(vs []int64) {
				for _, v := range vs {
					h.Add(v)
					ref.Add(float64(v))
				}
			}
			add(tc.before)
			n, mean, ps := h.N(), h.Mean(), h.Percentiles(queryPoints...)
			h.Seal()
			if h.N() != n || math.Float64bits(h.Mean()) != math.Float64bits(mean) {
				t.Fatalf("sealing moved N, Mean from %d, %v to %d, %v", n, mean, h.N(), h.Mean())
			}
			if got := h.Percentiles(queryPoints...); !slices.Equal(got, ps) {
				t.Fatalf("sealing moved Percentiles from %v to %v", ps, got)
			}
			if len(h.dense) != tc.counters || cap(h.dense) != len(h.dense) {
				t.Fatalf("sealed: %d counters (cap %d), want %d", len(h.dense), cap(h.dense), tc.counters)
			}
			if cap(h.overflow) != len(h.overflow) || !slices.IsSorted(h.overflow) || h.unsorted {
				t.Fatalf("sealed overflow %v (cap %d) is not an exactly sized sorted slice", h.overflow, cap(h.overflow))
			}
			checkAgainstReference(t, &h, ref)

			add(tc.after)
			checkAgainstReference(t, &h, ref)

			h.Seal()
			h.Reset()
			ref = NewHistogram(0)
			add(tc.after)
			checkAgainstReference(t, &h, ref)
		})
	}
}

// TestSealedHistogramConcurrentReads: a sealed histogram with overflow
// and the union over two of them answer concurrent readers, and none of
// their reads writes (under -race an unsealed histogram's lazy sort
// fails this). The expected answers come from the reference, so no read
// of the histograms happens before the readers start.
func TestSealedHistogramConcurrentReads(t *testing.T) {
	n := NewNetwork()
	cpuRef, allRef := NewHistogram(0), NewHistogram(0)
	for i := int64(0); i < 6000; i++ {
		v := i * 7919 % 9001 // scrambled, a third of it overflow
		if i%3 == 0 {
			n.GPULatency.Add(v)
		} else {
			n.CPULatency.Add(v)
			cpuRef.Add(float64(v))
		}
		allRef.Add(float64(v))
	}
	n.Seal()
	wantCPU, wantAll := cpuRef.Percentiles(queryPoints...), allRef.Percentiles(queryPoints...)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if got := n.CPULatency.Percentiles(queryPoints...); !slices.Equal(got, wantCPU) {
					errs <- fmt.Sprintf("CPU percentiles %v, want %v", got, wantCPU)
					return
				}
				if got := n.Latency.Percentiles(queryPoints...); !slices.Equal(got, wantAll) {
					errs <- fmt.Sprintf("union percentiles %v, want %v", got, wantAll)
					return
				}
				if n.CPULatency.Mean() != cpuRef.Mean() || n.Latency.Mean() != allRef.Mean() {
					errs <- "mean moved"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCycleHistogramSampleLimit: a histogram holding maxSamples samples,
// all in one counter, still answers; the next Add wraps that counter,
// and from then on Seal and every percentile read, its own or a union's,
// panic naming the limit instead of answering from the wrapped count.
// Reset clears it back to a fresh histogram.
func TestCycleHistogramSampleLimit(t *testing.T) {
	var h CycleHistogram
	h.Add(5)
	h.dense[5], h.n, h.sum = math.MaxUint32, maxSamples, 5*maxSamples
	if got := h.Percentile(50); got != 5 {
		t.Fatalf("at the limit p50 = %v, want 5", got)
	}
	h.Add(5)
	if h.dense[5] != 0 {
		t.Fatalf("counter reads %d; the test no longer wraps it", h.dense[5])
	}
	var other CycleHistogram
	other.Add(3)
	for name, read := range map[string]func(){
		"Percentile":        func() { h.Percentile(50) },
		"Percentiles":       func() { h.Percentiles(50, 99) },
		"union Percentile":  func() { HistogramUnion{&other, &h}.Percentile(50) },
		"union Percentiles": func() { HistogramUnion{&h, &other}.Percentiles(99) },
		"Seal":              h.Seal,
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "4294967295") {
					t.Fatalf("panic %q does not name the limit", msg)
				}
			}()
			read()
		})
	}
	h.Reset()
	ref := NewHistogram(0)
	for _, v := range []int64{5, 7, denseLimit} {
		h.Add(v)
		ref.Add(float64(v))
	}
	checkAgainstReference(t, &h, ref)
}
