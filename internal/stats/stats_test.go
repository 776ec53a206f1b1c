package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Percentile(50) != 50 {
		t.Fatalf("p50 = %v", h.Percentile(50))
	}
	if h.Percentile(99) != 99 {
		t.Fatalf("p99 = %v", h.Percentile(99))
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 100 {
		t.Fatalf("p0/p100 = %v/%v", h.Percentile(0), h.Percentile(100))
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramEmptyAndTruncation(t *testing.T) {
	h := NewHistogram(2)
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	h.Add(1)
	h.Add(2)
	h.Add(3)
	if !h.Truncated() {
		t.Fatal("expected truncation past limit")
	}
	if h.N() != 3 {
		t.Fatalf("n = %d", h.N())
	}
	if h.Mean() != 2 {
		t.Fatalf("mean should include all samples: %v", h.Mean())
	}
}

func TestHistogramInterleavedAddPercentile(t *testing.T) {
	h := NewHistogram(0)
	h.Add(5)
	_ = h.Percentile(50)
	h.Add(1) // must re-sort after adding post-query
	if h.Percentile(0) != 1 {
		t.Fatalf("p0 = %v, want 1", h.Percentile(0))
	}
}

// TestHistogramKeepsMostRecent: past the limit each sample overwrites
// the oldest, so a daemon's latency quantiles follow its latest runs
// instead of freezing on its first ones, while the mean covers all.
func TestHistogramKeepsMostRecent(t *testing.T) {
	const limit = 1 << 16
	h := NewHistogram(limit)
	for i := 0; i < limit; i++ {
		h.Add(1)
	}
	for i := 0; i < limit; i++ {
		h.Add(2)
	}
	if got := h.Percentiles(0, 50, 99); !slices.Equal(got, []float64{2, 2, 2}) {
		t.Fatalf("p0/p50/p99 = %v after %d ones then %d twos, want all 2", got, limit, limit)
	}
	if p50 := h.Percentile(50); p50 != 2 {
		t.Fatalf("p50 = %v, want 2", p50)
	}
	if !h.Truncated() || h.N() != 2*limit || h.Mean() != 1.5 {
		t.Fatalf("truncated=%v n=%d mean=%v, want true, %d, 1.5", h.Truncated(), h.N(), h.Mean(), 2*limit)
	}
	// Half a limit of threes replaces the oldest twos: the ring's order
	// survives the queries above.
	for i := 0; i < limit/2; i++ {
		h.Add(3)
	}
	if got := h.Percentiles(49, 51); !slices.Equal(got, []float64{2, 3}) {
		t.Fatalf("p49/p51 = %v, want [2 3]", got)
	}
}

// TestHistogramClone: a clone answers like the original, wrapped ring
// included, and Adds to either leave the other as it was.
func TestHistogramClone(t *testing.T) {
	h := NewHistogram(4)
	for _, x := range []float64{9, 1, 7, 3, 5, 2} {
		h.Add(x)
	}
	c := h.Clone()
	ps := []float64{0, 50, 99, 100}
	want := h.Percentiles(ps...)
	if got := c.Percentiles(ps...); !slices.Equal(got, want) || c.Mean() != h.Mean() || c.N() != h.N() || !c.Truncated() {
		t.Fatalf("clone: percentiles %v mean %v n %d, original %v %v %d", got, c.Mean(), c.N(), want, h.Mean(), h.N())
	}
	h.Add(100)
	c.Add(-100)
	if got := h.Percentiles(ps...); !slices.Equal(got, []float64{2, 3, 100, 100}) {
		t.Fatalf("original after Adds to both: %v", got)
	}
	if got := c.Percentiles(ps...); !slices.Equal(got, []float64{-100, 2, 5, 5}) {
		t.Fatalf("clone after Adds to both: %v", got)
	}
}

func TestClassCounts(t *testing.T) {
	var c ClassCounts
	c.Add(0, 128)
	c.Add(0, 128)
	c.Add(1, 640)
	if c.TotalPackets() != 3 || c.TotalBits() != 896 {
		t.Fatalf("totals = %d pkts %d bits", c.TotalPackets(), c.TotalBits())
	}
	if math.Abs(c.Share(0)-2.0/3.0) > 1e-12 {
		t.Fatalf("CPU share = %v", c.Share(0))
	}
	var empty ClassCounts
	if empty.Share(0) != 0 {
		t.Fatal("empty share should be 0")
	}
}

func TestResidency(t *testing.T) {
	var r Residency
	r.Add(64, 300)
	r.Add(8, 700)
	if r.Total() != 1000 {
		t.Fatalf("total = %d", r.Total())
	}
	if r.Fraction(64) != 0.3 || r.Fraction(8) != 0.7 {
		t.Fatalf("fractions = %v/%v", r.Fraction(64), r.Fraction(8))
	}
	if r.Fraction(32) != 0 {
		t.Fatal("unseen state should be 0")
	}
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != 8 || keys[1] != 64 {
		t.Fatalf("keys = %v", keys)
	}
	var empty Residency
	if empty.Fraction(64) != 0 {
		t.Fatal("empty residency fraction should be 0")
	}
}

func TestResidencyFractionsSumToOneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var r Residency
		states := []int{8, 16, 32, 48, 64}
		any := false
		for i, v := range raw {
			if v > 0 {
				r.Add(states[i%len(states)], int64(v))
				any = true
			}
		}
		if !any {
			return true
		}
		sum := 0.0
		for _, k := range r.Keys() {
			sum += r.Fraction(k)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResidencyKeysAscendingNonZero(t *testing.T) {
	var r Residency
	for _, k := range []int{64, 8, 48, 16, 32, 8} {
		r.Add(k, 10)
	}
	r.Add(0, 0) // touched but empty: not a key
	if got, want := r.Keys(), []int{8, 16, 32, 48, 64}; !slices.Equal(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if r.Fraction(8) != 20.0/60.0 || r.Fraction(24) != 0 {
		t.Fatalf("Fraction(8) = %v, Fraction(unseen 24) = %v", r.Fraction(8), r.Fraction(24))
	}
}

func TestResidencyOutOfRangeKeyPanics(t *testing.T) {
	for name, fn := range map[string]func(r *Residency){
		"Add above":      func(r *Residency) { r.Add(maxResidencyKey+1, 1) },
		"Add negative":   func(r *Residency) { r.Add(-1, 1) },
		"Fraction above": func(r *Residency) { r.Fraction(maxResidencyKey + 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			var r Residency
			fn(&r)
		})
	}
}

func TestResidencyDoesNotAllocate(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		var r Residency
		r.Add(64, 1)
	}); allocs != 0 {
		t.Fatalf("a zero Residency + Add allocates %v times, want 0", allocs)
	}
}

func TestNetworkThroughput(t *testing.T) {
	n := NewNetwork()
	n.MeasuredCycles = 1000
	for i := 0; i < 500; i++ {
		n.Delivered.Add(0, 128)
	}
	if got := n.ThroughputBitsPerCycle(); got != 64 {
		t.Fatalf("throughput = %v bits/cycle, want 64", got)
	}
	if got := n.ThroughputGbps(2e9); got != 128 {
		t.Fatalf("throughput = %v Gbps, want 128", got)
	}
	empty := NewNetwork()
	if empty.ThroughputBitsPerCycle() != 0 {
		t.Fatal("zero-cycle network should report 0 throughput")
	}
	if empty.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestPercentilesMatchPercentile(t *testing.T) {
	h := NewHistogram(0)
	for i := 100; i >= 1; i-- {
		h.Add(float64(i))
	}
	got := h.Percentiles(0, 50, 99, 100)
	// Compare against the single-quantile path on an identical histogram.
	ref := NewHistogram(0)
	for i := 100; i >= 1; i-- {
		ref.Add(float64(i))
	}
	want := []float64{ref.Percentile(0), ref.Percentile(50), ref.Percentile(99), ref.Percentile(100)}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPercentilesDoesNotMutateSampleOrder(t *testing.T) {
	h := NewHistogram(0)
	h.Add(3)
	h.Add(1)
	h.Add(2)
	_ = h.Percentiles(50, 99)
	if h.samples[0] != 3 || h.samples[1] != 1 || h.samples[2] != 2 {
		t.Fatalf("Percentiles reordered samples: %v", h.samples)
	}
}

func TestPercentilesEmpty(t *testing.T) {
	h := NewHistogram(0)
	got := h.Percentiles(50, 99)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty percentiles = %v, want zeros", got)
	}
}
