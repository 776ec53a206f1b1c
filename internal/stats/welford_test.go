package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 || w.CI95() != 0 {
		t.Fatalf("zero-value accumulator should report all zeros, got n=%d mean=%v var=%v", w.N(), w.Mean(), w.Variance())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(42.5)
	if w.N() != 1 {
		t.Fatalf("n = %d, want 1", w.N())
	}
	if w.Mean() != 42.5 {
		t.Errorf("mean = %v, want 42.5", w.Mean())
	}
	// One sample has no dispersion estimate: everything downstream of
	// variance must be zero, not NaN.
	if w.Variance() != 0 || w.StdDev() != 0 || w.StdErr() != 0 || w.CI95() != 0 {
		t.Errorf("single sample dispersion: var=%v stddev=%v stderr=%v ci=%v, want all 0",
			w.Variance(), w.StdDev(), w.StdErr(), w.CI95())
	}
}

func TestWelfordConstantSeries(t *testing.T) {
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(3.14159)
	}
	if w.N() != 1000 {
		t.Fatalf("n = %d, want 1000", w.N())
	}
	if math.Abs(w.Mean()-3.14159) > 1e-12 {
		t.Errorf("mean = %v, want 3.14159", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("constant series variance = %v, want exactly 0", w.Variance())
	}
	if w.CI95() != 0 {
		t.Errorf("constant series CI95 = %v, want 0", w.CI95())
	}
}

func TestWelfordKnownSeries(t *testing.T) {
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, population variance 4, sample
	// variance 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got, want := w.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, want)
	}
	wantSE := math.Sqrt(32.0/7.0) / math.Sqrt(8)
	if got := w.StdErr(); math.Abs(got-wantSE) > 1e-12 {
		t.Errorf("stderr = %v, want %v", got, wantSE)
	}
	if got := w.CI95(); math.Abs(got-1.96*wantSE) > 1e-12 {
		t.Errorf("ci95 = %v, want %v", got, 1.96*wantSE)
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(w.Mean()-mean) < 1e-6*scale &&
			math.Abs(w.Variance()-naiveVar) < 1e-4*math.Max(1, naiveVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
