package sim

import (
	"math"
	"testing"
)

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Register(nil)
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestScheduleAtFuture(t *testing.T) {
	e := NewEngine()
	e.Run(3)
	fired := int64(-1)
	e.ScheduleAt(7, func(c int64) { fired = c })
	e.Run(10)
	if fired != 7 {
		t.Fatalf("fired at %d, want 7", fired)
	}
}

func TestScheduleAtNowRunsNextStep(t *testing.T) {
	e := NewEngine()
	e.Run(2)
	fired := int64(-1)
	e.ScheduleAt(2, func(c int64) { fired = c })
	e.Step()
	if fired != 2 {
		t.Fatalf("fired at %d, want 2", fired)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := NewRNG(1)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestPoissonLargeMeanNonNegative(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson sample")
		}
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse chi-square over 16 buckets of Float64: statistic should be
	// far below the 0.001-significance cutoff (~39 for 15 dof).
	r := NewRNG(99)
	const buckets, n = 16, 160000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[int(r.Float64()*buckets)]++
	}
	expected := float64(n) / buckets
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	if chi > 39 {
		t.Fatalf("chi-square %v too high; RNG not uniform", chi)
	}
}

func TestEngineEventAtCurrentCycleDuringComponentPhase(t *testing.T) {
	// An event scheduled with delta 0 from inside a component fires at
	// the NEXT cycle's event phase (the current cycle's phase already
	// ran).
	e := NewEngine()
	var fired int64 = -1
	var scheduled bool
	e.Register(ComponentFunc(func(c int64) {
		if !scheduled {
			scheduled = true
			e.Schedule(0, func(fc int64) { fired = fc })
		}
	}))
	e.Run(3)
	if fired != 1 {
		t.Fatalf("fired at %d, want 1", fired)
	}
}

func TestNormalTailsFinite(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100000; i++ {
		v := r.Normal(0, 1)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("degenerate normal sample")
		}
	}
}
