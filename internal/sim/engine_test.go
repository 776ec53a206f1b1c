package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlapped %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(5) bucket %d badly skewed: %d/50000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(5)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %.4f", p)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(17)
	for _, mean := range []float64{0.1, 1.5, 8, 40} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.02 {
			t.Fatalf("Poisson(%v) mean = %.4f", mean, got)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(21)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Fatalf("Normal mean = %.4f", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("Normal variance = %.4f", variance)
	}
}

func TestEngineTicksInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Register(ComponentFunc(func(int64) { order = append(order, 1) }))
	e.Register(ComponentFunc(func(int64) { order = append(order, 2) }))
	e.Step()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("bad tick order: %v", order)
	}
}

func TestEngineCycleCount(t *testing.T) {
	e := NewEngine()
	var seen []int64
	e.Register(ComponentFunc(func(c int64) { seen = append(seen, c) }))
	e.Run(5)
	if e.Cycle() != 5 {
		t.Fatalf("cycle = %d, want 5", e.Cycle())
	}
	for i, c := range seen {
		if c != int64(i) {
			t.Fatalf("tick %d saw cycle %d", i, c)
		}
	}
}

func TestScheduleFiresAtCorrectCycle(t *testing.T) {
	e := NewEngine()
	fired := int64(-1)
	e.Schedule(3, func(c int64) { fired = c })
	e.Run(5)
	if fired != 3 {
		t.Fatalf("event fired at %d, want 3", fired)
	}
}

func TestScheduleOrderWithinCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(1, func(int64) { order = append(order, 1) })
	e.Schedule(1, func(int64) { order = append(order, 2) })
	e.Schedule(0, func(int64) { order = append(order, 0) })
	e.Run(2)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("bad event order: %v", order)
	}
}

func TestEventsRunBeforeComponents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register(ComponentFunc(func(int64) { order = append(order, "comp") }))
	e.Schedule(0, func(int64) { order = append(order, "event") })
	e.Step()
	if len(order) != 2 || order[0] != "event" || order[1] != "comp" {
		t.Fatalf("bad phase order: %v", order)
	}
}

func TestScheduleFromEventCascades(t *testing.T) {
	e := NewEngine()
	var hits []int64
	e.Schedule(1, func(c int64) {
		hits = append(hits, c)
		e.Schedule(2, func(c2 int64) { hits = append(hits, c2) })
	})
	e.Run(5)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("cascade = %v, want [1 3]", hits)
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, func(int64) {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ScheduleAt(2, func(int64) {})
}

func TestPendingEvents(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func(int64) {})
	e.Schedule(20, func(int64) {})
	if e.PendingEvents() != 2 {
		t.Fatalf("pending = %d", e.PendingEvents())
	}
	e.Run(15)
	if e.PendingEvents() != 1 {
		t.Fatalf("pending after run = %d", e.PendingEvents())
	}
}

func TestCyclePeriod(t *testing.T) {
	e := NewEngine()
	if p := e.CyclePeriod(); math.Abs(p-0.5e-9) > 1e-15 {
		t.Fatalf("period = %v, want 0.5ns", p)
	}
}
