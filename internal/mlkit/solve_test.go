package mlkit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGaussSolveKnownSystem(t *testing.T) {
	// Non-symmetric system: [[2,1],[1,3]] x = [5, 10] -> x = [1, 3].
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := GaussSolve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestGaussSolveNeedsPivoting(t *testing.T) {
	// Zero pivot in position (0,0) without row exchange.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := GaussSolve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("x = %v", x)
	}
}

func TestGaussSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := GaussSolve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestGaussSolveValidation(t *testing.T) {
	rect := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := GaussSolve(rect, []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	sq := FromRows([][]float64{{1, 0}, {0, 1}})
	if _, err := GaussSolve(sq, []float64{1}); err == nil {
		t.Fatal("bad rhs length accepted")
	}
}

func TestGaussSolveDoesNotMutate(t *testing.T) {
	a := FromRows([][]float64{{3, 1}, {1, 2}})
	b := []float64{1, 2}
	if _, err := GaussSolve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 3 || b[0] != 1 {
		t.Fatal("inputs modified")
	}
}

func TestGaussAgreesWithCholeskyProperty(t *testing.T) {
	rng := sim.NewRNG(41)
	f := func(seed uint64) bool {
		n := 1 + int(seed%5)
		base := NewMatrix(n+2, n)
		for i := 0; i < n+2; i++ {
			for j := 0; j < n; j++ {
				base.Set(i, j, rng.Normal(0, 1))
			}
		}
		spd := base.GramXTX().AddDiagonal(0.5)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.Normal(0, 2)
		}
		xc, err1 := CholeskySolve(spd, rhs)
		xg, err2 := GaussSolve(spd, rhs)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range xc {
			if math.Abs(xc[i]-xg[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLSConvergesToLinearTarget(t *testing.T) {
	rls, err := NewRLS(2, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(43)
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Normal(0, 1), rng.Normal(0, 1)}
		y := 3*x[0] - 2*x[1] + 5
		rls.Update(x, y)
	}
	probe := []float64{1, 1}
	if got := rls.Predict(probe); math.Abs(got-6) > 0.01 {
		t.Fatalf("prediction %v, want 6", got)
	}
	w := rls.Weights()
	if math.Abs(w[0]-3) > 0.01 || math.Abs(w[1]+2) > 0.01 || math.Abs(w[2]-5) > 0.01 {
		t.Fatalf("weights %v", w)
	}
}

func TestRLSMatchesRidgeOnStationaryData(t *testing.T) {
	// With forgetting 1 and a weak prior, RLS after one pass approaches
	// the batch least-squares fit.
	rng := sim.NewRNG(47)
	rows := make([][]float64, 400)
	y := make([]float64, 400)
	for i := range rows {
		x := rng.Normal(0, 2)
		rows[i] = []float64{x}
		y[i] = 1.5*x + 4 + rng.Normal(0, 0.1)
	}
	ridge := &Ridge{Lambda: 1e-6}
	if err := ridge.Fit(FromRows(rows), y); err != nil {
		t.Fatal(err)
	}
	rls, _ := NewRLS(1, 1.0, 1000)
	for i := range rows {
		rls.Update(rows[i], y[i])
	}
	for _, probe := range [][]float64{{-2}, {0}, {3}} {
		if math.Abs(ridge.Predict(probe)-rls.Predict(probe)) > 0.05 {
			t.Fatalf("RLS %v vs ridge %v at %v", rls.Predict(probe), ridge.Predict(probe), probe)
		}
	}
}

func TestRLSTracksDrift(t *testing.T) {
	// With forgetting < 1 the estimator follows a changing target.
	rls, _ := NewRLS(1, 0.98, 100)
	rng := sim.NewRNG(53)
	slope := 2.0
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < 1500; i++ {
			x := []float64{rng.Normal(0, 1)}
			rls.Update(x, slope*x[0])
		}
		got := rls.Predict([]float64{1})
		if math.Abs(got-slope) > 0.1 {
			t.Fatalf("phase %d: predict %v, want %v", phase, got, slope)
		}
		slope = -1.0 // drift
	}
}

func TestRLSValidation(t *testing.T) {
	if _, err := NewRLS(0, 1, 1); err == nil {
		t.Fatal("zero dimension accepted")
	}
	if _, err := NewRLS(2, 0, 1); err == nil {
		t.Fatal("zero forgetting accepted")
	}
	if _, err := NewRLS(2, 1.5, 1); err == nil {
		t.Fatal("forgetting > 1 accepted")
	}
	if _, err := NewRLS(2, 1, 0); err == nil {
		t.Fatal("zero delta accepted")
	}
	rls, _ := NewRLS(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	rls.Predict([]float64{1})
}

func TestRLSUpdateReturnsError(t *testing.T) {
	rls, _ := NewRLS(1, 1, 100)
	e1 := rls.Update([]float64{1}, 10)
	if math.Abs(e1-10) > 1e-9 {
		t.Fatalf("first error %v, want 10 (zero-initialised weights)", e1)
	}
	// Repeated identical examples shrink the error.
	var last float64
	for i := 0; i < 50; i++ {
		last = rls.Update([]float64{1}, 10)
	}
	if math.Abs(last) > 0.5 {
		t.Fatalf("error did not shrink: %v", last)
	}
}
