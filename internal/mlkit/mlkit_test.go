package mlkit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("set/get broken")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("shape wrong")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatal("row copy wrong")
	}
	row[0] = 99
	if m.At(1, 0) == 99 {
		t.Fatal("Row must copy")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must copy")
	}
}

func TestMatrixPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMatrix(0, 1) },
		func() { NewMatrix(1, -1) },
		func() { FromRows(nil) },
		func() { FromRows([][]float64{{1, 2}, {1}}) },
		func() { NewMatrix(2, 2).At(2, 0) },
		func() { NewMatrix(2, 2).Set(0, 2, 1) },
		func() { NewMatrix(2, 2).Row(5) },
		func() { NewMatrix(2, 3).AddDiagonal(1) },
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		func() { NewMatrix(2, 2).MulVecT([]float64{1}) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGramXTX(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := x.GramXTX()
	// XᵀX = [[35, 44], [44, 56]]
	want := [][]float64{{35, 44}, {44, 56}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if g.At(i, j) != want[i][j] {
				t.Fatalf("gram[%d][%d] = %v, want %v", i, j, g.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVecAndMulVecT(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {3, 4}})
	got := x.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
	gotT := x.MulVecT([]float64{1, 1})
	if gotT[0] != 4 || gotT[1] != 6 {
		t.Fatalf("MulVecT = %v", gotT)
	}
}

func TestCholeskySolveKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := CholeskySolve(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.75) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := CholeskySolve(a, []float64{1, 1}); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
	bad := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := CholeskySolve(bad, []float64{1, 1}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	sq := FromRows([][]float64{{4, 0}, {0, 4}})
	if _, err := CholeskySolve(sq, []float64{1}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}

func TestCholeskySolveRandomSPDProperty(t *testing.T) {
	rng := sim.NewRNG(5)
	f := func(seed uint64) bool {
		n := 1 + int(seed%6)
		// Build SPD as BᵀB + I.
		b := NewMatrix(n+2, n)
		for i := 0; i < n+2; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.Normal(0, 1))
			}
		}
		a := b.GramXTX().AddDiagonal(1)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.Normal(0, 3)
		}
		x, err := CholeskySolve(a, rhs)
		if err != nil {
			return false
		}
		// Verify A x == rhs.
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if math.Abs(s-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalerStandardises(t *testing.T) {
	x := FromRows([][]float64{{1, 10}, {3, 10}, {5, 10}})
	s := FitScaler(x)
	out := s.Transform(x)
	// Column 0: mean 3, population std sqrt(8/3).
	if math.Abs(s.Mean[0]-3) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean[0])
	}
	var colMean float64
	for i := 0; i < 3; i++ {
		colMean += out.At(i, 0)
	}
	if math.Abs(colMean) > 1e-12 {
		t.Fatalf("standardised mean = %v", colMean)
	}
	// Constant column: std forced to 1, values centred to 0.
	for i := 0; i < 3; i++ {
		if out.At(i, 1) != 0 {
			t.Fatalf("constant column should transform to 0, got %v", out.At(i, 1))
		}
	}
}

func TestRidgeRecoversLinearFunction(t *testing.T) {
	// y = 2 x0 - 3 x1 + 5 with no noise must be recovered nearly
	// exactly at tiny lambda.
	rng := sim.NewRNG(7)
	rows := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range rows {
		x0, x1 := rng.Normal(0, 2), rng.Normal(1, 3)
		rows[i] = []float64{x0, x1}
		y[i] = 2*x0 - 3*x1 + 5
	}
	m := &Ridge{Lambda: 1e-8}
	if err := m.Fit(FromRows(rows), y); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if math.Abs(m.Predict(rows[i])-y[i]) > 1e-6 {
			t.Fatalf("prediction off at %d: %v vs %v", i, m.Predict(rows[i]), y[i])
		}
	}
	preds := m.PredictAll(FromRows(rows))
	if Score(preds, y) < 0.999 {
		t.Fatalf("score = %v", Score(preds, y))
	}
}

func TestRidgeShrinksWithLambda(t *testing.T) {
	rng := sim.NewRNG(11)
	rows := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range rows {
		x := rng.Normal(0, 1)
		rows[i] = []float64{x}
		y[i] = 4*x + rng.Normal(0, 0.5)
	}
	x := FromRows(rows)
	small := &Ridge{Lambda: 0.01}
	big := &Ridge{Lambda: 1000}
	if err := small.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if big.WeightNorm2() >= small.WeightNorm2() {
		t.Fatalf("lambda=1000 norm %v not below lambda=0.01 norm %v",
			big.WeightNorm2(), small.WeightNorm2())
	}
}

func TestRidgeClosedFormMinimisesCost(t *testing.T) {
	// The Eq. 6 solution must beat random weight perturbations on the
	// Eq. 4 objective.
	rng := sim.NewRNG(13)
	rows := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range rows {
		a, b := rng.Normal(0, 1), rng.Normal(0, 1)
		rows[i] = []float64{a, b}
		y[i] = a - 2*b + rng.Normal(0, 0.3)
	}
	x := FromRows(rows)
	m := &Ridge{Lambda: 1.0}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	base := m.Cost(x, y)
	for trial := 0; trial < 20; trial++ {
		pert := &Ridge{Lambda: 1.0}
		*pert = *m
		w := m.Weights()
		for j := range w {
			w[j] += rng.Normal(0, 0.1)
		}
		pert.weights = w
		if pert.Cost(x, y) < base-1e-9 {
			t.Fatalf("perturbed cost %v beat closed form %v", pert.Cost(x, y), base)
		}
	}
}

func TestRidgeErrors(t *testing.T) {
	x := FromRows([][]float64{{1}, {2}})
	if err := (&Ridge{Lambda: -1}).Fit(x, []float64{1, 2}); err == nil {
		t.Fatal("expected error for negative lambda")
	}
	if err := (&Ridge{}).Fit(x, []float64{1}); err == nil {
		t.Fatal("expected error for label mismatch")
	}
	one := FromRows([][]float64{{1}})
	if err := (&Ridge{}).Fit(one, []float64{1}); err == nil {
		t.Fatal("expected error for single example")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Predict before Fit")
		}
	}()
	(&Ridge{}).Predict([]float64{1})
}

func TestRidgeHandlesConstantColumns(t *testing.T) {
	// A constant feature must not break the solver (rank deficiency is
	// handled by the jitter).
	x := FromRows([][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}})
	y := []float64{2, 4, 6, 8}
	m := &Ridge{Lambda: 0}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{5, 7})-10) > 1e-3 {
		t.Fatalf("prediction = %v, want 10", m.Predict([]float64{5, 7}))
	}
}

func TestQuantizeWeights(t *testing.T) {
	rng := sim.NewRNG(17)
	rows := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range rows {
		x := rng.Normal(0, 1)
		rows[i] = []float64{x}
		y[i] = 3*x + 1
	}
	m := &Ridge{Lambda: 0.1}
	if err := m.Fit(FromRows(rows), y); err != nil {
		t.Fatal(err)
	}
	before := m.Predict([]float64{0.5})
	maxErr := m.QuantizeWeights(8)
	if maxErr > 1.0/256 {
		t.Fatalf("quantisation error %v above grid step", maxErr)
	}
	after := m.Predict([]float64{0.5})
	if math.Abs(before-after) > 0.1 {
		t.Fatalf("quantisation moved prediction too far: %v -> %v", before, after)
	}
}

func TestDatasetAddDesign(t *testing.T) {
	d := NewDataset(2)
	d.Add([]float64{1, 2}, 10)
	d.Add([]float64{3, 4}, 20)
	if d.Len() != 2 || d.Features() != 2 {
		t.Fatal("dataset shape wrong")
	}
	x, y := d.Design()
	if x.At(1, 1) != 4 || y[1] != 20 {
		t.Fatal("design content wrong")
	}
	labels := d.Labels()
	labels[0] = -1
	if d.labels[0] == -1 {
		t.Fatal("Labels must copy")
	}
}

func TestDatasetMergeAndSelect(t *testing.T) {
	a := NewDataset(3)
	a.Add([]float64{1, 2, 3}, 1)
	b := NewDataset(3)
	b.Add([]float64{4, 5, 6}, 2)
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatal("merge failed")
	}
	sub := a.Select([]int{2, 0})
	if sub.Features() != 2 || sub.Len() != 2 {
		t.Fatal("select shape wrong")
	}
	x, y := sub.Design()
	if x.At(0, 0) != 3 || x.At(0, 1) != 1 || y[0] != 1 {
		t.Fatal("select content wrong")
	}
}

func TestDatasetPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDataset(0) },
		func() { NewDataset(2).Add([]float64{1}, 0) },
		func() { NewDataset(2).Merge(NewDataset(3)) },
		func() { NewDataset(2).Design() },
		func() { d := NewDataset(2); d.Add([]float64{1, 2}, 0); d.Select(nil) },
		func() { d := NewDataset(2); d.Add([]float64{1, 2}, 0); d.Select([]int{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTuneLambdaPicksGeneralising(t *testing.T) {
	// Noisy 1-feature problem with few training points: huge lambda
	// underfits badly, so tuning must pick something moderate and the
	// returned model must score positively on validation.
	rng := sim.NewRNG(23)
	makeSet := func(n int) *Dataset {
		d := NewDataset(1)
		for i := 0; i < n; i++ {
			x := rng.Normal(0, 1)
			d.Add([]float64{x}, 2*x+rng.Normal(0, 0.2))
		}
		return d
	}
	train, val := makeSet(30), makeSet(30)
	model, lambda, score, err := TuneLambda(train, val, DefaultLambdas())
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || score < 0.5 {
		t.Fatalf("tuned score = %v (lambda %v)", score, lambda)
	}
	if lambda >= 1000 {
		t.Fatalf("tuning picked degenerate lambda %v", lambda)
	}
}

func TestTuneLambdaErrors(t *testing.T) {
	d := NewDataset(1)
	d.Add([]float64{1}, 1)
	d.Add([]float64{2}, 2)
	if _, _, _, err := TuneLambda(d, d, nil); err == nil {
		t.Fatal("expected error for empty lambda list")
	}
	empty := NewDataset(1)
	if _, _, _, err := TuneLambda(empty, d, DefaultLambdas()); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

// expectPanic fails t unless fn panics.
func expectPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestScorePanics(t *testing.T) {
	expectPanic(t, func() { Score(nil, nil) })
}

func TestScorePanicsOnMismatch(t *testing.T) {
	expectPanic(t, func() { Score([]float64{1}, []float64{1, 2}) })
}

// The paper's §IV.C fit score is 1 - RMSE/stddev(target). The tests below
// pin it at its landmarks: 1 for a perfect fit, 0 for predicting the mean,
// negative past that, and -inf for any error on a constant target.

func TestScorePerfectFit(t *testing.T) {
	if got := Score([]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("score = %v, want 1", got)
	}
}

func TestScoreMeanPredictor(t *testing.T) {
	if got := Score([]float64{3, 3, 3, 3, 3}, []float64{1, 2, 3, 4, 5}); math.Abs(got) > 1e-12 {
		t.Errorf("score = %v, want 0", got)
	}
}

func TestScoreWorseThanMean(t *testing.T) {
	if got := Score([]float64{30, -10, 50}, []float64{1, 2, 3}); got >= 0 {
		t.Errorf("a predictor worse than the mean should score negative, got %v", got)
	}
}

func TestScoreConstantTarget(t *testing.T) {
	if got := Score([]float64{5, 5, 5}, []float64{5, 5, 5}); got != 1 {
		t.Errorf("perfect fit of a constant target: score = %v, want 1", got)
	}
	if got := Score([]float64{6, 5, 5}, []float64{5, 5, 5}); !math.IsInf(got, -1) {
		t.Errorf("imperfect fit of a constant target: score = %v, want -Inf", got)
	}
}

// TestScoreMatchesRMSEOverStdDevProperty checks the score against its
// definition computed the long way: RMSE and the target's population
// standard deviation taken separately.
func TestScoreMatchesRMSEOverStdDevProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		pred := make([]float64, n)
		target := make([]float64, n)
		spread := false
		for i := 0; i < n; i++ {
			pred[i] = float64(raw[i])
			target[i] = float64(raw[n+i])
			if target[i] != target[0] {
				spread = true
			}
		}
		if !spread {
			return true
		}
		var mean, mse, variance float64
		for i := range target {
			mean += target[i]
			mse += (pred[i] - target[i]) * (pred[i] - target[i])
		}
		mean /= float64(n)
		for _, v := range target {
			variance += (v - mean) * (v - mean)
		}
		want := 1 - math.Sqrt(mse/float64(n))/math.Sqrt(variance/float64(n))
		return math.Abs(Score(pred, target)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
