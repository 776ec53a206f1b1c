package mlkit

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// refFit is Ridge.Fit done from scratch for one λ: scaler, standardised
// design, centred labels, Gram matrix, jitter, right-hand side and solve.
func refFit(lambda float64, x *Matrix, y []float64) (*Ridge, error) {
	if lambda < 0 {
		return nil, errors.New("mlkit: negative lambda")
	}
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("mlkit: %d examples but %d labels", x.Rows(), len(y))
	}
	if x.Rows() < 2 {
		return nil, errors.New("mlkit: need at least 2 examples")
	}
	r := &Ridge{Lambda: lambda, scaler: FitScaler(x)}
	xs := r.scaler.Transform(x)
	var yMean float64
	for _, t := range y {
		yMean += t
	}
	yMean /= float64(len(y))
	yc := make([]float64, len(y))
	for i, t := range y {
		yc[i] = t - yMean
	}
	gram := xs.GramXTX()
	jitter := lambda
	if jitter < 1e-10 {
		jitter = 1e-10
	}
	gram.AddDiagonal(jitter)
	w, err := CholeskySolve(gram, xs.MulVecT(yc))
	if err != nil {
		return nil, fmt.Errorf("mlkit: ridge solve failed: %w", err)
	}
	r.weights, r.bias = w, yMean
	return r, nil
}

// refTuneLambda is TuneLambda as a plain per-λ loop: every candidate
// fitted from scratch and scored on the validation set standardised
// afresh.
func refTuneLambda(train, val *Dataset, lambdas []float64) (*Ridge, float64, float64, error) {
	xt, yt := train.Design()
	xv, yv := val.Design()
	var best *Ridge
	bestLambda, bestScore := 0.0, math.Inf(-1)
	for _, l := range lambdas {
		m, err := refFit(l, xt, yt)
		if err != nil {
			return nil, 0, 0, err
		}
		pred := addScalar(m.scaler.Transform(xv).MulVec(m.weights), m.bias)
		if score := fitScore(pred, yv); score > bestScore {
			best, bestLambda, bestScore = m, l, score
		}
	}
	return best, bestLambda, bestScore, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTuneLambdaMatchesPerLambdaFits holds TuneLambda, which prepares
// the design once, to the per-λ loop bit for bit: the chosen λ, the
// score, and the model's scaler, weights and bias. The designs include a
// constant column (its standard deviation is replaced by 1), a
// rank-deficient one (a column that is an exact multiple of another, so
// the Gram matrix is singular without the jitter), and candidates below
// the 1e-10 jitter floor.
func TestTuneLambdaMatchesPerLambdaFits(t *testing.T) {
	rng := sim.NewRNG(41)
	makeSet := func(n int, row func(x float64) []float64) *Dataset {
		d := NewDataset(len(row(0)))
		for i := 0; i < n; i++ {
			x := rng.Normal(0, 1)
			d.Add(row(x), 3*x-1+rng.Normal(0, 0.3))
		}
		return d
	}
	designs := []struct {
		name string
		row  func(x float64) []float64
	}{
		{"plain", func(x float64) []float64 { return []float64{x, rng.Normal(0, 1), x * x} }},
		{"constant column", func(x float64) []float64 { return []float64{x, 7, rng.Float64()} }},
		{"rank deficient", func(x float64) []float64 { return []float64{x, 2 * x, rng.Float64()} }},
	}
	lambdaSets := [][]float64{
		DefaultLambdas(),
		{0, 1e-12, 1e-10, 1e-3, 0.5},
		{10, 1, 1e-11},
	}
	for _, d := range designs {
		train, val := makeSet(60, d.row), makeSet(40, d.row)
		for _, lambdas := range lambdaSets {
			t.Run(fmt.Sprintf("%s/%v", d.name, lambdas), func(t *testing.T) {
				got, gotL, gotS, gotErr := TuneLambda(train, val, lambdas)
				want, wantL, wantS, wantErr := refTuneLambda(train, val, lambdas)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("error %v, per-λ loop %v", gotErr, wantErr)
				}
				if gotErr != nil {
					return
				}
				if math.Float64bits(gotL) != math.Float64bits(wantL) || math.Float64bits(gotS) != math.Float64bits(wantS) {
					t.Fatalf("λ %v score %v, per-λ loop λ %v score %v", gotL, gotS, wantL, wantS)
				}
				if !sameBits(got.weights, want.weights) || math.Float64bits(got.bias) != math.Float64bits(want.bias) {
					t.Fatalf("weights %v bias %v, per-λ loop %v bias %v", got.weights, got.bias, want.weights, want.bias)
				}
				if !sameBits(got.scaler.Mean, want.scaler.Mean) || !sameBits(got.scaler.Std, want.scaler.Std) {
					t.Fatalf("scaler %+v, per-λ loop %+v", *got.scaler, *want.scaler)
				}
				if got.Lambda != gotL {
					t.Fatalf("model λ %v, returned λ %v", got.Lambda, gotL)
				}
			})
		}
	}
}

// TestTuneLambdaNegativeCandidate keeps the per-λ loop's error order: a
// negative candidate fails when the loop reaches it.
func TestTuneLambdaNegativeCandidate(t *testing.T) {
	d := NewDataset(1)
	for i := 0; i < 4; i++ {
		d.Add([]float64{float64(i)}, float64(2*i))
	}
	_, _, _, got := TuneLambda(d, d, []float64{1, -1})
	_, _, _, want := refTuneLambda(d, d, []float64{1, -1})
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("error %v, per-λ loop %v", got, want)
	}
}
