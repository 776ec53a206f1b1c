package mlkit

import (
	"errors"
	"fmt"
	"math"
)

// Scaler standardises features to zero mean and unit variance.
// Zero-variance features are passed through centred, so constant columns
// (e.g. the L3-router flag within a single-router dataset) stay harmless.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler computes column statistics from the design matrix.
func FitScaler(x *Matrix) *Scaler {
	s := &Scaler{Mean: make([]float64, x.Cols()), Std: make([]float64, x.Cols())}
	n := float64(x.Rows())
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			s.Mean[j] += x.At(i, j)
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			d := x.At(i, j) - s.Mean[j]
			s.Std[j] += float64(d * d)
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns a standardised copy of the design matrix.
func (s *Scaler) Transform(x *Matrix) *Matrix {
	if x.Cols() != len(s.Mean) {
		panic(fmt.Sprintf("mlkit: scaler fitted on %d features, got %d", len(s.Mean), x.Cols()))
	}
	out := NewMatrix(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			out.Set(i, j, (x.At(i, j)-s.Mean[j])/s.Std[j])
		}
	}
	return out
}

// TransformRow standardises one feature vector in place-free fashion.
func (s *Scaler) TransformRow(row []float64) []float64 {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("mlkit: scaler fitted on %d features, got %d", len(s.Mean), len(row)))
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// Ridge is the paper's regression model: linear weights fitted by
// minimising Eq. 4, E(w) = 1/2 Σ(wᵀφ(x)-t)² + λ/2 ||w||², whose
// closed-form solution is Eq. 6, w = (λI + ΦᵀΦ)⁻¹Φᵀt. Features are
// standardised internally and a bias term is appended (the bias is not
// regularised, matching the usual φ₀=1 convention with centred targets).
type Ridge struct {
	// Lambda is the regularisation coefficient tuned on validation data.
	Lambda float64

	scaler  *Scaler
	weights []float64 // per standardised feature
	bias    float64
}

var errNegativeLambda = errors.New("mlkit: negative lambda")

// Fit solves the ridge system for the design matrix x (one example per
// row) and labels y.
func (r *Ridge) Fit(x *Matrix, y []float64) error {
	if r.Lambda < 0 {
		return errNegativeLambda
	}
	d, err := newRidgeDesign(x, y)
	if err != nil {
		return err
	}
	return r.fitDesign(d)
}

// ridgeDesign is the part of a ridge fit that depends only on the
// training data, not on λ: the scaler, the Gram matrix ΦᵀΦ and the
// right-hand side Φᵀt of the standardised design, and the label mean.
// TuneLambda prepares it once for all its candidates.
type ridgeDesign struct {
	scaler *Scaler
	gram   *Matrix // before λI; fitDesign adds it to a copy
	rhs    []float64
	yMean  float64
}

func newRidgeDesign(x *Matrix, y []float64) (*ridgeDesign, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("mlkit: %d examples but %d labels", x.Rows(), len(y))
	}
	if x.Rows() < 2 {
		return nil, errors.New("mlkit: need at least 2 examples")
	}
	d := &ridgeDesign{scaler: FitScaler(x)}
	xs := d.scaler.Transform(x)

	// Centre the targets so the unregularised bias is just their mean.
	for _, t := range y {
		d.yMean += t
	}
	d.yMean /= float64(len(y))
	yc := make([]float64, len(y))
	for i, t := range y {
		yc[i] = t - d.yMean
	}
	d.gram = xs.GramXTX()
	d.rhs = xs.MulVecT(yc)
	return d, nil
}

// fitDesign solves the ridge system at r.Lambda for a prepared design.
func (r *Ridge) fitDesign(d *ridgeDesign) error {
	gram := d.gram.Clone()
	// Guarantee positive definiteness even at lambda 0 on rank-deficient
	// designs with a tiny jitter.
	jitter := r.Lambda
	if jitter < 1e-10 {
		jitter = 1e-10
	}
	gram.AddDiagonal(jitter)
	w, err := CholeskySolve(gram, d.rhs)
	if err != nil {
		return fmt.Errorf("mlkit: ridge solve failed: %w", err)
	}
	r.scaler = d.scaler
	r.weights = w
	r.bias = d.yMean
	return nil
}

// Fitted reports whether Fit has succeeded.
func (r *Ridge) Fitted() bool { return r.weights != nil }

// Predict returns wᵀφ(x) for one raw (unstandardised) feature vector.
func (r *Ridge) Predict(features []float64) float64 {
	if !r.Fitted() {
		panic("mlkit: Predict before Fit")
	}
	return Dot(r.scaler.TransformRow(features), r.weights) + r.bias
}

// PredictInto is Predict with caller-provided scratch for the
// standardised features (len >= the feature count), so steady-state
// policy evaluation allocates nothing. The arithmetic is exactly
// Predict's — per-element standardisation then the same dot product —
// so the two paths return bit-identical values.
func (r *Ridge) PredictInto(features, scratch []float64) float64 {
	if !r.Fitted() {
		panic("mlkit: PredictInto before Fit")
	}
	if len(features) != len(r.scaler.Mean) {
		panic(fmt.Sprintf("mlkit: scaler fitted on %d features, got %d", len(r.scaler.Mean), len(features)))
	}
	if len(scratch) < len(features) {
		panic(fmt.Sprintf("mlkit: scratch length %d < %d features", len(scratch), len(features)))
	}
	s := scratch[:len(features)]
	for j, v := range features {
		s[j] = (v - r.scaler.Mean[j]) / r.scaler.Std[j]
	}
	return Dot(s, r.weights) + r.bias
}

// PredictAll evaluates every row of a raw design matrix.
func (r *Ridge) PredictAll(x *Matrix) []float64 {
	if !r.Fitted() {
		panic("mlkit: PredictAll before Fit")
	}
	return addScalar(r.scaler.Transform(x).MulVec(r.weights), r.bias)
}

func addScalar(v []float64, s float64) []float64 {
	for i := range v {
		v[i] += s
	}
	return v
}

// Weights returns a copy of the fitted standardised-feature weights.
func (r *Ridge) Weights() []float64 {
	out := make([]float64, len(r.weights))
	copy(out, r.weights)
	return out
}

// Bias returns the fitted intercept.
func (r *Ridge) Bias() float64 { return r.bias }

// WeightNorm2 returns ||w||², the Eq. 4 penalty term.
func (r *Ridge) WeightNorm2() float64 { return Norm2(r.weights) }

// Cost evaluates Eq. 4 on a dataset: 1/2 Σ(pred-t)² + λ/2 ||w||².
func (r *Ridge) Cost(x *Matrix, y []float64) float64 {
	pred := r.PredictAll(x)
	var sse float64
	for i := range y {
		d := pred[i] - y[i]
		sse += d * d
	}
	return 0.5*sse + 0.5*r.Lambda*r.WeightNorm2()
}

// QuantizeWeights rounds weights and bias to a fixed-point grid with the
// given fractional bits, modelling the paper's 16-bit hardware arithmetic
// (§IV.B). It returns the maximum absolute rounding error applied.
func (r *Ridge) QuantizeWeights(fracBits uint) float64 {
	if !r.Fitted() {
		panic("mlkit: QuantizeWeights before Fit")
	}
	scale := float64(uint64(1) << fracBits)
	maxErr := 0.0
	quant := func(v float64) float64 {
		q := math.Round(v*scale) / scale
		if e := math.Abs(q - v); e > maxErr {
			maxErr = e
		}
		return q
	}
	for i, w := range r.weights {
		r.weights[i] = quant(w)
	}
	r.bias = quant(r.bias)
	return maxErr
}
