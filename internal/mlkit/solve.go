package mlkit

import (
	"errors"
	"fmt"
	"math"
)

// GaussSolve solves the square linear system A x = b by Gaussian
// elimination with partial pivoting. Unlike CholeskySolve it accepts any
// non-singular matrix (not just symmetric positive-definite ones); the
// ridge pipeline uses Cholesky for speed, and this solver cross-checks it
// and serves general substrate needs. Inputs are not modified.
func GaussSolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mlkit: GaussSolve on %dx%d matrix", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mlkit: GaussSolve rhs length %d for %dx%d", len(b), n, n)
	}
	// Augmented working copy.
	m := make([]float64, n*(n+1))
	for i := 0; i < n; i++ {
		copy(m[i*(n+1):], a.data[i*n:(i+1)*n])
		m[i*(n+1)+n] = b[i]
	}
	w := n + 1
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in the column.
		pivot := col
		best := math.Abs(m[col*w+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*w+col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, errors.New("mlkit: singular matrix")
		}
		if pivot != col {
			for j := col; j <= n; j++ {
				m[col*w+j], m[pivot*w+j] = m[pivot*w+j], m[col*w+j]
			}
		}
		// Eliminate below.
		inv := 1 / m[col*w+col]
		for r := col + 1; r < n; r++ {
			f := m[r*w+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				m[r*w+j] -= f * m[col*w+j]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i*w+n]
		for j := i + 1; j < n; j++ {
			sum -= m[i*w+j] * x[j]
		}
		x[i] = sum / m[i*w+i]
	}
	return x, nil
}

// RLS is a recursive least squares estimator: the online counterpart of
// the closed-form ridge fit, updating weights one example at a time in
// O(d^2). It supports the repository's online-learning extension, where
// the power-scaling model keeps adapting during execution instead of
// being frozen after offline training (the paper's future-work direction:
// "improving the prediction accuracy").
type RLS struct {
	// Forgetting is the exponential forgetting factor in (0, 1]; 1 means
	// infinite memory, smaller values track drifting workloads.
	Forgetting float64

	d int
	w []float64
	p []float64 // inverse covariance, d x d row-major
}

// NewRLS returns an estimator for d features (plus an implicit bias term
// appended internally). delta initialises the inverse covariance to
// delta*I; larger values mean weaker priors.
func NewRLS(d int, forgetting, delta float64) (*RLS, error) {
	if d <= 0 {
		return nil, errors.New("mlkit: RLS with non-positive dimension")
	}
	if forgetting <= 0 || forgetting > 1 {
		return nil, fmt.Errorf("mlkit: forgetting factor %v outside (0,1]", forgetting)
	}
	if delta <= 0 {
		return nil, errors.New("mlkit: RLS with non-positive delta")
	}
	dim := d + 1 // bias
	r := &RLS{Forgetting: forgetting, d: dim,
		w: make([]float64, dim), p: make([]float64, dim*dim)}
	for i := 0; i < dim; i++ {
		r.p[i*dim+i] = delta
	}
	return r, nil
}

// augment appends the bias input.
func (r *RLS) augment(x []float64) []float64 {
	if len(x) != r.d-1 {
		panic(fmt.Sprintf("mlkit: RLS example with %d features, want %d", len(x), r.d-1))
	}
	ax := make([]float64, r.d)
	copy(ax, x)
	ax[r.d-1] = 1
	return ax
}

// Predict returns the current estimate wᵀ[x;1].
func (r *RLS) Predict(x []float64) float64 {
	return Dot(r.augment(x), r.w)
}

// Update folds one (x, y) example into the estimate and returns the
// a-priori prediction error.
func (r *RLS) Update(x []float64, y float64) float64 {
	ax := r.augment(x)
	d := r.d
	// k = P x / (λ + xᵀ P x)
	px := make([]float64, d)
	for i := 0; i < d; i++ {
		row := r.p[i*d : (i+1)*d]
		var s float64
		for j, v := range ax {
			s += float64(row[j] * v)
		}
		px[i] = s
	}
	denom := r.Forgetting + Dot(ax, px)
	err := y - Dot(ax, r.w)
	for i := 0; i < d; i++ {
		r.w[i] += float64(px[i] / denom * err)
	}
	// P = (P - (Px)(Px)ᵀ/denom) / λ. The outer product is computed as
	// px[i]*px[j]/denom — multiply before divide — so the update is
	// exactly symmetric in floating point; an asymmetric form compounds
	// exponentially under forgetting (1/λ per step) and destroys P.
	inv := 1 / r.Forgetting
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			r.p[i*d+j] = (r.p[i*d+j] - px[i]*px[j]/denom) * inv
		}
	}
	return err
}

// Weights returns a copy of the current weights (bias last).
func (r *RLS) Weights() []float64 {
	out := make([]float64, len(r.w))
	copy(out, r.w)
	return out
}
