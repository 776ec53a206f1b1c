// Package mlkit is the from-scratch machine-learning substrate behind the
// paper's proactive power scaling: dense matrices, a Cholesky solver, the
// closed-form ridge regression of Eq. 4-6, feature standardisation, and
// dataset plumbing for the train/validation/test protocol of §IV.A.
package mlkit

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mlkit: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be non-empty and
// uniform in length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mlkit: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mlkit: ragged row %d (%d != %d)", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mlkit: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mlkit: row %d out of %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// GramXTX computes the cols x cols Gram matrix XᵀX.
func (m *Matrix) GramXTX() *Matrix {
	g := NewMatrix(m.cols, m.cols)
	for k := 0; k < m.rows; k++ {
		row := m.data[k*m.cols : (k+1)*m.cols]
		for i := 0; i < m.cols; i++ {
			if row[i] == 0 {
				continue
			}
			gi := g.data[i*m.cols:]
			vi := row[i]
			for j := i; j < m.cols; j++ {
				gi[j] += float64(vi * row[j])
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < m.cols; i++ {
		for j := i + 1; j < m.cols; j++ {
			g.data[j*m.cols+i] = g.data[i*m.cols+j]
		}
	}
	return g
}

// MulVecT computes Xᵀy (length cols) for a label vector y of length rows.
func (m *Matrix) MulVecT(y []float64) []float64 {
	if len(y) != m.rows {
		panic(fmt.Sprintf("mlkit: MulVecT with %d labels for %d rows", len(y), m.rows))
	}
	out := make([]float64, m.cols)
	for k := 0; k < m.rows; k++ {
		row := m.data[k*m.cols : (k+1)*m.cols]
		yk := y[k]
		if yk == 0 {
			continue
		}
		for j, v := range row {
			out[j] += float64(v * yk)
		}
	}
	return out
}

// MulVec computes Xw (length rows) for a weight vector w of length cols.
func (m *Matrix) MulVec(w []float64) []float64 {
	if len(w) != m.cols {
		panic(fmt.Sprintf("mlkit: MulVec with %d weights for %d cols", len(w), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += float64(v * w[j])
		}
		out[i] = s
	}
	return out
}

// AddDiagonal adds v to every diagonal element in place (λI of Eq. 6) and
// returns the receiver.
func (m *Matrix) AddDiagonal(v float64) *Matrix {
	if m.rows != m.cols {
		panic("mlkit: AddDiagonal on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// CholeskySolve solves A x = b for symmetric positive-definite A,
// destroying neither input. It returns an error when A is not positive
// definite (within tolerance).
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mlkit: CholeskySolve on %dx%d matrix", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mlkit: CholeskySolve rhs length %d for %dx%d", len(b), n, n)
	}
	// Factor A = L Lᵀ.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.data[i*n+j]
			for k := 0; k < j; k++ {
				sum -= float64(l[i*n+k] * l[j*n+k])
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("mlkit: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward solve L z = b.
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l[i*n+k] * z[k])
		}
		z[i] = sum / l[i*n+i]
	}
	// Back solve Lᵀ x = z.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l[k*n+i] * x[k])
		}
		x[i] = sum / l[i*n+i]
	}
	return x, nil
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mlkit: Dot over mismatched lengths")
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm2 returns ||v||².
func Norm2(v []float64) float64 { return Dot(v, v) }
