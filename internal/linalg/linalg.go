// Package linalg implements small dense linear algebra: covariance
// matrices, a Jacobi eigensolver for symmetric matrices (PCA), and least
// squares via normal equations (principal-component regression).
// Matrices here are tiny (3-10 dimensions), so clarity wins over
// blocking or SIMD tricks.
//
// No program code imports it. It is the matrix layer of the generic
// regression in pca's tests, the oracle the monitor's in-place refit
// (pca.Window.Refit) is held to bit for bit.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix with the given shape.
// It panics if either dimension is non-positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
// It panics on empty or ragged input.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m * o. It panics if the inner dimensions disagree.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				out.Data[i*out.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m * v for a column vector v. It panics if the vector
// length differs from the column count.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// ColumnMeans returns the mean of each column.
func (m *Matrix) ColumnMeans() []float64 {
	means := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			means[j] += m.At(i, j)
		}
	}
	for j := range means {
		means[j] /= float64(m.Rows)
	}
	return means
}

// CenterColumns subtracts each column's mean in place and returns the
// means that were removed.
func (m *Matrix) CenterColumns() []float64 {
	means := m.ColumnMeans()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, m.At(i, j)-means[j])
		}
	}
	return means
}

// Covariance returns the sample covariance matrix of the rows of m
// (columns are variables). It panics with fewer than two rows.
func Covariance(m *Matrix) *Matrix {
	if m.Rows < 2 {
		panic("linalg: Covariance needs at least 2 samples")
	}
	c := m.Clone()
	c.CenterColumns()
	cov := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Cols; i++ {
		for j := i; j < m.Cols; j++ {
			s := 0.0
			for r := 0; r < m.Rows; r++ {
				s += c.At(r, i) * c.At(r, j)
			}
			s /= float64(m.Rows - 1)
			cov.Set(i, j, s)
			cov.Set(j, i, s)
		}
	}
	return cov
}

// IsSymmetric reports whether m is symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}
