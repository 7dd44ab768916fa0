// Package tensor provides dense float64 matrix and vector kernels used by
// the autodiff tape (internal/ag) and the neural layers (internal/nn).
//
// Matrices are row-major. Dimension mismatches are programmer errors and
// panic, mirroring the behaviour of slice indexing in the standard library.
// Hot-path kernels have allocation-free *Into variants.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"ehna/internal/vecmath"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Randn returns a matrix with entries drawn from N(0, std²).
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// Uniform returns a matrix with entries drawn uniformly from [lo, hi).
func Uniform(rows, cols int, lo, hi float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: SetRow len %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Zero sets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)%v", m.Rows, m.Cols, m.Data)
}

func sameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMulATransposed returns aᵀ·b where a is given untransposed.
func MatMulATransposed(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAT rows %d != %d", a.Rows, b.Rows))
	}
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			vecmath.Axpy(out.Row(i), av, brow)
		}
	}
	return out
}

// AddMatMul computes out += a·b through the register-blocked product of
// internal/vecmath, without allocating. out must not alias a or b.
func AddMatMul(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMul %dx%d += %dx%d · %dx%d", out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	vecmath.GemmNN(out.Data, out.Cols, a.Data, a.Cols, b.Data, b.Cols, out.Rows, out.Cols, a.Cols)
}

// AddMatMulAT computes out += aᵀ·b where a is given untransposed.
func AddMatMulAT(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulAT %dx%d += (%dx%d)ᵀ · %dx%d", out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	vecmath.GemmTN(out.Data, out.Cols, a.Data, a.Cols, b.Data, b.Cols, out.Rows, out.Cols, a.Rows)
}

// AddMatMulBT computes out += a·bᵀ where b is given untransposed.
func AddMatMulBT(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: AddMatMulBT %dx%d += %dx%d · (%dx%d)ᵀ", out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	vecmath.GemmNT(out.Data, out.Cols, a.Data, a.Cols, b.Data, b.Cols, out.Rows, out.Cols, a.Cols)
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	sameShape(a, b)
	vecmath.Add(a.Data, b.Data)
}

// AxpyInPlace computes a += s·b.
func AxpyInPlace(a *Matrix, s float64, b *Matrix) {
	sameShape(a, b)
	vecmath.Axpy(a.Data, s, b.Data)
}

// ScaleInPlace computes m *= s.
func ScaleInPlace(m *Matrix, s float64) {
	vecmath.ScaleInPlace(m.Data, s)
}

// SigmoidScalar is the numerically stable logistic function.
func SigmoidScalar(x float64) float64 { return vecmath.Sigmoid(x) }

// SoftmaxInto writes softmax(src) into dst. dst may alias src.
func SoftmaxInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: SoftmaxInto length mismatch")
	}
	if len(src) == 0 {
		return
	}
	max := src[0]
	for _, v := range src[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// SumRows returns a 1×cols matrix with the column sums of m.
func SumRows(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// MeanRows returns a 1×cols matrix with the column means of m.
func MeanRows(m *Matrix) *Matrix {
	out := SumRows(m)
	if m.Rows > 0 {
		ScaleInPlace(out, 1/float64(m.Rows))
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// DotVec returns the inner product of two equal-length vectors.
// It is a thin veneer over vecmath.Dot, kept for callers that already
// import tensor.
func DotVec(a, b []float64) float64 { return vecmath.Dot(a, b) }

// L2NormVec returns the Euclidean norm of v.
func L2NormVec(v []float64) float64 { return vecmath.Norm(v) }

// SqDistVec returns the squared Euclidean distance between a and b.
func SqDistVec(a, b []float64) float64 { return vecmath.SqDist(a, b) }

// ConcatCols returns [a ‖ b] with the same number of rows.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols rows %d != %d", a.Rows, b.Rows))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
