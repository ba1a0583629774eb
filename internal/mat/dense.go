// Package mat provides the dense linear-algebra kernels used throughout the
// OPM simulator: real and complex dense matrices, LU factorization with
// partial pivoting, triangular solves, and fractional powers of triangular
// matrices via the Parlett recurrence.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: the simulator only ever needs dense kernels for
// moderate sizes (operational matrices of dimension m, per-frequency solves
// of dimension n), while large circuit matrices live in package sparse.
package mat

//lint:hot

import (
	"fmt"
	"math"
	"strings"

	"opmsim/internal/vecops"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zero-initialized r-by-c matrix.
// It panics if r or c is not positive.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds an r-by-c matrix from row-major data. The slice is
// copied, so the caller may reuse it.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing row-major slice (a view, not a copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	return NewDenseFrom(m.rows, m.cols, m.data)
}

// Zero resets every element to 0, keeping the allocation.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// AddTo returns a + b as a new matrix. Dimensions must match.
func AddTo(a, b *Dense) *Dense {
	checkSameDims(a, b)
	out := NewDense(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b as a new matrix. Dimensions must match.
func Sub(a, b *Dense) *Dense {
	checkSameDims(a, b)
	out := NewDense(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

func checkSameDims(a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product a*b as a new matrix.
func Mul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	return MulInto(out, a, b)
}

// Tile sizes for MulInto: a mulTileK×mulTileJ tile of b (256 KB) stays
// resident in L2 while it is folded into every row of the output, instead of
// b being streamed in full once per output row.
const (
	mulTileK = 64
	mulTileJ = 512
)

// MulInto computes out = a*b into the caller-owned out (zeroed first) and
// returns it. out must not alias a or b. The inner loops are tiled over b,
// but every out[i][j] still accumulates its products in ascending k order, so
// the result is bitwise-identical to the untiled ikj reference for any tile
// size — callers may switch between Mul and MulInto freely without perturbing
// golden waveforms.
func MulInto(out, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: product dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("mat: product output is %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.cols))
	}
	out.Zero()
	for k0 := 0; k0 < a.cols; k0 += mulTileK {
		k1 := k0 + mulTileK
		if k1 > a.cols {
			k1 = a.cols
		}
		for j0 := 0; j0 < b.cols; j0 += mulTileJ {
			j1 := j0 + mulTileJ
			if j1 > b.cols {
				j1 = b.cols
			}
			for i := 0; i < a.rows; i++ {
				arow := a.Row(i)
				orow := out.Row(i)[j0:j1]
				for k := k0; k < k1; k++ {
					aik := arow[k]
					if isExactZero(aik) {
						continue
					}
					vecops.AddMul(orow, b.Row(k)[j0:j1], aik)
				}
			}
		}
	}
	return out
}

// MulVec computes y = m*x. It panics if len(x) != Cols. The result is a new
// slice unless y is provided with the right length, in which case it is
// overwritten and returned.
func (m *Dense) MulVec(x, y []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d != cols %d", len(x), m.cols))
	}
	if len(y) != m.rows {
		y = make([]float64, m.rows)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecT computes y = mᵀ*x without forming the transpose.
func (m *Dense) MulVecT(x, y []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("mat: MulVecT length %d != rows %d", len(x), m.rows))
	}
	if len(y) != m.cols {
		y = make([]float64, m.cols)
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if isExactZero(xi) {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// NormFro returns the Frobenius norm.
func (m *Dense) NormFro() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equalf reports whether a and b have the same shape and agree elementwise
// within absolute tolerance tol.
func Equalf(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			//lint:ignore atset,allocsite String renders diagnostic output, not a hot path
			fmt.Fprintf(&sb, "% .6g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
