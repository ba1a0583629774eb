// Package sparse implements the sparse linear-algebra substrate for the
// circuit-sized systems in the OPM simulator: COO assembly, CSR storage and
// mat-vec, approximate-minimum-degree and reverse Cuthill–McKee orderings, a
// left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting,
// and its bordered-block-diagonal twin for large grids (bbd.go).
// Every LU solves a vector through one substitution, the row plan of lu.go,
// and a panel of right-hand sides through the column sweeps of panel.go; the
// two agree bit for bit.
//
// The paper's complexity claim O(nᵝ m + n m²) rests on E and A being sparse
// with O(n) nonzeros and on one sparse factorization being reused across all
// m columns of the coefficient matrix X; this package provides exactly that.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"opmsim/internal/mat"
)

// COO is a coordinate-format assembly buffer. Duplicate entries are summed
// when converting to CSR, which matches how circuit stamps accumulate.
type COO struct {
	R, C int
	rows []int
	cols []int
	vals []float64
}

// NewCOO returns an empty r-by-c assembly buffer.
func NewCOO(r, c int) *COO {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", r, c))
	}
	return &COO{R: r, C: c}
}

// Add accumulates v at (i, j).
func (a *COO) Add(i, j int, v float64) {
	if i < 0 || i >= a.R || j < 0 || j >= a.C {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, a.R, a.C))
	}
	if isExactZero(v) {
		return
	}
	a.rows = append(a.rows, i)
	a.cols = append(a.cols, j)
	a.vals = append(a.vals, v)
}

// NNZ returns the number of accumulated entries (before deduplication).
func (a *COO) NNZ() int { return len(a.vals) }

// ToCSR converts the buffer to compressed sparse row form, summing
// duplicates and dropping exact zeros produced by cancellation.
func (a *COO) ToCSR() *CSR {
	// Count entries per row.
	count := make([]int, a.R+1)
	for _, i := range a.rows {
		count[i+1]++
	}
	for i := 0; i < a.R; i++ {
		count[i+1] += count[i]
	}
	colIdx := make([]int, len(a.vals))
	vals := make([]float64, len(a.vals))
	next := append([]int(nil), count...)
	for k, i := range a.rows {
		p := next[i]
		colIdx[p] = a.cols[k]
		vals[p] = a.vals[k]
		next[i]++
	}
	// Sort within each row and merge duplicates.
	out := &CSR{R: a.R, C: a.C, RowPtr: make([]int, a.R+1)}
	for i := 0; i < a.R; i++ {
		lo, hi := count[i], count[i+1]
		idx := colIdx[lo:hi]
		val := vals[lo:hi]
		sort.Sort(&colSorter{idx, val})
		for k := 0; k < len(idx); {
			j := idx[k]
			s := val[k]
			k++
			for k < len(idx) && idx[k] == j {
				s += val[k]
				k++
			}
			if !isExactZero(s) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, s)
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

type colSorter struct {
	idx []int
	val []float64
}

func (s *colSorter) Len() int           { return len(s.idx) }
func (s *colSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *colSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// CSR is a compressed-sparse-row matrix with sorted column indices per row.
type CSR struct {
	R, C   int
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// Identity returns the n-by-n sparse identity.
func Identity(n int) *CSR {
	m := &CSR{R: n, C: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Val) }

// Norm1 returns the induced 1-norm ‖A‖₁ = max_j Σ_i |a_ij|.
func (a *CSR) Norm1() float64 {
	colSum := make([]float64, a.C)
	for p, v := range a.Val {
		colSum[a.ColIdx[p]] += math.Abs(v)
	}
	max := 0.0
	for _, s := range colSum {
		if s > max {
			max = s
		}
	}
	return max
}

// At returns the (i, j) element using binary search within row i.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	idx := a.ColIdx[lo:hi]
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return a.Val[lo+k]
	}
	return 0
}

// MulVec computes y = A·x. If y has the right length it is reused.
func (a *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != a.C {
		panic(fmt.Sprintf("sparse: MulVec length %d != cols %d", len(x), a.C))
	}
	if len(y) != a.R {
		y = make([]float64, a.R)
	}
	for i := 0; i < a.R; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p] * x[a.ColIdx[p]]
		}
		y[i] = s
	}
	return y
}

// MulVecAdd computes y += s·A·x in place.
func (a *CSR) MulVecAdd(s float64, x, y []float64) {
	if len(x) != a.C || len(y) != a.R {
		panic("sparse: MulVecAdd length mismatch")
	}
	for i := 0; i < a.R; i++ {
		// Structurally empty rows contribute nothing and are skipped outright.
		// MulPanelAdd and the BBD solves' Gᵢ·yᵢ folds apply the identical
		// skip, which keeps panel and scalar accumulation bitwise in lockstep
		// row by row.
		if a.RowPtr[i] == a.RowPtr[i+1] {
			continue
		}
		acc := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			acc += a.Val[p] * x[a.ColIdx[p]]
		}
		y[i] += s * acc
	}
}

// Scale returns s·A as a new matrix.
func (a *CSR) Scale(s float64) *CSR {
	out := &CSR{R: a.R, C: a.C,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    make([]float64, len(a.Val))}
	for i, v := range a.Val {
		out.Val[i] = s * v
	}
	return out
}

// Combine returns alpha·A + beta·B for same-shaped sparse matrices. It is the
// workhorse for assembling the per-column system matrix c₀·E − A.
func Combine(alpha float64, a *CSR, beta float64, b *CSR) *CSR {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("sparse: Combine shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C))
	}
	out := &CSR{R: a.R, C: a.C, RowPtr: make([]int, a.R+1)}
	for i := 0; i < a.R; i++ {
		pa, pb := a.RowPtr[i], b.RowPtr[i]
		ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
		for pa < ea || pb < eb {
			var j int
			var v float64
			switch {
			case pb >= eb || (pa < ea && a.ColIdx[pa] < b.ColIdx[pb]):
				j, v = a.ColIdx[pa], alpha*a.Val[pa]
				pa++
			case pa >= ea || b.ColIdx[pb] < a.ColIdx[pa]:
				j, v = b.ColIdx[pb], beta*b.Val[pb]
				pb++
			default:
				j, v = a.ColIdx[pa], alpha*a.Val[pa]+beta*b.Val[pb]
				pa++
				pb++
			}
			if !isExactZero(v) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// T returns the transpose as a new CSR (equivalently, the CSC view of A).
func (a *CSR) T() *CSR {
	out := &CSR{R: a.C, C: a.R, RowPtr: make([]int, a.C+1),
		ColIdx: make([]int, len(a.Val)), Val: make([]float64, len(a.Val))}
	for _, j := range a.ColIdx {
		out.RowPtr[j+1]++
	}
	for j := 0; j < a.C; j++ {
		out.RowPtr[j+1] += out.RowPtr[j]
	}
	next := append([]int(nil), out.RowPtr...)
	for i := 0; i < a.R; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			q := next[j]
			out.ColIdx[q] = i
			out.Val[q] = a.Val[p]
			next[j]++
		}
	}
	return out
}

// Permute returns P·A·Pᵀ for the symmetric permutation perm, where
// perm[newIndex] = oldIndex. A must be square.
func (a *CSR) Permute(perm []int) *CSR {
	n := a.R
	if a.C != n || len(perm) != n {
		panic("sparse: Permute requires square matrix and full permutation")
	}
	inv := make([]int, n)
	for newI, oldI := range perm {
		inv[oldI] = newI
	}
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			coo.Add(inv[i], inv[a.ColIdx[p]], a.Val[p])
		}
	}
	return coo.ToCSR()
}

// ToDense converts to a dense matrix (small systems and tests only).
func (a *CSR) ToDense() *mat.Dense {
	d := mat.NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d.Set(i, a.ColIdx[p], a.Val[p])
		}
	}
	return d
}

// FromDense converts a dense matrix to CSR, dropping zeros.
func FromDense(d *mat.Dense) *CSR {
	coo := NewCOO(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); !isExactZero(v) {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
