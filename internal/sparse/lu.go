package sparse

//lint:hot

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization cannot find a usable pivot.
var ErrSingular = errors.New("sparse: matrix is singular")

// LU is a sparse LU factorization P·A = L·U produced by the left-looking
// Gilbert–Peierls algorithm with threshold partial pivoting. L is unit lower
// triangular (unit diagonal implicit) and U upper triangular, both stored by
// column; row indices of L are original row numbers, row indices of U are
// pivot positions.
type LU struct {
	n int

	lp []int // L column pointers (len n+1)
	li []int // L row indices (original rows)
	lx []float64

	up    []int // U column pointers (len n+1)
	ui    []int // U row indices (pivot positions, strictly above diagonal)
	ux    []float64
	udiag []float64 // U diagonal (the pivots)

	perm []int // pivot position -> original row
	pinv []int // original row -> pivot position
}

// rowPlan is the row-oriented copy of finished factors that
// Factorization.SolveInto runs as one branch-free dot product per row, with
// int32 indices and the fill-reducing order folded into where each row reads
// and writes: pivot position i reads b[in[i]] and writes x[out[i]], and the
// column indices are stored as the out positions of those columns, so a
// solve runs from b into x with no permuted copies. Row i of L lists its
// columns j < i in ascending order and row i of U its columns j > i in
// descending order: exactly the order in which the column sweeps (the panel
// solves of panel.go) deliver their updates to that row.
//
// Bitwise contract: the column sweeps skip a column whose source value is an
// exact zero; the row plan instead subtracts its ±0 product. Every other
// product reaches the row in the same order, and subtracting a ±0 term from
// a nonzero running sum leaves it unchanged, while a zero running sum stays
// zero and may flip sign. A sum that differs from the column sweep's is
// therefore exactly zero at the end (a non-finite factor entry times a zero
// source gives NaN instead), so a row whose sum is zero or NaN is recomputed
// with the skip. Solves are Float64bits-identical to the column sweeps.
type rowPlan struct {
	in, out []int32 // pivot position -> position read in b, written in x
	lp, up  []int32 // row pointers of L and U (len n+1)
	lj, uj  []int32 // columns, stored as their out positions
	lx, ux  []float64
	udiag   []float64 // the pivots, shared with the LU
}

// newRowPlan transposes the column-stored factors of f into a rowPlan for the
// matrix A with f = LU(A(ord, ord)) (a nil ord is the identity), or returns
// nil when an index would overflow int32.
func newRowPlan(f *LU, ord []int) *rowPlan {
	n := f.n
	if n >= math.MaxInt32 || len(f.lx) >= math.MaxInt32 || len(f.ux) >= math.MaxInt32 {
		return nil
	}
	p := &rowPlan{
		in: make([]int32, n), out: make([]int32, n),
		lp: make([]int32, n+1), lj: make([]int32, len(f.lx)), lx: make([]float64, len(f.lx)),
		up: make([]int32, n+1), uj: make([]int32, len(f.ux)), ux: make([]float64, len(f.ux)),
		udiag: f.udiag,
	}
	pos := func(i int) int32 {
		if ord == nil {
			return int32(i)
		}
		return int32(ord[i])
	}
	for i, r := range f.perm {
		p.in[i], p.out[i] = pos(r), pos(i)
	}
	// Counting sort by row: visiting columns ascending (L) or descending (U)
	// leaves each row's columns in sweep order.
	for _, r := range f.li {
		p.lp[f.pinv[r]+1]++
	}
	for _, i := range f.ui {
		p.up[i+1]++
	}
	for i := 0; i < n; i++ {
		p.lp[i+1] += p.lp[i]
		p.up[i+1] += p.up[i]
	}
	next := append([]int32(nil), p.lp[:n]...)
	for j := 0; j < n; j++ {
		for q := f.lp[j]; q < f.lp[j+1]; q++ {
			i := f.pinv[f.li[q]]
			p.lj[next[i]], p.lx[next[i]] = p.out[j], f.lx[q]
			next[i]++
		}
	}
	copy(next, p.up[:n])
	for j := n - 1; j >= 0; j-- {
		for q := f.up[j]; q < f.up[j+1]; q++ {
			i := f.ui[q]
			p.uj[next[i]], p.ux[next[i]] = p.out[j], f.ux[q]
			next[i]++
		}
	}
	return p
}

// solve computes x = A⁻¹·b with no scratch (x must not alias b).
func (p *rowPlan) solve(x, b []float64) {
	// Forward: y_i = b[in i] − Σ_{j<i} L_ij·y_j, ascending j.
	for i, o := range p.out {
		x[o] = rowSum(b[p.in[i]], p.lj[p.lp[i]:p.lp[i+1]], p.lx[p.lp[i]:p.lp[i+1]], x)
	}
	// Backward: x_i = (y_i − Σ_{j>i} U_ij·x_j) / U_ii, descending j.
	for i := len(p.out) - 1; i >= 0; i-- {
		o := p.out[i]
		x[o] = rowSum(x[o], p.uj[p.up[i]:p.up[i+1]], p.ux[p.up[i]:p.up[i+1]], x) / p.udiag[i]
	}
}

// rowSum returns s − Σ_k vals[k]·x[cols[k]], subtracting in k order: one
// branch-free pass, redone with the column sweeps' exact-zero skip when the
// sum is zero or NaN (see rowPlan).
func rowSum(s float64, cols []int32, vals, x []float64) float64 {
	vals = vals[:len(cols)]
	r := s
	for k, c := range cols {
		r -= vals[k] * x[c]
	}
	if isExactZero(r) || math.IsNaN(r) {
		r = s
		for k, c := range cols {
			if v := x[c]; !isExactZero(v) {
				r -= vals[k] * v
			}
		}
	}
	return r
}

// FactorLU factors the square sparse matrix a with pivot threshold tol in
// (0, 1]: at each column the natural (diagonal) row is kept as pivot when its
// magnitude is at least tol times the column maximum, which preserves
// sparsity on the diagonally dominant matrices circuits produce; tol = 1
// degenerates to full partial pivoting.
func FactorLU(a *CSR, tol float64) (*LU, error) {
	n := a.R
	if a.C != n {
		return nil, fmt.Errorf("sparse: FactorLU of non-square %dx%d matrix", a.R, a.C)
	}
	if tol <= 0 || tol > 1 {
		return nil, fmt.Errorf("sparse: pivot threshold %g outside (0,1]", tol)
	}
	at := a.T() // CSC view: at row i holds column i of a.

	f := &LU{
		n:     n,
		lp:    make([]int, 1, n+1),
		up:    make([]int, 1, n+1),
		udiag: make([]float64, n),
		perm:  make([]int, n),
		pinv:  make([]int, n),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}

	x := make([]float64, n)       // dense accumulator, indexed by original row
	touched := make([]int, 0, 64) // original rows with (potentially) nonzero x
	mark := make([]int, n)        // touch stamps for rows
	for i := range mark {
		mark[i] = -1
	}
	cmark := make([]int, n) // DFS stamps for columns
	for i := range cmark {
		cmark[i] = -1
	}
	dfsStack := make([]int, 0, 64)
	posStack := make([]int, 0, 64)
	topo := make([]int, 0, 64)

	for j := 0; j < n; j++ {
		// --- Symbolic: reach of A(:,j) through the columns of L built so far.
		topo = topo[:0]
		for p := at.RowPtr[j]; p < at.RowPtr[j+1]; p++ {
			c := f.pinv[at.ColIdx[p]]
			if c < 0 || cmark[c] == j {
				continue
			}
			// Iterative DFS from column c; reverse post-order is prepended
			// by collecting post-order then reversing at the end.
			dfsStack = append(dfsStack[:0], c)
			posStack = append(posStack[:0], f.lp[c])
			cmark[c] = j
			for len(dfsStack) > 0 {
				top := len(dfsStack) - 1
				k := dfsStack[top]
				advanced := false
				for q := posStack[top]; q < f.lp[k+1]; q++ {
					child := f.pinv[f.li[q]]
					if child >= 0 && cmark[child] != j {
						cmark[child] = j
						posStack[top] = q + 1
						dfsStack = append(dfsStack, child)
						posStack = append(posStack, f.lp[child])
						advanced = true
						break
					}
				}
				if !advanced {
					dfsStack = dfsStack[:top]
					posStack = posStack[:top]
					topo = append(topo, k) // post-order
				}
			}
		}
		// Reverse post-order = topological order (ancestors first).
		for lo, hi := 0, len(topo)-1; lo < hi; lo, hi = lo+1, hi-1 {
			topo[lo], topo[hi] = topo[hi], topo[lo]
		}

		// --- Numeric: scatter A(:,j), then eliminate along topo order.
		touched = touched[:0]
		for p := at.RowPtr[j]; p < at.RowPtr[j+1]; p++ {
			r := at.ColIdx[p]
			if mark[r] != j {
				mark[r] = j
				x[r] = 0
				touched = append(touched, r)
			}
			x[r] += at.Val[p]
		}
		for _, k := range topo {
			pr := f.perm[k]
			if mark[pr] != j {
				mark[pr] = j
				x[pr] = 0
				touched = append(touched, pr)
			}
			xk := x[pr]
			if isExactZero(xk) {
				continue
			}
			for q := f.lp[k]; q < f.lp[k+1]; q++ {
				r := f.li[q]
				if mark[r] != j {
					mark[r] = j
					x[r] = 0
					touched = append(touched, r)
				}
				x[r] -= f.lx[q] * xk
			}
		}

		// --- Pivot: choose among unpivoted touched rows.
		pivRow, maxAbs := -1, 0.0
		diagOK := false
		var diagVal float64
		for _, r := range touched {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > maxAbs {
				maxAbs, pivRow = a, r
			}
			if r == j {
				diagOK, diagVal = true, x[r]
			}
		}
		if pivRow < 0 || isExactZero(maxAbs) {
			return nil, fmt.Errorf("%w: no pivot for column %d", ErrSingular, j)
		}
		if diagOK && math.Abs(diagVal) >= tol*maxAbs && !isExactZero(diagVal) {
			pivRow = j
		}
		pivVal := x[pivRow]
		f.perm[j] = pivRow
		f.pinv[pivRow] = j
		f.udiag[j] = pivVal

		// --- Store U(:,j) (pivoted rows) and L(:,j) (unpivoted rows).
		for _, k := range topo {
			v := x[f.perm[k]]
			if !isExactZero(v) && k != j {
				f.ui = append(f.ui, k)
				f.ux = append(f.ux, v)
			}
		}
		for _, r := range touched {
			if f.pinv[r] >= 0 || r == pivRow {
				continue
			}
			if v := x[r]; !isExactZero(v) {
				f.li = append(f.li, r)
				f.lx = append(f.lx, v/pivVal)
			}
		}
		f.lp = append(f.lp, len(f.li))
		f.up = append(f.up, len(f.ui))
	}
	return f, nil
}

// N returns the factored dimension.
func (f *LU) N() int { return f.n }

// NNZ returns the total stored nonzeros in L and U (including pivots).
func (f *LU) NNZ() int { return len(f.lx) + len(f.ux) + f.n }

// SolveTranspose solves Aᵀ·x = b. With P·A = L·U, Aᵀ = Uᵀ·Lᵀ·P, so the
// sweep is a forward substitution with Uᵀ (lower triangular in pivot
// coordinates), a backward substitution with the unit-diagonal Lᵀ, and a
// final inverse row permutation. It exists for the 1-norm condition
// estimator, which needs solves against both A and Aᵀ.
func (f *LU) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sparse: LU SolveTranspose length %d != %d", len(b), f.n)
	}
	z := append([]float64(nil), b...)
	// Uᵀ z = b: column j of U lists the strictly-above-diagonal rows of
	// column j, i.e. the sub-diagonal entries of row j of Uᵀ.
	for j := 0; j < f.n; j++ {
		s := z[j]
		for q := f.up[j]; q < f.up[j+1]; q++ {
			s -= f.ux[q] * z[f.ui[q]]
		}
		z[j] = s / f.udiag[j]
	}
	// Lᵀ w = z in place: rows of Lᵀ below j sit at pivot positions
	// pinv[li[q]] > j, already final when j is processed in descending order.
	for j := f.n - 1; j >= 0; j-- {
		s := z[j]
		for q := f.lp[j]; q < f.lp[j+1]; q++ {
			s -= f.lx[q] * z[f.pinv[f.li[q]]]
		}
		z[j] = s
	}
	// x = Pᵀ w.
	x := make([]float64, f.n)
	for j := 0; j < f.n; j++ {
		x[f.perm[j]] = z[j]
	}
	return x, nil
}

// pivotTol is Factor's threshold-pivoting tolerance (see FactorLU): the
// diagonal pivot is kept while it is at least a tenth of the column maximum.
const pivotTol = 0.1

// Options configures Factor.
type Options struct {
	// Refine enables one step of iterative refinement per solve.
	Refine bool
}

// Factorization couples a sparse LU with the optional fill-reducing
// pre-ordering and iterative refinement against the original matrix. Vector
// solves run through the row plan, panel solves through the column sweeps.
type Factorization struct {
	lu     *LU
	plan   *rowPlan // vector substitution, in a's coordinates
	a      *CSR     // original matrix (for refinement)
	ord    []int    // new -> old, nil when no pre-ordering
	ordUI  []int    // U's row indices in a's coordinates, ord[ui[q]] (ui when unordered; panel solves)
	refine bool

	// SolveInto refinement scratch, lazily sized; see the concurrency note
	// there.
	rwork []float64 // residual
	dwork []float64 // correction
}

// Factor computes a ready-to-solve factorization of the square matrix a.
func Factor(a *CSR, opt Options) (*Factorization, error) {
	f := &Factorization{a: a, refine: opt.Refine}
	work := a
	// A fill-reducing order pays off on mesh-like matrices; below ~64
	// unknowns its setup cost exceeds any fill reduction, so skip it.
	if a.R >= 64 {
		f.ord = AMD(a)
		work = a.Permute(f.ord)
	}
	lu, err := FactorLU(work, pivotTol)
	if err != nil {
		return nil, err
	}
	if f.plan = newRowPlan(lu, f.ord); f.plan == nil {
		return nil, fmt.Errorf("sparse: n=%d factors with %d nonzeros overflow int32 indices", lu.n, lu.NNZ())
	}
	f.ordUI = lu.ui
	if f.ord != nil {
		f.ordUI = make([]int, len(lu.ui))
		for q, i := range lu.ui {
			f.ordUI[q] = f.ord[i]
		}
	}
	f.lu = lu
	return f, nil
}

// N returns the system dimension.
func (f *Factorization) N() int { return f.lu.n }

// NNZFactors returns the nonzeros stored in the LU factors.
func (f *Factorization) NNZFactors() int { return f.lu.NNZ() }

// MulAdds returns the multiply-adds the numeric factorization spent, read
// off the finished pattern: column j's elimination subtracts a multiple of
// L(:,k) for every k in U(:,j), and each entry of L(:,j) takes one scaling.
// Updates whose multiplier cancelled to an exact zero are not counted.
func (f *Factorization) MulAdds() int {
	ops := len(f.lu.lx)
	for _, k := range f.lu.ui {
		ops += f.lu.lp[k+1] - f.lu.lp[k]
	}
	return ops
}

// Share returns a view of the factorization that reuses the (immutable)
// factors, row plan and pre-ordering but owns its solve scratch. Views are
// what the pencil-factorization cache hands out: each run solves through its
// own view, so cached factorizations never race on scratch, and a view's
// solves are bitwise-identical to the original's.
func (f *Factorization) Share() *Factorization {
	return &Factorization{lu: f.lu, plan: f.plan, a: f.a, ord: f.ord, ordUI: f.ordUI, refine: f.refine}
}

// Solve solves A·x = b into a fresh vector without modifying b. It runs
// SolveInto on a private view, so concurrent calls are safe. It returns an
// error when b has the wrong length for the factored system.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := f.Share().SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into x (len N() each; x must not alias b)
// without modifying b: the row plan runs from b straight into x, plus the
// optional refinement step, whose scratch is kept on the factorization so
// steady-state solves allocate nothing. That scratch makes a refining
// Factorization unsafe for concurrent SolveInto calls; use Share views.
func (f *Factorization) SolveInto(x, b []float64) error {
	n := f.lu.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("sparse: SolveInto lengths %d,%d != %d", len(x), len(b), n)
	}
	f.plan.solve(x, b)
	if f.refine {
		// One refinement step: r = b − A·x, x += A⁻¹ r.
		if f.rwork == nil {
			f.rwork = make([]float64, n)
			f.dwork = make([]float64, n)
		}
		r := f.a.MulVec(x, f.rwork)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		f.plan.solve(f.dwork, r)
		for i := range x {
			x[i] += f.dwork[i]
		}
	}
	return nil
}

// SolveTranspose solves Aᵀ·x = b without modifying b (no refinement).
func (f *Factorization) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.lu.n {
		return nil, fmt.Errorf("sparse: SolveTranspose right-hand side length %d != %d", len(b), f.lu.n)
	}
	if f.ord == nil {
		return f.lu.SolveTranspose(b)
	}
	// The pre-ordering is symmetric (W = P·A·Pᵀ), so Wᵀ = P·Aᵀ·Pᵀ and the
	// same permutation sandwich applies to the transposed solve.
	n := f.lu.n
	pb := make([]float64, n)
	for newI, oldI := range f.ord {
		pb[newI] = b[oldI]
	}
	px, err := f.lu.SolveTranspose(pb)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for newI, oldI := range f.ord {
		x[oldI] = px[newI]
	}
	return x, nil
}

// Cond1Est estimates the 1-norm condition number κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ (see
// cond1Est), solving without refinement.
func (f *Factorization) Cond1Est() float64 {
	if f.lu.n == 1 {
		d := f.lu.udiag[0]
		if isExactZero(d) {
			return math.Inf(1)
		}
		return math.Abs(f.a.Norm1() / d)
	}
	solve := func(x, b []float64) error {
		f.plan.solve(x, b)
		return nil
	}
	return cond1Est(f.a, solve, f.SolveTranspose)
}

// cond1Est estimates κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ with Hager's power-style iteration
// on ‖A⁻¹‖₁ (the LAPACK xLACON scheme, a handful of solves against A and Aᵀ),
// given solve (x = A⁻¹·b into x) and solveT (Aᵀ⁻¹·b, freshly allocated). The
// estimate is a lower bound that is almost always within a small factor of
// the truth — enough to route a factorization down the fallback chain. It
// returns +Inf when the triangular solves overflow, which is itself a
// reliable ill-conditioning signal.
func cond1Est(a *CSR, solve func(x, b []float64) error, solveT func(b []float64) ([]float64, error)) float64 {
	n := a.R
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	y := make([]float64, n)
	xi := make([]float64, n) // sign vector, fully overwritten each iteration
	est := 0.0
	prev := -1
	for iter := 0; iter < 5; iter++ {
		if err := solve(y, x); err != nil {
			return math.Inf(1)
		}
		est = 0
		for _, v := range y {
			est += math.Abs(v)
		}
		if math.IsNaN(est) || math.IsInf(est, 0) {
			return math.Inf(1)
		}
		// ξ = sign(y); z = A⁻ᵀ·ξ.
		for i, v := range y {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		z, err := solveT(xi)
		if err != nil {
			return math.Inf(1)
		}
		j, zmax := 0, 0.0
		for i, v := range z {
			if a := math.Abs(v); a > zmax {
				zmax, j = a, i
			}
		}
		zdotx := 0.0
		for i := range z {
			zdotx += z[i] * x[i]
		}
		if zmax <= math.Abs(zdotx) || j == prev {
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		prev = j
	}
	return a.Norm1() * est
}
