package core

//lint:hot

import (
	"context"
	"fmt"

	"opmsim/internal/basis"
	"opmsim/internal/faultinject"
	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// Options configures the OPM solvers.
type Options struct {
	// X0 is an optional initial state. It is only supported for systems
	// whose orders are all 0 or 1 (the paper assumes zero initial
	// conditions; for DAEs the substitution z = x − x₀ reduces nonzero IC
	// to the zero-IC case, but for fractional orders the Caputo-with-zero-IC
	// semantics would change).
	X0 []float64
	// Workers sets the goroutine count of the parallel phases: a batch's
	// scenario groups, the FFT history tier's firings (one task list over
	// the group members' row pairs) and the BBD tier's domain factorization
	// and solve phases. A batch whose scenario groups run concurrently runs
	// each group's firings and solves on that group's goroutine. The zero
	// value means "auto" (runtime.GOMAXPROCS); 1 runs everything on the
	// calling goroutine, a batch's scenario groups included, in group
	// order. Results are bitwise-identical for every Workers value: each
	// accumulator is owned by a single goroutine and summed in a fixed
	// order.
	Workers int
	// HistoryMode selects the engine serving fractional/high-order history
	// sums: HistoryExact is the reference summation, one ascending fold of
	// the past columns per column on the solving goroutine; HistoryFFT the
	// segmented fast-convolution tier, O(n·m log² m) instead of O(n·m²),
	// agreeing with exact to roundoff (≤1e-10 relative on the golden
	// waveforms) but not bit for bit; HistoryAuto — the zero value — picks
	// FFT at and above a measured crossover grid size and exact below it.
	// It governs the terms without a recurrence: on the adaptive grid these
	// are the fractional and p ≥ 2 terms, which always use the exact tier,
	// because the non-uniform operational matrix has no Toeplitz structure
	// to convolve.
	HistoryMode HistoryMode
	// FactorCache, when non-nil, caches leading-pencil factorizations across
	// runs, keyed by the assembled pencil's contents plus (h, α) and the
	// factorization-steering options (see FactorCache). Solve, the adaptive
	// solvers, and SolveBatch consult it; repeated sweep points, halved-h
	// retries, and batch scenarios then reuse one factorization instead of
	// refactoring. Hits and misses are mirrored into Report. Safe to share
	// across goroutines. When factorization fault injection is active the
	// cache is bypassed (a cached factorization would short-circuit the
	// injected failures).
	FactorCache *FactorCache
	// OnColumn, when non-nil, is invoked by Solve, SolveNonlinear and both
	// adaptive solvers (and their Ctx variants) after each solution column
	// commits, with the column index, the interval-midpoint time, and the
	// column values including the X0 offset — bitwise-identical to column col
	// of the final Solution's coefficient matrix. The slice is owned by the
	// solver and reused between invocations: consumers must copy (or encode)
	// it before returning. The hook runs on the solving goroutine, so a slow
	// consumer throttles the solve — the intended backpressure for streaming
	// columns to a client. SolveBatch ignores it in favour of
	// BatchOptions.OnColumn, whose barrier semantics keep the hook off the
	// concurrent group tasks.
	OnColumn func(col int, t float64, x []float64)
	// Supernodal steers the supernodal/domain-decomposed factorization tier
	// (nested-dissection BBD with blocked supernodal domain factors): 0 —
	// the default — engages it automatically for pencils of dimension at
	// least DefaultSupernodalMinN, 1 forces it regardless of size, −1
	// disables it. When engaged it is tried before the scalar sparse LU and
	// falls through to it on any failure, so enabling it never loses
	// robustness; solutions are bitwise-identical across Workers values
	// either way.
	Supernodal int
	// Report, when non-nil, is filled in place with what the hardened solver
	// core did: per-tier solve counts, fallback records, condition warnings,
	// and retry counters. It is also populated on failure, so post-mortems
	// see the partial run.
	Report *SolveReport
	// Fault carries optional fault-injection hooks (see internal/faultinject).
	// nil — the production configuration — adds one pointer comparison per
	// guarded site.
	Fault *faultinject.Hooks
}

// report returns the caller-attached report, or a throwaway one so the solve
// paths never need nil checks.
func (o *Options) report() *SolveReport {
	if o.Report != nil {
		return o.Report
	}
	return &SolveReport{}
}

// Solve simulates the system over [0, T) with m uniform block-pulse
// intervals, which is the OPM method of §III–IV:
//
//  1. expand the input, u(t) = U·φ(t);
//  2. form the Toeplitz coefficients of Dᵅᵏ for every term (eq. 22);
//  3. factor M = Σ_k c₀⁽ᵏ⁾·E_k once;
//  4. solve for the columns of X left to right (eq. 28), accumulating each
//     term's history sum — O(1) per column for orders 0 and 1 (the "special
//     pattern" of §III-A), O(j) for fractional/high orders, exactly the
//     complexity split the paper describes.
func Solve(sys *System, u []waveform.Signal, m int, T float64, opt Options) (*Solution, error) {
	return SolveCtx(context.Background(), sys, u, m, T, opt)
}

// SolveCtx is Solve with cancellation: ctx is checked at every column of the
// solve loop (and at the segment firings of the FFT history tier),
// and an expired or cancelled context terminates the run with a *Diagnostic
// wrapping ErrCancelled that records the column and time reached.
func SolveCtx(ctx context.Context, sys *System, u []waveform.Signal, m int, T float64, opt Options) (_ *Solution, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
	sols, err := solveUniform(ctx, sys, []Scenario{{U: u, X0: opt.X0}}, m, T, single(opt), rep)
	if err != nil {
		return nil, err
	}
	return sols[0], nil
}

// expandInputs expands each input channel in the given basis and returns the
// p×m coefficient matrix U (eq. 11).
func expandInputs(sys *System, u []waveform.Signal, b basis.Basis) (*mat.Dense, error) {
	p := sys.Inputs()
	if len(u) != p {
		return nil, fmt.Errorf("core: system has %d inputs, got %d signals", p, len(u))
	}
	uc := mat.NewDense(p, b.Size())
	for c, sig := range u {
		if sig == nil {
			return nil, fmt.Errorf("core: input signal %d is nil", c)
		}
		row := b.Expand(sig)
		copy(uc.Row(c), row)
	}
	return uc, nil
}

// applyInputOrder right-multiplies the input coefficient matrix by the
// Toeplitz operational matrix with the given coefficient sequence:
// U_eff[c][j] = Σ_{i≤j} U[c][i]·d_{j−i}, realizing B·dᵝu/dtᵝ.
//
// Integer orders hit a fast path: DiffCoeffs(β) for β = 1 is the classical
// D(m) sequence (2/h)·(1, −2, 2, −2, ...), whose tail alternates exactly
// (d_k = −d_{k−1} for k ≥ 2), collapsing the O(m²) convolution per row to
// the O(m) recurrence t_j = d₁·u_{j−1} − t_{j−1}, y_j = d₀·u_j + t_j. The
// recurrence sums in a different order than the naive convolution, so the
// two paths agree to rounding, not bit for bit — acceptable here because
// every solver (sequential, adaptive, batch) routes through this one
// function, keeping batch-vs-sequential comparisons exact.
func applyInputOrder(uc *mat.Dense, d []float64) *mat.Dense {
	p, m := uc.Rows(), uc.Cols()
	out := mat.NewDense(p, m)
	if toeplitzTailAlternates(d) {
		for c := 0; c < p; c++ {
			row := uc.Row(c)
			orow := out.Row(c)
			t := 0.0
			orow[0] = d[0] * row[0]
			for j := 1; j < m; j++ {
				t = d[1]*row[j-1] - t
				orow[j] = d[0]*row[j] + t
			}
		}
		return out
	}
	for c := 0; c < p; c++ {
		row := uc.Row(c)
		orow := out.Row(c)
		for j := 0; j < m; j++ {
			s := 0.0
			for i := 0; i <= j; i++ {
				s += row[i] * d[j-i]
			}
			orow[j] = s
		}
	}
	return out
}

// toeplitzTailAlternates reports whether d_k = −d_{k−1} holds exactly for
// every k ≥ 2, the structure of the integer-order differentiation sequence
// that licenses applyInputOrder's O(m) recurrence. Negating a float is
// exact, so for true D(m) sequences the check cannot fail on rounding.
func toeplitzTailAlternates(d []float64) bool {
	if len(d) < 3 {
		return false // the naive convolution is already trivial
	}
	for k := 2; k < len(d); k++ {
		if !isExactEq(d[k], -d[k-1]) {
			return false
		}
	}
	return true
}

// ucColumnInto gathers column j of the input coefficient matrix into dst
// (len uc.Rows()) and returns it; the solve loops reuse one buffer across
// all columns.
func ucColumnInto(dst []float64, uc *mat.Dense, j int) []float64 {
	for i := range dst {
		dst[i] = uc.At(i, j)
	}
	return dst
}

// assembleLeading combines the term coefficient matrices with the given
// per-term scalars.
func assembleLeading(sys *System, scale func(k int) float64) (*sparse.CSR, error) {
	var m *sparse.CSR
	for k, t := range sys.Terms {
		if m == nil {
			m = t.Coeff.Scale(scale(k))
			continue
		}
		m = sparse.Combine(1, m, scale(k), t.Coeff)
	}
	if m == nil {
		return nil, fmt.Errorf("core: no terms to assemble")
	}
	return m, nil
}

// LeadingPencil assembles the leading matrix M = Σ_k c₀⁽ᵏ⁾·E_k that every
// column solve of an m-interval uniform run factors — the matrix the tiered
// factorization chain (supernodal/BBD → sparse LU → dense → QR) receives —
// and returns it with the step size h = T/m. It exists for harnesses that
// benchmark or inspect the factorization stage in isolation (the scale
// experiment); the solvers assemble internally.
func LeadingPencil(sys *System, m int, T float64) (*sparse.CSR, float64, error) {
	if err := sys.Validate(); err != nil {
		return nil, 0, err
	}
	bpf, err := basis.NewBPF(m, T)
	if err != nil {
		return nil, 0, err
	}
	coeffs := make([][]float64, len(sys.Terms))
	for k, t := range sys.Terms {
		coeffs[k] = bpf.DiffCoeffs(t.Order)
	}
	msys, err := assembleLeading(sys, func(k int) float64 { return coeffs[k][0] })
	if err != nil {
		return nil, 0, err
	}
	return msys, bpf.Step(), nil
}

// prepareInitialState validates X0 and returns the state offset x₀ and the
// constant rhs shift g = −Σ_{k: α_k=0} E_k·x₀ arising from z = x − x₀.
func prepareInitialState(sys *System, x0 []float64) (offset, shift []float64, err error) {
	n := sys.N()
	shift = make([]float64, n)
	if x0 == nil {
		return make([]float64, n), shift, nil
	}
	if len(x0) != n {
		return nil, nil, fmt.Errorf("core: X0 has length %d, want %d", len(x0), n)
	}
	for _, t := range sys.Terms {
		if !isExactZero(t.Order) && !isExactEq(t.Order, 1) {
			return nil, nil, fmt.Errorf("core: nonzero X0 requires all orders in {0,1}, found %g", t.Order)
		}
	}
	for _, t := range sys.Terms {
		if isExactZero(t.Order) {
			t.Coeff.MulVecAdd(-1, x0, shift)
		}
	}
	return append([]float64(nil), x0...), shift, nil
}

// ResidualNorm measures how well a solution satisfies the operational-matrix
// equation Σ_k E_k·X·Dᵅᵏ = B·U in the Frobenius norm, relative to ‖B·U‖. It
// is a diagnostic used by tests: OPM solves the equation exactly (up to
// roundoff), so the residual should be at machine-precision level.
func ResidualNorm(sys *System, sol *Solution, u []waveform.Signal) (float64, error) {
	bpf, ok := sol.bas.(*basis.BPF)
	if !ok {
		return 0, fmt.Errorf("core: ResidualNorm requires a uniform BPF solution")
	}
	uc, err := expandInputs(sys, u, bpf)
	if err != nil {
		return 0, err
	}
	if !isExactZero(sys.BOrder) {
		uc = applyInputOrder(uc, bpf.DiffCoeffs(sys.BOrder))
	}
	n, m := sys.N(), bpf.Size()
	lhs := mat.NewDense(n, m)
	for _, t := range sys.Terms {
		xd := mat.Mul(sol.x, bpf.DiffMatrix(t.Order))
		ecsr := t.Coeff
		for i := 0; i < n; i++ {
			lr := lhs.Row(i)
			for p := ecsr.RowPtr[i]; p < ecsr.RowPtr[i+1]; p++ {
				k, v := ecsr.ColIdx[p], ecsr.Val[p]
				xdk := xd.Row(k)
				for j := 0; j < m; j++ {
					lr[j] += v * xdk[j]
				}
			}
		}
	}
	bu := mat.NewDense(n, m)
	ucol := make([]float64, uc.Rows())
	for j := 0; j < m; j++ {
		col := sys.B.MulVec(ucColumnInto(ucol, uc, j), nil)
		for i := 0; i < n; i++ {
			//lint:ignore atset column fill from a per-column MulVec result; no row view spans it
			bu.Set(i, j, col[i])
		}
	}
	denom := bu.NormFro()
	if isExactZero(denom) {
		denom = 1
	}
	return mat.Sub(lhs, bu).NormFro() / denom, nil
}
