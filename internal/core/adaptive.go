package core

import (
	"context"
	"fmt"
	"math"

	"opmsim/internal/basis"
	"opmsim/internal/mat"
	"opmsim/internal/waveform"
)

// SolveAdaptive simulates the system on the caller-supplied non-uniform time
// steps, using the adaptive-step operational matrices of §III-B/§IV
// (eqs. 17, 25). The per-column system matrix M_j = Σ_k D̃ᵅᵏ[j][j]·E_k depends
// on the column only through h_j, so factorizations are cached by step size:
// a schedule alternating between a few distinct step values pays for only
// that many factorizations.
//
// For non-integer orders the steps must be pairwise distinct (eq. 25's
// eigendecomposition requirement).
func SolveAdaptive(sys *System, u []waveform.Signal, steps []float64, opt Options) (*Solution, error) {
	return SolveAdaptiveCtx(context.Background(), sys, u, steps, opt)
}

// SolveAdaptiveCtx is SolveAdaptive with cancellation; see SolveCtx for the
// contract.
func SolveAdaptiveCtx(ctx context.Context, sys *System, u []waveform.Signal, steps []float64, opt Options) (_ *Solution, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.X0 != nil {
		return nil, fmt.Errorf("core: SolveAdaptive does not support X0 (shift the state externally)")
	}
	ab, err := basis.NewAdaptiveBPF(steps)
	if err != nil {
		return nil, err
	}
	m := len(steps)
	r := &columnRun{ctx: ctx, opt: single(opt), rep: rep, sys: sys, bas: ab, n: sys.N(), m: m,
		times: make([]float64, m), dmats: make([]*mat.Dense, len(sys.Terms))}
	if _, err := opt.historyFFTEnabled(m); err != nil {
		return nil, err
	}
	if !isExactZero(sys.BOrder) {
		if r.bmat, err = ab.DiffMatrixAlpha(sys.BOrder); err != nil {
			return nil, fmt.Errorf("core: input order %g: %w", sys.BOrder, err)
		}
	}
	// Materialize D̃ᵅᵏ for each term (dense m×m; the adaptive path is meant
	// for modest m, where step placement replaces step count). The
	// adaptive-grid D̃ᵅ has no Toeplitz structure, so every nonzero-order term
	// runs through the exact history tier's ascending fold — the FFT
	// fast-convolution tier never applies here, whatever Options.HistoryMode
	// says (the mode is still validated).
	for k, t := range sys.Terms {
		if isExactZero(t.Order) {
			r.dmats[k] = mat.Eye(m)
		} else if r.dmats[k], err = ab.DiffMatrixAlpha(t.Order); err != nil {
			return nil, fmt.Errorf("core: term %d (order %g): %w", k, t.Order, err)
		}
	}
	for j, h := range steps {
		r.times[j] = r.T + h/2
		r.T += h
	}
	return r.solveOne(u, func(g *panelStep) columnStep {
		return &adaptiveStep{r: r, g: g, steps: steps, cache: map[float64]*pencilFactor{}}
	})
}

// adaptiveStep is the driver step of SolveAdaptive. The per-column system
// matrix M_j = Σ_k D̃ᵅᵏ[j][j]·E_k depends on the column only through h_j, so
// factorizations are cached at two levels: the run-local map keyed by step
// size (schedules alternating between a few distinct h values pay for that
// many factorizations at most), and behind it the optional shared
// Options.FactorCache, which lets repeated SolveAdaptive runs over the same
// step ladder skip even those. The right-hand side comes from the one-wide
// panel step, whose terms all run on the history engine here.
type adaptiveStep struct {
	r     *columnRun
	g     *panelStep
	steps []float64
	cache map[float64]*pencilFactor
}

func (a *adaptiveStep) column(j int, tj float64, tiers *[numTiers]int) (int, error) {
	if _, err := a.g.rhs(j, tj); err != nil {
		return 0, err
	}
	h := a.steps[j]
	fac := a.cache[h]
	if fac == nil {
		msys, err := assembleLeading(a.r.sys, func(k int) float64 { return a.r.dmats[k].At(j, j) })
		if err != nil {
			return 0, err
		}
		if fac, err = factorPencilCached(msys, h, a.r.sys.MaxOrder(), j, tj, &a.r.opt.Options, a.r.rep); err != nil {
			return 0, err
		}
		a.cache[h] = fac
	}
	st := a.g.members[0]
	x := st.x(j)
	if err := fac.solveInto(x, a.g.b.Data()); err != nil {
		d := diag(ErrInternal, j, tj)
		d.Cause = err
		return 0, d
	}
	tiers[fac.tier]++
	a.g.commit(j)
	return 0, st.finish(j, tj, x)
}

func (a *adaptiveStep) group() *panelStep { return a.g }

// AdaptiveOptions configures the on-the-fly step controller.
type AdaptiveOptions struct {
	Options
	// Tol is the local error tolerance per step (relative, default 1e-4).
	Tol float64
	// HMin and HMax bound the step size; defaults are T/1e6 and T/4.
	HMin, HMax float64
	// H0 is the initial step (default HMax/8).
	H0 float64
	// MaxSteps bounds the number of accepted steps (default 100000).
	MaxSteps int
}

// AdaptiveStats reports what the controller did.
type AdaptiveStats struct {
	Accepted int
	Rejected int
	// Retried counts steps re-attempted with a halved h after a
	// factorization or solve failure (also mirrored in SolveReport).
	Retried int
}

// maxStepRetries bounds the consecutive halved-h retries the controller
// attempts after a failed (as opposed to merely rejected) step before giving
// up with the underlying typed error.
const maxStepRetries = 8

// SolveAdaptiveAuto simulates an integer-order system (all term orders 0 or
// 1) over [0, T) choosing the time steps on the fly, the "error control
// mechanism" the paper sketches in §III-B. Each step is solved twice — once
// with h and once as two half-steps — and the difference drives a standard
// step controller; for the order-1 column recurrence both solves share the
// committed history, so the controller needs only O(1) extra state. A step
// whose factorization or solve fails is retried with a halved h up to
// maxStepRetries times before the typed error is surfaced.
func SolveAdaptiveAuto(sys *System, u []waveform.Signal, T float64, opt AdaptiveOptions) (*Solution, *AdaptiveStats, error) {
	return SolveAdaptiveAutoCtx(context.Background(), sys, u, T, opt)
}

// SolveAdaptiveAutoCtx is SolveAdaptiveAuto with cancellation; see SolveCtx
// for the contract.
func SolveAdaptiveAutoCtx(ctx context.Context, sys *System, u []waveform.Signal, T float64, opt AdaptiveOptions) (_ *Solution, _ *AdaptiveStats, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	for _, t := range sys.Terms {
		if !isExactZero(t.Order) && !isExactEq(t.Order, 1) {
			return nil, nil, fmt.Errorf("core: SolveAdaptiveAuto requires orders in {0,1}, found %g (use SolveAdaptive with explicit steps)", t.Order)
		}
	}
	if !isExactZero(sys.BOrder) {
		return nil, nil, fmt.Errorf("core: SolveAdaptiveAuto does not support input order %g", sys.BOrder)
	}
	if T <= 0 {
		return nil, nil, fmt.Errorf("core: SolveAdaptiveAuto requires T > 0")
	}
	if isExactZero(opt.Tol) {
		opt.Tol = 1e-4
	}
	if isExactZero(opt.HMax) {
		opt.HMax = T / 4
	}
	if isExactZero(opt.HMin) {
		opt.HMin = T / 1e6
	}
	if isExactZero(opt.H0) {
		opt.H0 = opt.HMax / 8
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = 100000
	}
	n := sys.N()
	uAt := func(t float64) []float64 {
		v := make([]float64, len(u))
		for c, sig := range u {
			v[c] = sig(t)
		}
		return v
	}
	if len(u) != sys.Inputs() {
		return nil, nil, fmt.Errorf("core: system has %d inputs, got %d signals", sys.Inputs(), len(u))
	}

	// As in SolveAdaptive: run-local L1 keyed by h, optional shared
	// FactorCache behind it, so a halved-h retry ladder the controller has
	// walked before (in this run or a previous one) never refactors.
	maxOrder := sys.MaxOrder()
	cache := map[float64]*pencilFactor{}
	factorFor := func(h, tNow float64) (*pencilFactor, error) {
		if f, ok := cache[h]; ok {
			return f, nil
		}
		msys, err := assembleLeading(sys, func(k int) float64 {
			if isExactEq(sys.Terms[k].Order, 1) {
				return 2 / h
			}
			return 1
		})
		if err != nil {
			return nil, err
		}
		f, err := factorPencilCached(msys, h, maxOrder, -1, tNow, &opt.Options, rep)
		if err != nil {
			return nil, err
		}
		cache[h] = f
		return f, nil
	}

	// solveColumn computes the BPF coefficient for an interval [t, t+h)
	// given the order-1 history vectors s_k (one per order-1 term), without
	// committing them. It returns the coefficient.
	solveColumn := func(t, h float64, s map[int][]float64) ([]float64, error) {
		rhs := make([]float64, n)
		// Interval-average of the input via the midpoint (adequate within
		// the controller's own error tolerance).
		sys.B.MulVecAdd(1, uAt(t+h/2), rhs)
		for k, term := range sys.Terms {
			if isExactEq(term.Order, 1) {
				// rhs −= E·(w/h) where w is the step-independent part of the
				// adaptive history (D̃ off-diagonal entries are ±4/h_j).
				term.Coeff.MulVecAdd(-1/h, s[k], rhs)
			}
		}
		fac, err := factorFor(h, t)
		if err != nil {
			return nil, err
		}
		x := make([]float64, n)
		if err := fac.solveInto(x, rhs); err != nil {
			return nil, err
		}
		rep.TierSolves[fac.tier]++
		return x, nil
	}
	// advance updates the step-independent histories w ← −w − 4·x.
	advance := func(s map[int][]float64, x []float64) {
		for k := range s {
			for i := range s[k] {
				//lint:ignore maporder per-key element-wise update with no cross-key reads; iteration order cannot affect the result
				s[k][i] = -s[k][i] - 4*x[i]
			}
		}
	}
	cloneHist := func(s map[int][]float64) map[int][]float64 {
		c := make(map[int][]float64, len(s))
		for k, v := range s {
			c[k] = append([]float64(nil), v...)
		}
		return c
	}

	hist := map[int][]float64{}
	for k, term := range sys.Terms {
		if isExactEq(term.Order, 1) {
			hist[k] = make([]float64, n)
		}
	}

	var steps []float64
	var cols [][]float64
	stats := &AdaptiveStats{}
	t, h := 0.0, opt.H0
	consecFails := 0
	for t < T {
		if err := ctx.Err(); err != nil {
			d := diag(ErrCancelled, len(steps), t)
			d.Cause = err
			return nil, nil, d
		}
		if len(steps) >= opt.MaxSteps {
			d := diag(ErrNonConvergence, len(steps), t)
			d.Cause = fmt.Errorf("adaptive controller exceeded %d steps (tol too tight?)", opt.MaxSteps)
			return nil, nil, d
		}
		if opt.Fault != nil && opt.Fault.ColumnDelay != nil {
			opt.Fault.ColumnDelay(len(steps))
		}
		if h > T-t {
			h = T - t
		}
		if h < opt.HMin {
			h = opt.HMin
		}
		// The step attempt: one full-h solve and two half-h solves from the
		// same committed history. A failure anywhere is retried with h/2
		// (bounded backoff) before surfacing — a near-singular pencil at one
		// step size is routinely regular at another, because h enters the
		// leading matrix through the 2/h diagonal.
		full, err := solveColumn(t, h, hist)
		var a, b []float64
		if err == nil {
			tmp := cloneHist(hist)
			a, err = solveColumn(t, h/2, tmp)
			if err == nil {
				advance(tmp, a)
				b, err = solveColumn(t+h/2, h/2, tmp)
			}
		}
		if err != nil {
			consecFails++
			if consecFails > maxStepRetries || h <= opt.HMin*1.0000001 {
				return nil, nil, err
			}
			stats.Retried++
			rep.StepRetries++
			h /= 2
			continue
		}
		consecFails = 0
		// The interval average from the refined solve.
		est := 0.0
		scale := 0.0
		for i := 0; i < n; i++ {
			ref := (a[i] + b[i]) / 2
			est += (full[i] - ref) * (full[i] - ref)
			scale += ref * ref
		}
		est = math.Sqrt(est)
		norm := opt.Tol * (1 + math.Sqrt(scale))
		if math.IsNaN(est) {
			d := diag(ErrNonFinite, len(steps), t)
			d.Cause = fmt.Errorf("step error estimate is NaN (poisoned input sample?)")
			return nil, nil, d
		}
		if est <= norm || h <= opt.HMin*1.0000001 {
			// Accept the refined pair as two committed columns (better
			// accuracy at no extra cost — the solves are already done).
			advance(hist, a)
			advance(hist, b)
			steps = append(steps, h/2, h/2)
			cols = append(cols, a, b)
			stats.Accepted++
			rep.Columns += 2
			t += h
		} else {
			stats.Rejected++
		}
		// PI-style update; trapezoidal-order method → exponent 1/3.
		fac := 0.9 * math.Pow(norm/math.Max(est, 1e-300), 1.0/3)
		h *= math.Min(4, math.Max(0.2, fac))
		if h > opt.HMax {
			h = opt.HMax
		}
	}
	ab, err := basis.NewAdaptiveBPF(steps)
	if err != nil {
		return nil, nil, err
	}
	x := mat.NewDense(n, len(steps))
	for j, col := range cols {
		for i, v := range col {
			x.Set(i, j, v)
		}
	}
	return &Solution{sys: sys, bas: ab, x: x}, stats, nil
}
