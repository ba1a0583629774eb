package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"opmsim/internal/basis"
	"opmsim/internal/mat"
	"opmsim/internal/waveform"
)

// SolveAdaptive simulates the system on the caller-supplied non-uniform time
// steps, using the adaptive-step operational matrices of §III-B/§IV
// (eqs. 17, 25). The per-column system matrix M_j = Σ_k D̃ᵅᵏ[j][j]·E_k depends
// on the column only through h_j, so a schedule of a few distinct steps pays
// for that many factorizations. D̃ is the pattern 2·(1, −2, 2, …) with
// column j scaled by 1/h_j, so an order-1 term steps the §III-A recurrence
// on w_j = h_j·s_j; only fractional and p ≥ 2 terms build a dense D̃ᵅ for
// the history engine's exact fold. For non-integer orders the steps must be
// pairwise distinct (eq. 25's eigendecomposition requirement).
func SolveAdaptive(sys *System, u []waveform.Signal, steps []float64, opt Options) (*Solution, error) {
	return SolveAdaptiveCtx(context.Background(), sys, u, steps, opt)
}

// SolveAdaptiveCtx is SolveAdaptive with cancellation; see SolveCtx for the
// contract.
func SolveAdaptiveCtx(ctx context.Context, sys *System, u []waveform.Signal, steps []float64, opt Options) (_ *Solution, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
	r, err := newAdaptiveRun(ctx, sys, opt, rep, len(steps))
	if err != nil {
		return nil, err
	}
	ab, err := basis.NewAdaptiveBPF(steps)
	if err != nil {
		return nil, err
	}
	r.bas = ab
	if !isExactZero(sys.BOrder) {
		if r.bmat, err = ab.DiffMatrixAlpha(sys.BOrder); err != nil {
			return nil, fmt.Errorf("core: input order %g: %w", sys.BOrder, err)
		}
	}
	// The adaptive-grid D̃ᵅ has no Toeplitz structure, so engine terms run
	// through the exact tier's ascending fold whatever Options.HistoryMode
	// says (the mode is still validated).
	for k, t := range sys.Terms {
		if onEngine(t.Order, true) {
			if r.dmats[k], err = ab.DiffMatrixAlpha(t.Order); err != nil {
				return nil, fmt.Errorf("core: term %d (order %g): %w", k, t.Order, err)
			}
		}
	}
	for j, h := range steps {
		r.times[j] = r.T + h/2
		r.T += h
	}
	uc, err := r.inputs(u)
	if err != nil {
		return nil, err
	}
	return r.solveOne(uc, (&adaptiveStep{r: r, steps: steps}).attach)
}

// newAdaptiveRun validates sys and the options shared by both adaptive
// solvers and builds a run over m adaptive-grid columns.
func newAdaptiveRun(ctx context.Context, sys *System, opt Options, rep *SolveReport, m int) (*columnRun, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if _, err := opt.historyFFTEnabled(m); err != nil {
		return nil, err
	}
	return &columnRun{ctx: ctx, opt: single(opt), rep: rep, sys: sys, n: sys.N(), m: m, h: 1,
		times: make([]float64, m), dmats: make([]*mat.Dense, len(sys.Terms))}, nil
}

// adaptiveStep is the driver step of both adaptive solvers: column j is
// solved for its step h_j on a one-wide panel step's right-hand side,
// through factorizations cached by step size (the run-local map, and behind
// it the optional Options.FactorCache), so that a step ladder or the
// controller's halved-h retries pay for each distinct h once. Under
// SolveAdaptiveAuto the step controller places the grid as it goes (place).
type adaptiveStep struct {
	r     *columnRun
	g     *panelStep
	steps []float64 // h_j of the columns placed so far
	cache map[float64]*pencilFactor
	// The controller; auto is nil on a caller-fixed grid.
	auto  *AdaptiveOptions
	u     []waveform.Signal // sampled at each trial interval's midpoint
	t, h  float64           // start of the column pair being placed, and its trial step
	fails int               // consecutive failed trials
	stats AdaptiveStats
	full  []float64 // the whole-step trial's solution
}

func (a *adaptiveStep) attach(g *panelStep) columnStep {
	a.g, a.cache = g, map[float64]*pencilFactor{}
	return a
}

func (a *adaptiveStep) group() *panelStep { return a.g }

// lead is term k's coefficient in the leading matrix of column j for step h:
// 1 for order 0, 2/h for order 1, D̃ᵅ[j][j] otherwise.
func (a *adaptiveStep) lead(k, j int, h float64) float64 {
	switch d := a.r.dmats[k]; {
	case d != nil:
		return d.At(j, j)
	case isExactZero(a.r.sys.Terms[k].Order):
		return 1
	}
	return 2 / h
}

// solve builds column j's right-hand side for step h and solves it into x.
// tj is the interval's midpoint, where SolveAdaptiveAuto samples its inputs.
func (a *adaptiveStep) solve(j int, tj, h float64, x []float64, tiers *[numTiers]int) error {
	g := a.g
	g.h = h
	for c, sig := range a.u {
		g.uP.Row(c)[0] = sig(tj)
	}
	if _, err := g.rhs(j, tj); err != nil {
		return err
	}
	fac := a.cache[h]
	if fac == nil {
		msys, err := assembleLeading(a.r.sys, func(k int) float64 { return a.lead(k, j, h) })
		if err != nil {
			return err
		}
		if fac, err = factorPencilCached(msys, h, a.r.sys.MaxOrder(), j, tj, &a.r.opt.Options, a.r.rep); err != nil {
			return err
		}
		a.cache[h] = fac
	}
	if err := fac.solveInto(x, g.b.Data()); err != nil {
		d := diag(ErrInternal, j, tj)
		d.Cause = err
		return d
	}
	tiers[fac.tier]++
	return nil
}

func (a *adaptiveStep) column(j int, tj float64, tiers *[numTiers]int) (int, error) {
	st := a.g.members[0]
	switch {
	case a.auto == nil:
		if err := a.solve(j, tj, a.steps[j], st.x(j), tiers); err != nil {
			return 0, err
		}
		a.g.commit(j)
	case j%2 == 0:
		// place commits column j, and leaves column j+1 solved.
		if err := a.place(j, tiers); err != nil {
			return 0, err
		}
		tj = a.r.times[j] // the accepted midpoint
	default:
		a.g.commit(j)
	}
	return 0, st.finish(j, tj, st.x(j))
}

// place runs the controller's trials from the grid end t until one is
// accepted: the whole step h, then the halves into columns j and j+1, the
// first committed so that the second can be solved, and taken back when the
// trial is rejected or fails. A failed trial is retried with a halved h up
// to maxStepRetries times: h enters the leading matrix through the 2/h
// diagonal, so a near-singular pencil at one step size is routinely regular
// at another. On acceptance it extends the run's grid by the two columns
// and, while the grid falls short of T, by the next column to place.
func (a *adaptiveStep) place(j int, tiers *[numTiers]int) error {
	r, st, opt := a.r, a.g.members[0], a.auto
	if j >= opt.MaxSteps {
		d := diag(ErrNonConvergence, j, a.t)
		d.Cause = fmt.Errorf("adaptive controller exceeded %d steps (tol too tight?)", opt.MaxSteps)
		return d
	}
	st.xbuf = slices.Grow(st.xbuf, 2*r.n)[:(j+2)*r.n]
	xa, xb := st.x(j), st.x(j+1)
	for {
		t, h := a.t, a.h
		hh := h / 2
		err := a.solve(j, t+h/2, h, a.full, tiers)
		if err == nil {
			err = a.solve(j, t+hh/2, hh, xa, tiers)
		}
		if err == nil {
			a.g.commit(j)
			if err = a.solve(j+1, t+h/2+hh/2, hh, xb, tiers); err != nil {
				a.g.retreat()
			}
		}
		if err != nil {
			if a.fails++; a.fails > maxStepRetries || h <= opt.HMin*1.0000001 {
				return err
			}
			a.stats.Retried++
			r.rep.StepRetries++
			a.setStep(h / 2)
			continue
		}
		a.fails = 0
		// The interval average from the refined solve.
		est, scale := 0.0, 0.0
		for i := range xa {
			ref := (xa[i] + xb[i]) / 2
			est += (a.full[i] - ref) * (a.full[i] - ref)
			scale += ref * ref
		}
		est = math.Sqrt(est)
		norm := opt.Tol * (1 + math.Sqrt(scale))
		if math.IsNaN(est) {
			d := diag(ErrNonFinite, j, t)
			d.Cause = fmt.Errorf("step error estimate is NaN (poisoned input sample?)")
			return d
		}
		accept := est <= norm || h <= opt.HMin*1.0000001
		if accept {
			a.stats.Accepted++
			a.t += h
			a.steps = append(a.steps, hh, hh)
			r.times = append(r.times[:j], t+hh/2, t+h/2+hh/2)
		} else {
			a.stats.Rejected++
			a.g.retreat()
		}
		// PI-style update; trapezoidal-order method → exponent 1/3.
		fac := 0.9 * math.Pow(norm/math.Max(est, 1e-300), 1.0/3)
		a.setStep(min(h*math.Min(4, math.Max(0.2, fac)), opt.HMax))
		if !accept {
			continue
		}
		if a.t < r.T {
			r.times = append(r.times, a.t+a.h/4)
		} else if r.bas, err = basis.NewAdaptiveBPF(a.steps); err != nil {
			return err
		}
		r.m = len(r.times)
		return nil
	}
}

// setStep sets the next trial step: h clamped to the rest of the span, then
// to at least HMin.
func (a *adaptiveStep) setStep(h float64) {
	a.h = max(min(h, a.r.T-a.t), a.auto.HMin)
}

// AdaptiveOptions configures the on-the-fly step controller.
type AdaptiveOptions struct {
	Options
	// Tol is the local error tolerance per step (relative, default 1e-4).
	Tol float64
	// HMin and HMax bound the step size; defaults are T/1e6 and T/4.
	HMin, HMax float64
	// H0 is the initial step (default HMax/8).
	H0 float64
	// MaxSteps bounds the number of columns, two per accepted step
	// (default 100000).
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
// step controller; the order-1 recurrence is independent of the steps, so
// all three solves share the committed history. A step whose factorization
// or solve fails is retried with a halved h up to maxStepRetries times
// before the typed error is surfaced. The column driver runs the grid as
// the controller places it, with SolveAdaptive's per-column protocol:
// Options.OnColumn, the fault hooks, the non-finite screen and X0.
func SolveAdaptiveAuto(sys *System, u []waveform.Signal, T float64, opt AdaptiveOptions) (*Solution, *AdaptiveStats, error) {
	return SolveAdaptiveAutoCtx(context.Background(), sys, u, T, opt)
}

// SolveAdaptiveAutoCtx is SolveAdaptiveAuto with cancellation; see SolveCtx
// for the contract.
func SolveAdaptiveAutoCtx(ctx context.Context, sys *System, u []waveform.Signal, T float64, opt AdaptiveOptions) (_ *Solution, _ *AdaptiveStats, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
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
	// The run starts with one column, the one the controller places first.
	r, err := newAdaptiveRun(ctx, sys, opt.Options, rep, 1)
	if err != nil {
		return nil, nil, err
	}
	if len(u) != sys.Inputs() {
		return nil, nil, fmt.Errorf("core: system has %d inputs, got %d signals", sys.Inputs(), len(u))
	}
	r.T = T
	a := &adaptiveStep{r: r, auto: &opt, u: u, full: make([]float64, r.n)}
	a.setStep(opt.H0)
	r.times[0] = a.h / 4
	sol, err := r.solveOne(nil, a.attach)
	if err != nil {
		return nil, nil, err
	}
	return sol, &a.stats, nil
}
