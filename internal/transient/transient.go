// Package transient implements the classical fixed-step transient analysis
// methods the paper compares OPM against in Table II: backward Euler, the
// trapezoidal rule, and Gear's second-order BDF, all for descriptor systems
// E·ẋ = A·x + B·u.
package transient

import (
	"fmt"
	"math"

	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// Method selects the integration rule.
type Method int

const (
	// BackwardEuler is the first-order implicit Euler rule.
	BackwardEuler Method = iota
	// Trapezoidal is the second-order trapezoidal rule.
	Trapezoidal
	// Gear2 is Gear's second-order backward differentiation formula,
	// bootstrapped with one backward-Euler step.
	Gear2
	// TRBDF2 is the one-step composite trapezoidal/BDF2 method with
	// γ = 2−√2: second-order and L-stable, the workhorse of several
	// commercial circuit simulators. Provided as an extension beyond the
	// paper's comparison set.
	TRBDF2
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case BackwardEuler:
		return "backward-euler"
	case Trapezoidal:
		return "trapezoidal"
	case Gear2:
		return "gear2"
	case TRBDF2:
		return "tr-bdf2"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Options configures the solver.
type Options struct {
	// X0 is the initial state (nil → zero).
	X0 []float64
}

// Result holds the sampled trajectory: column k of X is the state at
// Times[k].
type Result struct {
	Times []float64
	X     *mat.Dense // n × len(Times)
}

// StateRow returns the trajectory of state i as a slice aligned with Times.
func (r *Result) StateRow(i int) []float64 { return r.X.Row(i) }

// At returns the state vector at sample k.
func (r *Result) At(k int) []float64 {
	n := r.X.Rows()
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.X.At(i, k)
	}
	return x
}

// Simulate integrates E·ẋ = A·x + B·u over [0, T] with fixed step h using
// the chosen method. It returns N+1 = round(T/h)+1 samples including t = 0.
func Simulate(e, a, b *sparse.CSR, u []waveform.Signal, T, h float64, method Method, opt Options) (*Result, error) {
	n := e.R
	if e.C != n || a.R != n || a.C != n || b.R != n {
		return nil, fmt.Errorf("transient: dimension mismatch")
	}
	if len(u) != b.C {
		return nil, fmt.Errorf("transient: system has %d inputs, got %d signals", b.C, len(u))
	}
	if T <= 0 || h <= 0 || h > T {
		return nil, fmt.Errorf("transient: invalid span T=%g, h=%g", T, h)
	}
	steps := int(T/h + 0.5)
	res := &Result{Times: make([]float64, steps+1), X: mat.NewDense(n, steps+1)}
	x := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, fmt.Errorf("transient: X0 has length %d, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	}
	for i, v := range x {
		res.X.Set(i, 0, v)
	}
	uAt := func(t float64) []float64 {
		v := make([]float64, len(u))
		for c, sig := range u {
			v[c] = sig(t)
		}
		return v
	}

	rhs := make([]float64, n)
	switch method {
	case BackwardEuler:
		// (E − hA)·x_{k+1} = E·x_k + h·B·u_{k+1}.
		lhs, err := sparse.Factor(sparse.Combine(1, e, -h, a), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("transient: backward Euler matrix singular: %w", err)
		}
		for k := 1; k <= steps; k++ {
			t := float64(k) * h
			for i := range rhs {
				rhs[i] = 0
			}
			e.MulVecAdd(1, x, rhs)
			b.MulVecAdd(h, uAt(t), rhs)
			x, err = lhs.Solve(rhs)
			if err != nil {
				return nil, fmt.Errorf("transient: backward Euler step %d: %w", k, err)
			}
			setCol(res.X, k, x)
			res.Times[k] = t
		}
	case Trapezoidal:
		// (E − h/2·A)·x_{k+1} = (E + h/2·A)·x_k + h/2·B·(u_k + u_{k+1}).
		lhs, err := sparse.Factor(sparse.Combine(1, e, -h/2, a), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("transient: trapezoidal matrix singular: %w", err)
		}
		rmat := sparse.Combine(1, e, h/2, a)
		for k := 1; k <= steps; k++ {
			t := float64(k) * h
			for i := range rhs {
				rhs[i] = 0
			}
			rmat.MulVecAdd(1, x, rhs)
			uk := uAt(t - h)
			uk1 := uAt(t)
			for c := range uk {
				uk[c] = (uk[c] + uk1[c]) * h / 2
			}
			b.MulVecAdd(1, uk, rhs)
			x, err = lhs.Solve(rhs)
			if err != nil {
				return nil, fmt.Errorf("transient: trapezoidal step %d: %w", k, err)
			}
			setCol(res.X, k, x)
			res.Times[k] = t
		}
	case Gear2:
		// (3/2·E − hA)·x_{k+1} = 2E·x_k − 1/2·E·x_{k−1} + h·B·u_{k+1}.
		lhs, err := sparse.Factor(sparse.Combine(1.5, e, -h, a), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("transient: Gear matrix singular: %w", err)
		}
		be, err := sparse.Factor(sparse.Combine(1, e, -h, a), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("transient: Gear bootstrap matrix singular: %w", err)
		}
		xPrev := append([]float64(nil), x...)
		for k := 1; k <= steps; k++ {
			t := float64(k) * h
			for i := range rhs {
				rhs[i] = 0
			}
			if k == 1 {
				e.MulVecAdd(1, x, rhs)
				b.MulVecAdd(h, uAt(t), rhs)
				xNext, err := be.Solve(rhs)
				if err != nil {
					return nil, fmt.Errorf("transient: Gear bootstrap step %d: %w", k, err)
				}
				xPrev, x = x, xNext
			} else {
				e.MulVecAdd(2, x, rhs)
				e.MulVecAdd(-0.5, xPrev, rhs)
				b.MulVecAdd(h, uAt(t), rhs)
				xNext, err := lhs.Solve(rhs)
				if err != nil {
					return nil, fmt.Errorf("transient: Gear step %d: %w", k, err)
				}
				xPrev, x = x, xNext
			}
			setCol(res.X, k, x)
			res.Times[k] = t
		}
	case TRBDF2:
		// Stage 1 (trapezoidal over γh) then stage 2 (BDF2 over the rest):
		//   (E − γh/2·A)·x_γ = (E + γh/2·A)·x_k + γh/2·B·(u_k + u_γ)
		//   (E − β·h·A)·x_{k+1} = c₁·E·x_γ − c₂·E·x_k + β·h·B·u_{k+1}
		// with γ = 2−√2, β = (1−γ)/(2−γ), c₁ = 1/(γ(2−γ)),
		// c₂ = (1−γ)²/(γ(2−γ)).
		gamma := 2 - math.Sqrt2
		beta := (1 - gamma) / (2 - gamma)
		c1 := 1 / (gamma * (2 - gamma))
		c2 := (1 - gamma) * (1 - gamma) / (gamma * (2 - gamma))
		lhs1, err := sparse.Factor(sparse.Combine(1, e, -gamma*h/2, a), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("transient: TR-BDF2 stage-1 matrix singular: %w", err)
		}
		lhs2, err := sparse.Factor(sparse.Combine(1, e, -beta*h, a), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("transient: TR-BDF2 stage-2 matrix singular: %w", err)
		}
		rmat := sparse.Combine(1, e, gamma*h/2, a)
		for k := 1; k <= steps; k++ {
			t := float64(k) * h
			tPrev := t - h
			tGamma := tPrev + gamma*h
			for i := range rhs {
				rhs[i] = 0
			}
			rmat.MulVecAdd(1, x, rhs)
			uk := uAt(tPrev)
			ug := uAt(tGamma)
			for c := range uk {
				uk[c] = (uk[c] + ug[c]) * gamma * h / 2
			}
			b.MulVecAdd(1, uk, rhs)
			xg, err := lhs1.Solve(rhs)
			if err != nil {
				return nil, fmt.Errorf("transient: TR-BDF2 stage-1 step %d: %w", k, err)
			}
			for i := range rhs {
				rhs[i] = 0
			}
			e.MulVecAdd(c1, xg, rhs)
			e.MulVecAdd(-c2, x, rhs)
			b.MulVecAdd(beta*h, uAt(t), rhs)
			x, err = lhs2.Solve(rhs)
			if err != nil {
				return nil, fmt.Errorf("transient: TR-BDF2 stage-2 step %d: %w", k, err)
			}
			setCol(res.X, k, x)
			res.Times[k] = t
		}
	default:
		return nil, fmt.Errorf("transient: unknown method %d", int(method))
	}
	return res, nil
}

func setCol(m *mat.Dense, k int, x []float64) {
	for i, v := range x {
		m.Set(i, k, v)
	}
}

// SampleState linearly interpolates the trajectory of state i at arbitrary
// times within [0, T].
func (r *Result) SampleState(i int, times []float64) []float64 {
	out := make([]float64, len(times))
	for k, t := range times {
		out[k] = interp(r.Times, r.X.Row(i), t)
	}
	return out
}

func interp(ts, vs []float64, t float64) float64 {
	if t <= ts[0] {
		return vs[0]
	}
	last := len(ts) - 1
	if t >= ts[last] {
		return vs[last]
	}
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - ts[lo]) / (ts[hi] - ts[lo])
	return vs[lo] + frac*(vs[hi]-vs[lo])
}
