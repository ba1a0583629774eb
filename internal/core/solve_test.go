package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/specfn"
	"opmsim/internal/waveform"
)

// scalarCSR wraps a single value as a 1×1 sparse matrix.
func scalarCSR(v float64) *sparse.CSR {
	c := sparse.NewCOO(1, 1)
	c.Add(0, 0, v)
	return c.ToCSR()
}

func csrFrom(r, c int, vals []float64) *sparse.CSR {
	return sparse.FromDense(mat.NewDenseFrom(r, c, vals))
}

func TestSolveScalarRCStepResponse(t *testing.T) {
	// τ·ẋ = −x + u with τ = 1: step response x(t) = 1 − e^{−t}.
	sys, err := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	if err != nil {
		t.Fatal(err)
	}
	m, T := 512, 4.0
	sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, m, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// BPF coefficients are interval averages, so compare at solver-grid
	// midpoints where the piecewise-constant readout is O(h²) accurate.
	h := T / float64(m)
	for j := 5; j < m; j += 31 {
		tt := (float64(j) + 0.5) * h
		want := 1 - math.Exp(-tt)
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 2e-4 {
			t.Fatalf("x(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestSolveSineInput(t *testing.T) {
	// ẋ = −x + sin(2πt): analytic particular+homogeneous solution.
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	w := 2 * math.Pi
	sol, err := Solve(sys, []waveform.Signal{waveform.Sine(1, 1, 0)}, 1024, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	den := 1 + w*w
	exact := func(tt float64) float64 {
		return (math.Sin(w*tt)-w*math.Cos(w*tt))/den + w/den*math.Exp(-tt)
	}
	for _, tt := range waveform.UniformTimes(20, 3) {
		if got := sol.StateAt(0, tt); math.Abs(got-exact(tt)) > 3e-3 {
			t.Fatalf("x(%g) = %g, want %g", tt, got, exact(tt))
		}
	}
}

func TestSolveDAEWithAlgebraicConstraint(t *testing.T) {
	// ẋ₁ = −x₁ + u;  0 = 2x₁ − x₂ (singular E).
	e := csrFrom(2, 2, []float64{1, 0, 0, 0})
	a := csrFrom(2, 2, []float64{-1, 0, 2, -1})
	b := csrFrom(2, 1, []float64{1, 0})
	sys, err := NewDAE(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	m, T := 256, 3.0
	sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, m, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := T / float64(m)
	for j := 3; j < m; j += 17 {
		tt := (float64(j) + 0.5) * h
		x1, x2 := sol.StateAt(0, tt), sol.StateAt(1, tt)
		if math.Abs(x2-2*x1) > 1e-9 {
			t.Fatalf("constraint violated at t=%g: x2=%g, 2x1=%g", tt, x2, x1*2)
		}
		want := 1 - math.Exp(-tt)
		if math.Abs(x1-want) > 5e-4 {
			t.Fatalf("x1(%g) = %g, want %g", tt, x1, want)
		}
	}
}

func TestSolveFractionalRelaxation(t *testing.T) {
	// d^½x/dt^½ = −x + u, step input: x(t) = 1 − E_½(−√t).
	sys, err := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	T := 2.0
	sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, 2048, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.25, 0.5, 1.0, 1.5, 1.9} {
		ml, err := specfn.MittagLeffler(0.5, -math.Sqrt(tt))
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - ml
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("fractional x(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestSolveFractionalOtherOrders(t *testing.T) {
	for _, alpha := range []float64{0.3, 0.7, 1.2} {
		sys, err := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), alpha)
		if err != nil {
			t.Fatal(err)
		}
		T := 1.5
		sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, 2048, T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range []float64{0.5, 1.0, 1.4} {
			ml, err := specfn.MittagLeffler(alpha, -math.Pow(tt, alpha))
			if err != nil {
				t.Fatal(err)
			}
			want := 1 - ml
			if got := sol.StateAt(0, tt); math.Abs(got-want) > 3e-2*(1+math.Abs(want)) {
				t.Fatalf("α=%g: x(%g) = %g, want %g", alpha, tt, got, want)
			}
		}
	}
}

func TestSolveSecondOrderOscillator(t *testing.T) {
	// ẍ = −ω²x + u, step input: x = (1 − cos ωt)/ω².
	w := 3.0
	sys := &System{
		Terms: []Term{
			{Order: 2, Coeff: scalarCSR(1)},
			{Order: 0, Coeff: scalarCSR(w * w)},
		},
		B: scalarCSR(1),
	}
	T := 2.0
	sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, 1024, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range waveform.UniformTimes(16, T) {
		want := (1 - math.Cos(w*tt)) / (w * w)
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 5e-3 {
			t.Fatalf("x(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestSolveDampedSecondOrder(t *testing.T) {
	// ẍ + 2ζω·ẋ + ω²x = u (NewSecondOrder path). Underdamped step response.
	w, zeta := 4.0, 0.25
	sys, err := NewSecondOrder(scalarCSR(1), scalarCSR(2*zeta*w), scalarCSR(w*w), scalarCSR(1))
	if err != nil {
		t.Fatal(err)
	}
	T := 3.0
	sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, 2048, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wd := w * math.Sqrt(1-zeta*zeta)
	exact := func(tt float64) float64 {
		return (1 - math.Exp(-zeta*w*tt)*(math.Cos(wd*tt)+zeta*w/wd*math.Sin(wd*tt))) / (w * w)
	}
	for _, tt := range waveform.UniformTimes(16, T) {
		if got := sol.StateAt(0, tt); math.Abs(got-exact(tt)) > 5e-3/(w*w)+2e-3 {
			t.Fatalf("x(%g) = %g, want %g", tt, got, exact(tt))
		}
	}
}

func TestSolveInitialCondition(t *testing.T) {
	// ẋ = −x, x(0) = 1: pure decay.
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	m, T := 512, 3.0
	sol, err := Solve(sys, []waveform.Signal{waveform.Zero()}, m, T, Options{X0: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	h := T / float64(m)
	for j := 0; j < m; j += 37 {
		tt := (float64(j) + 0.5) * h
		want := math.Exp(-tt)
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 3e-4 {
			t.Fatalf("x(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestSolveInitialConditionRejectedForFractional(t *testing.T) {
	sys, _ := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0.5)
	if _, err := Solve(sys, []waveform.Signal{waveform.Zero()}, 16, 1, Options{X0: []float64{1}}); err == nil {
		t.Fatal("Solve accepted X0 for a fractional system")
	}
}

func TestSolveX0LengthMismatch(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	if _, err := Solve(sys, []waveform.Signal{waveform.Zero()}, 16, 1, Options{X0: []float64{1, 2}}); err == nil {
		t.Fatal("Solve accepted wrong-length X0")
	}
}

func TestSolveInputCountMismatch(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	if _, err := Solve(sys, nil, 16, 1, Options{}); err == nil {
		t.Fatal("Solve accepted missing inputs")
	}
	if _, err := Solve(sys, []waveform.Signal{nil}, 16, 1, Options{}); err == nil {
		t.Fatal("Solve accepted nil input signal")
	}
}

func TestSystemValidate(t *testing.T) {
	ok := scalarCSR(1)
	cases := []System{
		{B: ok}, // no terms
		{Terms: []Term{{Order: 0, Coeff: ok}}, B: ok},                                   // purely algebraic
		{Terms: []Term{{Order: -1, Coeff: ok}}, B: ok},                                  // negative order
		{Terms: []Term{{Order: 1, Coeff: nil}}, B: ok},                                  // nil coeff
		{Terms: []Term{{Order: 1, Coeff: ok}}},                                          // nil B
		{Terms: []Term{{Order: 1, Coeff: csrFrom(2, 2, []float64{1, 0, 0, 1})}}, B: ok}, // dim mismatch
	}
	for i := range cases {
		if err := cases[i].Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted invalid system", i)
		}
	}
}

func TestNewFDERejectsNonPositiveAlpha(t *testing.T) {
	if _, err := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0); err == nil {
		t.Fatal("NewFDE accepted α=0")
	}
}

func TestWithOutput(t *testing.T) {
	e := csrFrom(2, 2, []float64{1, 0, 0, 1})
	a := csrFrom(2, 2, []float64{-1, 0, 0, -2})
	b := csrFrom(2, 1, []float64{1, 1})
	sys, _ := NewDAE(e, a, b)
	c := csrFrom(1, 2, []float64{1, -1})
	sysC, err := sys.WithOutput(c)
	if err != nil {
		t.Fatal(err)
	}
	if sysC.Outputs() != 1 {
		t.Fatalf("Outputs = %d, want 1", sysC.Outputs())
	}
	sol, err := Solve(sysC, []waveform.Signal{waveform.Step(1, 0)}, 256, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := sol.OutputAt(1.0)
	want := (1 - math.Exp(-1)) - (1-math.Exp(-2))/2
	if math.Abs(y[0]-want) > 5e-3 {
		t.Fatalf("y(1) = %g, want %g", y[0], want)
	}
	badC := csrFrom(1, 3, []float64{1, 1, 1})
	if _, err := sys.WithOutput(badC); err == nil {
		t.Fatal("WithOutput accepted mismatched C")
	}
}

// Property: the OPM solution satisfies the operational-matrix equation to
// machine precision on random stable multi-term systems.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 4 + rng.Intn(24)
		// Random stable-ish system: E diag-dominant, A with negative diag.
		ec, ac := sparse.NewCOO(n, n), sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			ec.Add(i, i, 1+rng.Float64())
			ac.Add(i, i, -1-rng.Float64())
			if j := rng.Intn(n); j != i {
				ac.Add(i, j, 0.3*rng.NormFloat64())
			}
		}
		bcoo := sparse.NewCOO(n, 1)
		for i := 0; i < n; i++ {
			bcoo.Add(i, 0, rng.NormFloat64())
		}
		alpha := []float64{0.5, 1, 1.5, 2}[rng.Intn(4)]
		sys := &System{
			Terms: []Term{
				{Order: alpha, Coeff: ec.ToCSR()},
				{Order: 0, Coeff: ac.ToCSR().Scale(-1)},
			},
			B: bcoo.ToCSR(),
		}
		u := []waveform.Signal{waveform.Sine(1, 0.3, 0.2)}
		sol, err := Solve(sys, u, m, 1+rng.Float64(), Options{})
		if err != nil {
			return false
		}
		res, err := ResidualNorm(sys, sol, u)
		if err != nil {
			return false
		}
		return res < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The order-1 fast path and the generic full-history path must agree: solve
// the same DAE as order 1 (fast recurrence) and as order 1+0ε via a Term
// list forcing the slow path, by comparing against a full-history fractional
// solve with α exactly 1.
func TestFastPathMatchesFullHistory(t *testing.T) {
	e := csrFrom(2, 2, []float64{1, 0, 0, 1})
	a := csrFrom(2, 2, []float64{-2, 1, 0.5, -3})
	b := csrFrom(2, 1, []float64{1, 2})
	u := []waveform.Signal{waveform.Sine(1, 0.5, 0)}
	m, T := 64, 2.0

	fast, err := NewDAE(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	fastSol, err := Solve(fast, u, m, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same system via NewFDE with α = 1 — NewFDE uses the same Term layout,
	// so force the slow path with a custom term of order 1 wrapped as a
	// "fractional" term by building the system manually with order 1 but
	// relying on SolveAdaptive (dense D̃) instead.
	steps := make([]float64, m)
	for i := range steps {
		steps[i] = T / float64(m)
	}
	adSol, err := SolveAdaptive(fast, u, steps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalf(fastSol.Coefficients(), adSol.Coefficients(), 1e-8*(1+fastSol.Coefficients().MaxAbs())) {
		t.Fatal("fast-path uniform solve disagrees with dense adaptive solve on equal steps")
	}
}

// Allocation regression for the solveInto chain: the main column loop reuses
// the factorization scratch, the RHS/input buffers, the column slab, and the
// integer-history ring, so the solver's allocation count is O(1) in the
// number of columns — buffers get larger on a bigger grid, but there are not
// more of them. An 8× grid growth is allowed only a small constant slack
// (map/slice resizes inside setup code), far below the ~m allocations the
// pre-optimization loop performed.
func TestSolveAllocsIndependentOfColumns(t *testing.T) {
	sys, err := NewSecondOrder(scalarCSR(1), scalarCSR(0.6), scalarCSR(4), scalarCSR(1))
	if err != nil {
		t.Fatal(err)
	}
	u := []waveform.Signal{waveform.Sine(1, 0.5, 0)}
	allocsAt := func(m int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Solve(sys, u, m, 2, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocsAt(256)
	large := allocsAt(2048)
	if large > small+32 {
		t.Fatalf("allocations grew with columns: m=256 → %.0f, m=2048 → %.0f (want ≤ +32)", small, large)
	}

	// A fractional Solve (a one-wide panel step whose history engine fills
	// its term panels) and a fractional SolveBatch of five scenarios, on
	// both engines: the exact engine folds on every column, the FFT engine
	// fires a segment every 64 columns through its one task list. At
	// Workers 2 the Solve's firings fan out over the pool, and the batch,
	// one group per scenario, runs its groups on the pool every column
	// while the calling goroutine does the previous column's post work.
	fsys, fu := fracTestSystem(6, 4)
	fscs := []Scenario{{U: fu}, {U: fu}, {U: fu}, {U: fu}, {U: fu}}
	for _, opt := range []Options{{HistoryMode: HistoryExact}, {HistoryMode: HistoryFFT, Workers: 1}, {HistoryMode: HistoryFFT, Workers: 2}} {
		for _, k := range []int{1, len(fscs)} {
			width := 0
			if opt.Workers == 2 {
				width = 1
			}
			fracAllocsAt := func(m int) float64 {
				return testing.AllocsPerRun(5, func() {
					if k == 1 {
						if _, err := Solve(fsys, fu, m, 2, opt); err != nil {
							t.Fatal(err)
						}
					} else if _, err := SolveBatch(fsys, fscs[:k], m, 2, BatchOptions{Options: opt, PanelWidth: width}); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := fracAllocsAt(256), fracAllocsAt(2048)
			if large > small+32 {
				t.Fatalf("fractional %s at Workers %d, %d scenario(s), panel width %d: allocations grew with columns: m=256 → %.0f, m=2048 → %.0f (want ≤ +32)",
					opt.HistoryMode, opt.Workers, k, width, small, large)
			}
		}
	}

	// The parameter-varying batch on an integer-order system, streamed
	// through OnColumn with DiscardSolutions: one panel group of nine
	// scenarios (rank-1 rhs corrections and Woodbury corrections on the
	// panel step), then one SMW scenario alone (a one-wide panel step).
	isys, iu := intTestSystem(12, 9)
	scs := intDeltaScenarios(isys, iu, 9, 23, false)
	for _, k := range []int{9, 1} {
		batchAllocsAt := func(m int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := SolveBatch(isys, scs[len(scs)-k:], m, 2, BatchOptions{
					UpdateRankLimit: 64, DiscardSolutions: true,
					OnColumn: func(int, float64, [][]float64) {},
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := batchAllocsAt(256), batchAllocsAt(2048)
		if large > small+32 {
			t.Fatalf("%d-scenario param batch: allocations grew with columns: m=256 → %.0f, m=2048 → %.0f (want ≤ +32)", k, small, large)
		}
	}
}

func TestSampleOutputsAndStates(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	sol, err := Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, 64, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := waveform.UniformTimes(10, 1)
	ys := sol.SampleOutputs(ts)
	xs := sol.SampleStates(ts)
	if len(ys) != 1 || len(xs) != 1 || len(ys[0]) != 10 {
		t.Fatal("sampling shapes wrong")
	}
	for k := range ts {
		if ys[0][k] != xs[0][k] {
			t.Fatal("identity output differs from state")
		}
	}
	if s := sol.String(); s == "" {
		t.Fatal("empty String()")
	}
}
