package core

import (
	"math"
	"testing"

	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// cubicNL implements g(x) = k·x³ on a scalar state.
type cubicNL struct{ k float64 }

func (c cubicNL) Eval(x, out []float64) {
	out[0] = c.k * x[0] * x[0] * x[0]
}

func (c cubicNL) StampJacobian(x []float64, jac *sparse.COO) {
	jac.Add(0, 0, 3*c.k*x[0]*x[0])
}

// ẋ + x³ = u, step input: steady state solves x³ = 1 → x → 1; compare the
// whole trajectory against a fine backward-Euler integration done here in
// the test.
func TestSolveNonlinearCubic(t *testing.T) {
	sys := &System{
		Terms: []Term{
			{Order: 1, Coeff: scalarCSR(1)},
			{Order: 0, Coeff: scalarCSR(0)},
		},
		B: scalarCSR(1),
	}
	m, T := 1024, 5.0
	var hooked [][]float64
	opt := NonlinearOptions{Options: Options{OnColumn: func(j int, _ float64, x []float64) {
		hooked = append(hooked, append([]float64(nil), x...))
	}}}
	sol, err := SolveNonlinear(sys, cubicNL{k: 1}, []waveform.Signal{waveform.Step(1, 0)}, m, T, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The hook sees every column exactly as the Solution holds it.
	xs := sol.Coefficients()
	if len(hooked) != m {
		t.Fatalf("OnColumn fired %d times, want %d", len(hooked), m)
	}
	for j, col := range hooked {
		for i, v := range col {
			if math.Float64bits(v) != math.Float64bits(xs.At(i, j)) {
				t.Fatalf("hooked column %d state %d = %x, Solution has %x", j, i, math.Float64bits(v), math.Float64bits(xs.At(i, j)))
			}
		}
	}
	// Reference: backward Euler with Newton, 100k steps.
	steps := 100000
	h := T / float64(steps)
	ref := make([]float64, steps+1)
	x := 0.0
	for k := 1; k <= steps; k++ {
		// Solve x + h(x³ − 1) = xPrev by Newton.
		xn := x
		for it := 0; it < 50; it++ {
			f := xn + h*(xn*xn*xn-1) - x
			fp := 1 + 3*h*xn*xn
			d := f / fp
			xn -= d
			if math.Abs(d) < 1e-14 {
				break
			}
		}
		x = xn
		ref[k] = x
	}
	hOPM := T / float64(m)
	for j := 20; j < m; j += 97 {
		tt := (float64(j) + 0.5) * hOPM
		want := ref[int(tt/h)]
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 2e-3 {
			t.Fatalf("x(%g) = %g, want %g", tt, got, want)
		}
	}
	// Steady state.
	if got := sol.StateAt(0, T*0.99); math.Abs(got-1) > 1e-2 {
		t.Fatalf("steady state = %g, want 1", got)
	}
}

// With g ≡ 0 stamped as a zero cubic, the nonlinear solver must agree with
// the linear one exactly.
func TestSolveNonlinearReducesToLinear(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	u := []waveform.Signal{waveform.Sine(1, 0.4, 0.1)}
	m, T := 128, 2.0
	lin, err := Solve(sys, u, m, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := SolveNonlinear(sys, cubicNL{k: 0}, u, m, T, NonlinearOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m; j++ {
		a, b := lin.Coefficients().At(0, j), nl.Coefficients().At(0, j)
		if math.Abs(a-b) > 1e-10 {
			t.Fatalf("column %d: linear %g vs nonlinear %g", j, a, b)
		}
	}
}

// Nonlinear + fractional: dᵅx + x³ = u converges to the same steady state
// x = 1 (the fractional order changes the transient, not the fixed point).
func TestSolveNonlinearFractional(t *testing.T) {
	sys := &System{
		Terms: []Term{
			{Order: 0.5, Coeff: scalarCSR(1)},
			{Order: 0, Coeff: scalarCSR(0)},
		},
		B: scalarCSR(1),
	}
	sol, err := SolveNonlinear(sys, cubicNL{k: 1}, []waveform.Signal{waveform.Step(1, 0)}, 1024, 20, NonlinearOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.StateAt(0, 19.9); math.Abs(got-1) > 5e-2 {
		t.Fatalf("fractional steady state = %g, want 1", got)
	}
}

func TestSolveNonlinearValidation(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	u := []waveform.Signal{waveform.Zero()}
	if _, err := SolveNonlinear(sys, nil, u, 16, 1, NonlinearOptions{}); err == nil {
		t.Fatal("accepted nil nonlinearity")
	}
	opt := NonlinearOptions{}
	opt.X0 = []float64{1}
	if _, err := SolveNonlinear(sys, cubicNL{}, u, 16, 1, opt); err == nil {
		t.Fatal("accepted X0")
	}
}

// explodingNL has no finite solution for the assembled column equation when
// the input is large: g(x) = −x keeps the Jacobian singular at the origin
// with A = +1 cancelling… instead use a Jacobian that is exactly singular.
type singularNL struct{}

func (singularNL) Eval(x, out []float64)                    { out[0] = 0 }
func (singularNL) StampJacobian(x []float64, j *sparse.COO) {}

func TestSolveNonlinearSingularJacobian(t *testing.T) {
	// E = 0, A = 0 with g contributing nothing: every column Jacobian is
	// the zero matrix → factorization must fail loudly.
	sys := &System{
		Terms: []Term{
			{Order: 1, Coeff: scalarCSR(0)},
			{Order: 0, Coeff: scalarCSR(0)},
		},
		B: scalarCSR(1),
	}
	_, err := SolveNonlinear(sys, singularNL{}, []waveform.Signal{waveform.Step(1, 0)}, 4, 1, NonlinearOptions{})
	if err == nil {
		t.Fatal("accepted singular Jacobian")
	}
}

// diodeNL is the classic stiff exponential nonlinearity
// g(v) = Is·(exp(v/Vt) − 1): an undamped Newton step from a cold start
// overshoots into exp overflow, which is exactly what the Armijo damping
// exists to prevent.
type diodeNL struct{ is, vt float64 }

func (d diodeNL) Eval(x, out []float64) {
	out[0] = d.is * (math.Exp(x[0]/d.vt) - 1)
}

func (d diodeNL) StampJacobian(x []float64, jac *sparse.COO) {
	jac.Add(0, 0, d.is/d.vt*math.Exp(x[0]/d.vt))
}

// A diode driven by a 2 A step through a weak conductance: the first Newton
// direction from x = 0 is ≈ 14 V, and exp(14/0.025) overflows. The damped
// solver must converge to the operating point.
func TestSolveNonlinearStiffDiodeDamping(t *testing.T) {
	sys := &System{
		Terms: []Term{
			{Order: 1, Coeff: scalarCSR(1e-3)},
			{Order: 0, Coeff: scalarCSR(0.01)},
		},
		B: scalarCSR(1),
	}
	d := diodeNL{is: 1e-12, vt: 0.025}
	u := []waveform.Signal{waveform.Step(2, 0)}
	m, T := 64, 1.0

	rep := &SolveReport{}
	opt := NonlinearOptions{MaxNewton: 200}
	opt.Report = rep
	sol, err := SolveNonlinear(sys, d, u, m, T, opt)
	if err != nil {
		t.Fatalf("damped Newton failed on the stiff diode: %v", err)
	}
	if rep.NewtonDampings == 0 {
		t.Fatal("expected Armijo halvings on the stiff diode, report shows none")
	}
	// Operating point: 0.01·v + Is·(exp(v/Vt) − 1) = 2, solved here by scalar
	// Newton. (Comparing voltages, not the KCL residual: the exponential
	// amplifies a 1e-3 voltage error into an O(0.1) current residual.)
	vStar := 0.7
	for it := 0; it < 100; it++ {
		f := 0.01*vStar + d.is*(math.Exp(vStar/d.vt)-1) - 2
		fp := 0.01 + d.is/d.vt*math.Exp(vStar/d.vt)
		vStar -= f / fp
	}
	if v := sol.StateAt(0, T*0.99); math.Abs(v-vStar) > 5e-3 {
		t.Fatalf("steady state v = %g, operating point %g", v, vStar)
	}
}
