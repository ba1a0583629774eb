package core

import (
	"math/rand"
	"testing"

	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// fracTestSystem builds an n-state mixed-order system with two fractional
// terms (no recurrence fast path) plus integer terms, diagonally dominant so
// the leading matrix is comfortably factorable.
func fracTestSystem(n int, seed int64) (*System, []waveform.Signal) {
	rng := rand.New(rand.NewSource(seed))
	diag := func(base float64) *sparse.CSR {
		c := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, base+0.1*rng.Float64())
			if j := rng.Intn(n); j != i {
				c.Add(i, j, 0.05*rng.NormFloat64())
			}
		}
		return c.ToCSR()
	}
	bcoo := sparse.NewCOO(n, 1)
	for i := 0; i < n; i++ {
		bcoo.Add(i, 0, rng.NormFloat64())
	}
	sys := &System{
		Terms: []Term{
			{Order: 0.55, Coeff: diag(1)},
			{Order: 1.3, Coeff: diag(0.5)},
			{Order: 1, Coeff: diag(0.3)},
			{Order: 0, Coeff: diag(1)},
		},
		B: bcoo.ToCSR(),
	}
	return sys, []waveform.Signal{waveform.Sine(1, 0.8, 0.3)}
}

func sameDense(t *testing.T, name string, a, b *mat.Dense) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("%s: X[%d][%d] differs: %.17g vs %.17g", name, i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// Default-mode solves below the FFT crossover must reproduce the reference
// ascending fold (HistoryExact) bit for bit, for every worker count.
func TestHistoryEngineMatchesNaiveBitwise(t *testing.T) {
	sys, u := fracTestSystem(5, 11)
	for _, m := range []int{1, 63, 64, 65, 200, 257} {
		ref, err := Solve(sys, u, m, 2, Options{HistoryMode: HistoryExact})
		if err != nil {
			t.Fatalf("m=%d exact: %v", m, err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := Solve(sys, u, m, 2, Options{Workers: workers})
			if err != nil {
				t.Fatalf("m=%d workers=%d: %v", m, workers, err)
			}
			sameDense(t, "default vs exact", got.Coefficients(), ref.Coefficients())
		}
	}
}

// SolveAdaptive's general-history path (dense adaptive operational
// matrices) must be equally deterministic across worker counts.
func TestSolveAdaptiveParallelDeterministic(t *testing.T) {
	sys, u := fracTestSystem(4, 7)
	// Pairwise-distinct steps (eq. 25's eigendecomposition requirement).
	steps := make([]float64, 72)
	h := 0.01
	for i := range steps {
		steps[i] = h
		h *= 1.015
	}
	ref, err := SolveAdaptive(sys, u, steps, Options{HistoryMode: HistoryExact})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := SolveAdaptive(sys, u, steps, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameDense(t, "adaptive workers vs exact", got.Coefficients(), ref.Coefficients())
	}
}

// A zero Options{} must behave exactly as the seed solver did: the engine
// defaults (Workers auto, HistoryAuto below the crossover) reproduce the
// reference history loop bit for bit, and the integer-order fast path is
// untouched.
func TestZeroOptionsUnchangedFromSeed(t *testing.T) {
	sys, u := fracTestSystem(5, 3)
	seed, err := Solve(sys, u, 150, 2, Options{HistoryMode: HistoryExact})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(sys, u, 150, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameDense(t, "zero Options vs seed history", got.Coefficients(), seed.Coefficients())

	// Integer orders use the recurrence fast path; Workers must not matter.
	isys, err := NewSecondOrder(scalarCSR(1), scalarCSR(0.6), scalarCSR(4), scalarCSR(1))
	if err != nil {
		t.Fatal(err)
	}
	iu := []waveform.Signal{waveform.Sine(1, 0.5, 0)}
	iref, err := Solve(isys, iu, 96, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	igot, err := Solve(isys, iu, 96, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameDense(t, "integer fast path", igot.Coefficients(), iref.Coefficients())
}

// The nonlinear solver shares the history engine; its fractional results
// must also be independent of the worker count.
func TestSolveNonlinearParallelDeterministic(t *testing.T) {
	n := 3
	sys, u := fracTestSystem(n, 19)
	g := &vecCubicNL{c: 0.2}
	ref, err := SolveNonlinear(sys, g, u, 130, 2, NonlinearOptions{Options: Options{HistoryMode: HistoryExact}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := SolveNonlinear(sys, g, u, 130, 2, NonlinearOptions{Options: Options{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameDense(t, "nonlinear workers vs exact", got.Coefficients(), ref.Coefficients())
	}
}

// vecCubicNL is g(x)_i = c·x_i³, a smooth vector test nonlinearity.
type vecCubicNL struct{ c float64 }

func (g *vecCubicNL) Eval(x, out []float64) {
	for i, v := range x {
		out[i] = g.c * v * v * v
	}
}

func (g *vecCubicNL) StampJacobian(x []float64, jac *sparse.COO) {
	for i, v := range x {
		jac.Add(i, i, 3*g.c*v*v)
	}
}
