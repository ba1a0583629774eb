package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opmsim/internal/basis"
	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// The integer-order fast history must reproduce the exact operational-matrix
// equation for p = 1, 2, 3 — checked through ResidualNorm, which rebuilds
// E·X·Dᵖ − B·U densely and therefore catches any recurrence error.
func TestIntegerFastHistoryResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 5 + rng.Intn(40)
		p := 1 + rng.Intn(3)
		ec, ac := sparse.NewCOO(n, n), sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			ec.Add(i, i, 1+rng.Float64())
			ac.Add(i, i, 1+rng.Float64())
			if j := rng.Intn(n); j != i {
				ac.Add(i, j, 0.2*rng.NormFloat64())
			}
		}
		bcoo := sparse.NewCOO(n, 1)
		for i := 0; i < n; i++ {
			bcoo.Add(i, 0, rng.NormFloat64())
		}
		sys := &System{
			Terms: []Term{
				{Order: float64(p), Coeff: ec.ToCSR()},
				{Order: 0, Coeff: ac.ToCSR()},
			},
			B: bcoo.ToCSR(),
		}
		u := []waveform.Signal{waveform.Sine(1, 0.25, 0.7)}
		sol, err := Solve(sys, u, m, 0.5+rng.Float64(), Options{})
		if err != nil {
			return false
		}
		res, err := ResidualNorm(sys, sol, u)
		if err != nil {
			return false
		}
		return res < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The p-term recurrence must agree with the naive Toeplitz history sum
// s_j = Σ_{i<j} c_{j−i}·x_i directly, for random column sequences,
// p ∈ {1,2,3} and panel widths 1 and 3 — this pins the recurrence itself,
// independent of any solve.
func TestIntHistoryRecurrenceMatchesToeplitzProperty(t *testing.T) {
	for _, w := range []int{1, 3} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(4)
			m := 5 + rng.Intn(40)
			p := 1 + rng.Intn(3)
			T := 0.5 + rng.Float64()
			bpf, err := basis.NewBPF(m, T)
			if err != nil {
				return false
			}
			c := bpf.DiffCoeffs(float64(p))
			ph := newPanelIntHistory(p, bpf.Step(), n, w)
			var xlags []*mat.Dense // newest first, as panelStep keeps them
			cols := make([]*mat.Dense, m)
			naive := mat.NewDense(n, w)
			for j := 0; j < m; j++ {
				nd := naive.Data()
				for i := range nd {
					nd[i] = 0
				}
				for i := 0; i < j; i++ {
					mat.Axpy(c[j-i], cols[i].Data(), nd)
				}
				s := ph.current(xlags).Data()
				// The recurrence coefficients grow like (2/h)ᵖ·C(p,k); compare
				// relative to the running magnitude.
				scale := 1 + mat.NormInf(nd)
				for i := range s {
					if math.Abs(s[i]-nd[i]) > 1e-10*scale {
						t.Logf("w=%d seed=%d n=%d m=%d p=%d j=%d entry=%d: recurrence %g vs naive %g",
							w, seed, n, m, p, j, i, s[i], nd[i])
						return false
					}
				}
				xj := mat.NewDense(n, w)
				for i, xd := 0, xj.Data(); i < len(xd); i++ {
					xd[i] = rng.NormFloat64()
				}
				cols[j] = xj
				xlags = append([]*mat.Dense{xj}, xlags...)
				if len(xlags) > p {
					xlags = xlags[:p]
				}
				ph.advance()
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
	}
}

// Mixed integer orders (a damped second-order system) must also satisfy the
// matrix equation exactly — all three terms use different history paths.
func TestMixedIntegerOrdersResidual(t *testing.T) {
	sys, err := NewSecondOrder(scalarCSR(1), scalarCSR(0.6), scalarCSR(4), scalarCSR(1))
	if err != nil {
		t.Fatal(err)
	}
	u := []waveform.Signal{waveform.Sine(1, 0.5, 0)}
	sol, err := Solve(sys, u, 48, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResidualNorm(sys, sol, u)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-8 {
		t.Fatalf("mixed-order residual = %g", res)
	}
}
