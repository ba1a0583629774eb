package core

import (
	"math"
	"math/rand"
	"testing"

	"opmsim/internal/faultinject"
	"opmsim/internal/mat"
	"opmsim/internal/sparse"
)

// gridPencil is the 5-point Laplacian of a k×k grid plus a diagonal shift: a
// well-conditioned pencil that nested dissection splits into domains.
func gridPencil(k int) *sparse.CSR {
	coo := sparse.NewCOO(k*k, k*k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			i := r*k + c
			coo.Add(i, i, 4.5)
			if c+1 < k {
				coo.Add(i, i+1, -1)
				coo.Add(i+1, i, -1)
			}
			if r+1 < k {
				coo.Add(i, i+k, -1)
				coo.Add(i+k, i, -1)
			}
		}
	}
	return coo.ToCSR()
}

// The width-1 rule sends a one-column panel to the tier's scalar kernel. It
// is sound because the panel kernels are column-wise bitwise-identical to the
// scalar solve on every tier: a one-column panel and column 0 of a
// two-column panel must both match solveInto bit for bit.
func TestSolvePanelWidthOneMatchesScalar(t *testing.T) {
	a := gridPencil(20)
	n := a.R
	rng := rand.New(rand.NewSource(7))
	b := mat.NewDense(n, 2)
	for i, bd := 0, b.Data(); i < len(bd); i++ {
		bd[i] = rng.NormFloat64()
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = b.At(i, 0)
	}
	b1 := mat.NewDense(n, 1)
	copy(b1.Data(), rhs)
	failBelow := func(tiers ...int) *faultinject.Hooks { return faultinject.FailFactorAt(-1, tiers...) }
	cases := []struct {
		tier Tier
		opt  Options
	}{
		{TierSupernodal, Options{Supernodal: 1}},
		{TierSparseLU, Options{Supernodal: -1}},
		{TierDenseLU, Options{Supernodal: -1, Fault: failBelow(faultinject.TierSparseLU)}},
		{TierQR, Options{Supernodal: -1, Fault: failBelow(faultinject.TierSparseLU, faultinject.TierDenseLU)}},
	}
	for _, tc := range cases {
		t.Run(tc.tier.String(), func(t *testing.T) {
			pf, err := factorPencil(a, -1, 0, &tc.opt, &SolveReport{})
			if err != nil {
				t.Fatal(err)
			}
			if pf.tier != tc.tier {
				t.Fatalf("factorization landed on %s", pf.tier)
			}
			want := make([]float64, n)
			if err := pf.solveInto(want, rhs); err != nil {
				t.Fatal(err)
			}
			x1, x2 := mat.NewDense(n, 1), mat.NewDense(n, 2)
			if err := pf.solvePanelInto(x1, b1, pf.newPanelScratch(1)); err != nil {
				t.Fatal(err)
			}
			if err := pf.solvePanelInto(x2, b, pf.newPanelScratch(2)); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if math.Float64bits(x1.At(i, 0)) != math.Float64bits(w) || math.Float64bits(x2.At(i, 0)) != math.Float64bits(w) {
					t.Fatalf("state %d: panel %x / %x, scalar %x",
						i, math.Float64bits(x1.At(i, 0)), math.Float64bits(x2.At(i, 0)), math.Float64bits(w))
				}
			}
		})
	}
}
