package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/mat"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
)

// TestRowPlanBitwiseIdentical is the load-bearing property of the row plan:
// Factorization.SolveInto and Solve must reproduce the column sweeps of the
// width-1 panel solve bit for bit (Float64bits), on unordered and
// AMD-ordered pencils, with and without refinement, including right-hand
// sides with leading exact zeros (the per-column skip regime of circuit
// solves) and with scattered +0/−0 entries, whose signs only survive through
// the zero-sum recompute.
func TestRowPlanBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := netgen.PowerGrid3D(netgen.DefaultPowerGrid())
	if err != nil {
		t.Fatal(err)
	}
	na, err := g.Netlist.NA()
	if err != nil {
		t.Fatal(err)
	}
	grid768, _, err := core.LeadingPencil(na.Sys, 64, 10e-9)
	if err != nil {
		t.Fatal(err)
	}
	if grid768.R != 768 {
		t.Fatalf("default power grid pencil has %d states, want 768", grid768.R)
	}
	fixtures := []*sparse.CSR{
		sparse.GridCSR(6, 5), // below the ordering threshold
		sparse.RandomSparseSquare(rng, 40, 0.15),
		sparse.GridCSR(16, 16),
		sparse.GridCSR(31, 9),
		sparse.RandomSparseSquare(rng, 120, 0.05),
		sparse.RandomSparseSquare(rng, 64, 0.3),
		grid768,
	}
	negZero := math.Copysign(0, -1)
	for fi, a := range fixtures {
		for _, refine := range []bool{false, true} {
			f, err := sparse.Factor(a, sparse.Options{Refine: refine})
			if err != nil {
				t.Fatalf("fixture %d: %v", fi, err)
			}
			n := a.R
			for trial := 0; trial < 6; trial++ {
				b := make([]float64, n)
				for i := range b {
					switch {
					case trial == 1 && i < n/2:
						// leading zeros: exercise the skip paths
					case trial == 2 && i%3 == 0:
						b[i] = negZero
					case trial == 3 && i%2 == 1:
						b[i] = negZero
					case trial == 4:
						b[i] = negZero // all −0: every row sum is a signed zero
					case trial == 5 && rng.Intn(8) != 0:
						// scattered: one entry in eight nonzero
					default:
						b[i] = rng.NormFloat64()
					}
				}
				assertSolvesBitwise(t, f, b, fmt.Sprintf("fixture %d (n=%d) refine=%v trial %d", fi, n, refine, trial))
			}
		}
	}
}

// TestRowPlanZeroSumRecompute crafts rows whose branch-free sum is −0 − (−0)
// = +0 where the column sweep, skipping the zero source, keeps −0: one in
// the L sweep and one in the U sweep. Only the recompute path gets the sign
// right.
func TestRowPlanZeroSumRecompute(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		a    [][]float64
		b    []float64
	}{
		// L: y₁ = b₁ − l·y₀ with l = −0.5, y₀ = +0, b₁ = −0.
		{"lower", [][]float64{{1, 0}, {-0.5, 1}}, []float64{0, negZero}},
		// U: x₀ = b₀ − u·x₁ with u = −0.5, x₁ = +0, b₀ = −0.
		{"upper", [][]float64{{1, -0.5}, {0, 1}}, []float64{negZero, 0}},
	} {
		coo := sparse.NewCOO(2, 2)
		for i, row := range tc.a {
			for j, v := range row {
				if v != 0 {
					coo.Add(i, j, v)
				}
			}
		}
		f, err := sparse.Factor(coo.ToCSR(), sparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := assertSolvesBitwise(t, f, tc.b, tc.name)
		if !math.Signbit(want[0]) && !math.Signbit(want[1]) {
			t.Fatalf("%s: fixture no longer produces a −0 solution entry: %v", tc.name, want)
		}
	}
}

// assertSolvesBitwise solves b through the width-1 panel solve (the column
// sweeps), SolveInto and Solve, and fails unless all three agree bit for
// bit; it returns the column sweeps' solution.
func assertSolvesBitwise(t *testing.T, f *sparse.Factorization, b []float64, what string) []float64 {
	t.Helper()
	n := len(b)
	bp := mat.NewDense(n, 1)
	copy(bp.Data(), b)
	xp := mat.NewDense(n, 1)
	if err := f.SolvePanelInto(xp, bp, f.NewPanelScratch(1)); err != nil {
		t.Fatal(err)
	}
	want := xp.Data()
	xr := make([]float64, n)
	if err := f.SolveInto(xr, b); err != nil {
		t.Fatal(err)
	}
	xs, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(xr[i]) || math.Float64bits(want[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("%s: x[%d] column sweep %x, SolveInto %x, Solve %x", what, i,
				math.Float64bits(want[i]), math.Float64bits(xr[i]), math.Float64bits(xs[i]))
		}
	}
	return want
}
