package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRowPlanBitwiseIdentical is the load-bearing property of the row plan:
// a Supernodal LU must reproduce the column sweeps bit for bit
// (Float64bits), including on right-hand sides with leading exact zeros
// (the per-column skip regime of circuit solves) and with scattered +0/−0
// entries, whose signs only survive through the zero-sum recompute.
func TestRowPlanBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fixtures := []*CSR{
		gridCSR(16, 16),
		gridCSR(31, 9),
		randomSparseSquare(rng, 120, 0.05),
		randomSparseSquare(rng, 64, 0.3),
	}
	negZero := math.Copysign(0, -1)
	for fi, a := range fixtures {
		scalar, err := Factor(a, Options{})
		if err != nil {
			t.Fatalf("fixture %d: %v", fi, err)
		}
		rows, err := Factor(a, Options{Supernodal: true})
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
				default:
					b[i] = rng.NormFloat64()
				}
			}
			assertSolvesBitwise(t, scalar, rows, b, fmt.Sprintf("fixture %d trial %d", fi, trial))
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
		coo := NewCOO(2, 2)
		for i, row := range tc.a {
			for j, v := range row {
				if !isExactZero(v) {
					coo.Add(i, j, v)
				}
			}
		}
		a := coo.ToCSR()
		scalar, err := Factor(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Factor(a, Options{Supernodal: true})
		if err != nil {
			t.Fatal(err)
		}
		if rows.lu.plan == nil {
			t.Fatalf("%s: no row plan", tc.name)
		}
		want := assertSolvesBitwise(t, scalar, rows, tc.b, tc.name)
		if !math.Signbit(want[0]) && !math.Signbit(want[1]) {
			t.Fatalf("%s: fixture no longer produces a −0 solution entry: %v", tc.name, want)
		}
	}
}

// assertSolvesBitwise solves b through both factorizations with SolveInto
// and fails unless the solutions agree bit for bit; it returns the column
// sweep's solution.
func assertSolvesBitwise(t *testing.T, scalar, rows *Factorization, b []float64, what string) []float64 {
	t.Helper()
	n := len(b)
	xs := make([]float64, n)
	xr := make([]float64, n)
	if err := scalar.SolveInto(xs, b); err != nil {
		t.Fatal(err)
	}
	if err := rows.SolveInto(xr, b); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if !bitsEq(xs[i], xr[i]) {
			t.Fatalf("%s: x[%d] column sweep %x row plan %x",
				what, i, math.Float64bits(xs[i]), math.Float64bits(xr[i]))
		}
	}
	return xs
}

// TestSupernodalBuildsRowPlan checks that Options.Supernodal builds the row
// plan (and only then), and that the plan holds every factor entry.
func TestSupernodalBuildsRowPlan(t *testing.T) {
	a := gridCSR(12, 10)
	plain, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.lu.plan != nil {
		t.Fatal("a plan was built without Options.Supernodal")
	}
	f, err := Factor(a, Options{Supernodal: true})
	if err != nil {
		t.Fatal(err)
	}
	p := f.lu.plan
	if p == nil {
		t.Fatal("Supernodal option did not build a plan")
	}
	n := a.R
	if len(p.lp) != n+1 || len(p.up) != n+1 || int(p.lp[n]) != len(f.lu.lx) || int(p.up[n]) != len(f.lu.ux) {
		t.Fatalf("plan shape: lp %d up %d holds %d/%d of %d/%d entries",
			len(p.lp), len(p.up), p.lp[n], p.up[n], len(f.lu.lx), len(f.lu.ux))
	}
	for i := 0; i < n; i++ {
		for k := p.lp[i]; k < p.lp[i+1]; k++ {
			if int(p.lj[k]) >= i || (k > p.lp[i] && p.lj[k] <= p.lj[k-1]) {
				t.Fatalf("L row %d columns not strictly ascending below the diagonal", i)
			}
		}
		for k := p.up[i]; k < p.up[i+1]; k++ {
			if int(p.uj[k]) <= i || (k > p.up[i] && p.uj[k] >= p.uj[k-1]) {
				t.Fatalf("U row %d columns not strictly descending above the diagonal", i)
			}
		}
	}
}

// TestSupernodalizeShareDetachesScratch ensures views of a Supernodal
// factorization solve independently: two shares solving different
// right-hand sides concurrently must not race on solve scratch or on the
// shared row plan.
func TestSupernodalizeShareDetachesScratch(t *testing.T) {
	a := gridCSR(12, 12)
	f, err := Factor(a, Options{Supernodal: true})
	if err != nil {
		t.Fatal(err)
	}
	n := a.R
	b1 := make([]float64, n)
	b2 := make([]float64, n)
	for i := range b1 {
		b1[i] = float64(i + 1)
		b2[i] = float64(n - i)
	}
	want1, err := f.Solve(b1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := f.Solve(b2)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := f.Share(), f.Share()
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	done := make(chan error, 2)
	go func() {
		var err error
		for trial := 0; trial < 50 && err == nil; trial++ {
			err = v1.SolveInto(x1, b1)
		}
		done <- err
	}()
	go func() {
		var err error
		for trial := 0; trial < 50 && err == nil; trial++ {
			err = v2.SolveInto(x2, b2)
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := range want1 {
		if math.Float64bits(want1[i]) != math.Float64bits(x1[i]) || math.Float64bits(want2[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("concurrent view solves diverged at %d", i)
		}
	}
}
