package sparse

import (
	"math"
	"testing"
)

// TestFactorBuildsRowPlan checks that every factorization, ordered or not,
// carries a row plan holding every factor entry in sweep order, with the
// pre-ordering folded into its read and write positions.
func TestFactorBuildsRowPlan(t *testing.T) {
	for _, a := range []*CSR{gridCSR(6, 5), gridCSR(12, 10)} {
		f, err := Factor(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := f.plan
		if p == nil {
			t.Fatalf("n=%d: Factor built no row plan", a.R)
		}
		n := a.R
		if (f.ord != nil) != (n >= 64) {
			t.Fatalf("n=%d: pre-ordered %v", n, f.ord != nil)
		}
		if len(p.lp) != n+1 || len(p.up) != n+1 || int(p.lp[n]) != len(f.lu.lx) || int(p.up[n]) != len(f.lu.ux) {
			t.Fatalf("plan shape: lp %d up %d holds %d/%d of %d/%d entries",
				len(p.lp), len(p.up), p.lp[n], p.up[n], len(f.lu.lx), len(f.lu.ux))
		}
		// pos maps a pivot position to its position in x, slot back.
		pos := func(j int) int {
			if f.ord == nil {
				return j
			}
			return f.ord[j]
		}
		slot := make([]int, n) // x position -> pivot position
		for i := 0; i < n; i++ {
			if int(p.out[i]) != pos(i) || int(p.in[i]) != pos(f.lu.perm[i]) {
				t.Fatalf("n=%d: row %d reads %d writes %d", n, i, p.in[i], p.out[i])
			}
			slot[pos(i)] = i
		}
		for i := 0; i < n; i++ {
			for k := p.lp[i]; k < p.lp[i+1]; k++ {
				if j := slot[p.lj[k]]; j >= i || (k > p.lp[i] && j <= slot[p.lj[k-1]]) {
					t.Fatalf("n=%d: L row %d columns not strictly ascending below the diagonal", n, i)
				}
			}
			for k := p.up[i]; k < p.up[i+1]; k++ {
				if j := slot[p.uj[k]]; j <= i || (k > p.up[i] && j >= slot[p.uj[k-1]]) {
					t.Fatalf("n=%d: U row %d columns not strictly descending above the diagonal", n, i)
				}
			}
		}
	}
}

// TestRowPlanShareConcurrentSolves ensures views of one factorization solve
// independently: two shares solving different right-hand sides concurrently,
// with refinement scratch, must not race on it or on the shared row plan.
func TestRowPlanShareConcurrentSolves(t *testing.T) {
	a := gridCSR(12, 12)
	f, err := Factor(a, Options{Refine: true})
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
	done := make(chan error, 3)
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
	go func() {
		// Solve is safe on the shared original while the views run.
		var err error
		for trial := 0; trial < 50 && err == nil; trial++ {
			_, err = f.Solve(b1)
		}
		done <- err
	}()
	for i := 0; i < 3; i++ {
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
