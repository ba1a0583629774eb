package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opmsim/internal/mat"
)

func randomSparseSquare(rng *rand.Rand, n int, density float64) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		// Strong diagonal keeps the matrix comfortably nonsingular.
		coo.Add(i, i, 4+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 2)
	coo.Add(0, 1, 3)
	coo.Add(1, 0, 1)
	coo.Add(1, 0, -1) // cancels to zero, should be dropped
	csr := coo.ToCSR()
	if got := csr.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g, want 5", got)
	}
	if csr.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled entry must be dropped)", csr.NNZ())
	}
}

func TestCOOAddBounds(t *testing.T) {
	coo := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	coo.Add(2, 0, 1)
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSparseSquare(rng, 20, 0.2)
	d := a.ToDense()
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := a.MulVec(x, nil)
	want := d.MulVec(x, nil)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSparseSquare(rng, 15, 0.15)
	at := a.T()
	if !mat.Equalf(at.ToDense(), a.ToDense().T(), 0) {
		t.Fatal("T() mismatch against dense transpose")
	}
}

func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSparseSquare(rng, 12, 0.2)
	b := randomSparseSquare(rng, 12, 0.2)
	got := Combine(2, a, -3, b).ToDense()
	want := mat.Sub(a.ToDense().Scale(2), b.ToDense().Scale(3))
	if !mat.Equalf(got, want, 1e-12) {
		t.Fatal("Combine mismatch against dense computation")
	}
}

func TestCombineCancellation(t *testing.T) {
	a := Identity(3)
	c := Combine(1, a, -1, a)
	if c.NNZ() != 0 {
		t.Fatalf("A - A has %d nonzeros, want 0", c.NNZ())
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSparseSquare(rng, 10, 0.25)
	perm := rng.Perm(10)
	p := a.Permute(perm)
	// Check P·A·Pᵀ elementwise: p[new_i][new_j] == a[perm[new_i]][perm[new_j]].
	for ni := 0; ni < 10; ni++ {
		for nj := 0; nj < 10; nj++ {
			if got, want := p.At(ni, nj), a.At(perm[ni], perm[nj]); got != want {
				t.Fatalf("Permute(%d,%d) = %g, want %g", ni, nj, got, want)
			}
		}
	}
}

func TestIdentityAndAt(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %g", i, j, id.At(i, j))
			}
		}
	}
}

func TestRCMIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSparseSquare(rng, 30, 0.1)
	ord := RCM(a)
	if len(ord) != 30 {
		t.Fatalf("RCM length %d", len(ord))
	}
	seen := make([]bool, 30)
	for _, v := range ord {
		if v < 0 || v >= 30 || seen[v] {
			t.Fatalf("RCM not a permutation: %v", ord)
		}
		seen[v] = true
	}
}

func TestRCMReducesBandwidthOnShuffledBandMatrix(t *testing.T) {
	// Build a tridiagonal matrix, shuffle it, and check RCM restores a
	// small bandwidth.
	n := 50
	rng := rand.New(rand.NewSource(6))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	tri := coo.ToCSR()
	shuffled := tri.Permute(rng.Perm(n))
	before := Bandwidth(shuffled)
	after := Bandwidth(shuffled.Permute(RCM(shuffled)))
	if after > 2 {
		t.Fatalf("RCM bandwidth %d (from %d), want ≤ 2 for a path graph", after, before)
	}
}

func TestFactorLUAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSparseSquare(rng, n, 0.15)
		// Below the ordering threshold Factor is FactorLU(a, 0.1) plus the
		// row plan that solves through it.
		f, err := Factor(a, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := mat.Solve(a.ToDense(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %g, want %g", n, i, x[i], want[i])
			}
		}
	}
}

func TestFactorLUSingular(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	// Row/column 2 empty -> structurally singular.
	coo.Add(2, 2, 0)
	if _, err := FactorLU(coo.ToCSR(), 0.1); err == nil {
		t.Fatal("FactorLU accepted structurally singular matrix")
	}
}

func TestFactorLUNeedsPivoting(t *testing.T) {
	// Zero diagonal forces an off-diagonal pivot.
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	f, err := Factor(coo.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.lu.perm[0] != 1 {
		t.Fatalf("pivot rows %v, want the off-diagonal row 1 first", f.lu.perm)
	}
	x, err := f.Solve([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// A swaps coordinates, so x = (4, 3).
	if math.Abs(x[0]-4) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v, want (4,3)", x)
	}
}

// Property: Factor (with AMD + refinement) solves random diagonally dominant
// systems to high accuracy.
func TestFactorSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a := randomSparseSquare(rng, n, 0.1)
		fac, err := Factor(a, Options{Refine: true})
		if err != nil {
			return false
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want, nil)
		x, err := fac.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorRejectsBadTol(t *testing.T) {
	a := Identity(2)
	if _, err := FactorLU(a, 1.5); err == nil {
		t.Fatal("FactorLU accepted tol > 1")
	}
	if _, err := FactorLU(a, -0.1); err == nil {
		t.Fatal("FactorLU accepted tol < 0")
	}
}

func TestLUSolvePreservesRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSparseSquare(rng, 10, 0.2)
	fac, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 10)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), b...)
	if _, err := fac.Solve(b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != orig[i] {
			t.Fatal("Factorization.Solve modified b")
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomSparseSquare(rng, 8, 0.3)
	if !mat.Equalf(FromDense(a.ToDense()).ToDense(), a.ToDense(), 0) {
		t.Fatal("FromDense/ToDense round trip failed")
	}
}

func TestSolveTransposeAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Cover both the direct path and the AMD-preordered path (n ≥ 64).
	for _, n := range []int{1, 2, 7, 30, 80} {
		a := randomSparseSquare(rng, n, 0.15)
		fac, err := Factor(a, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := fac.SolveTranspose(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := mat.Solve(a.T().ToDense(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %g, want %g", n, i, x[i], want[i])
			}
		}
	}
}

func TestSolveRejectsWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSparseSquare(rng, 5, 0.3)
	fac, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.Solve(make([]float64, 4)); err == nil {
		t.Fatal("Solve accepted a short right-hand side")
	}
	if _, err := fac.SolveTranspose(make([]float64, 6)); err == nil {
		t.Fatal("SolveTranspose accepted a long right-hand side")
	}
	if err := fac.SolveInto(make([]float64, 5), make([]float64, 2)); err == nil {
		t.Fatal("SolveInto accepted a short right-hand side")
	}
	if err := fac.SolveInto(make([]float64, 6), make([]float64, 5)); err == nil {
		t.Fatal("SolveInto accepted a long solution vector")
	}
}

func TestCond1EstDiagonal(t *testing.T) {
	// diag(1, 10⁻⁶) has κ₁ = 10⁶ exactly; Hager's estimator is exact on
	// diagonal matrices.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1e-6)
	fac, err := Factor(coo.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := fac.Cond1Est()
	if math.Abs(got-1e6) > 1 {
		t.Fatalf("Cond1Est = %g, want 1e6", got)
	}
}

func TestCond1EstLowerBoundsAndTracksDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{5, 20, 80} {
		a := randomSparseSquare(rng, n, 0.2)
		fac, err := Factor(a, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		est := fac.Cond1Est()
		// Exact κ₁ via dense inversion.
		inv, err := mat.Inverse(a.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		exact := a.Norm1() * FromDense(inv).Norm1()
		if est > exact*1.0000001 {
			t.Fatalf("n=%d: estimate %g exceeds exact κ₁ = %g", n, est, exact)
		}
		if est < exact/10 {
			t.Fatalf("n=%d: estimate %g more than 10× below exact κ₁ = %g", n, est, exact)
		}
	}
}

// MulAdds counts what the elimination does: a dense n×n matrix without
// cancellation takes Σ_k (n−k−1)² updates and n(n−1)/2 scalings, the
// n³/3 − n/3 of dense LU. A BBD factorization counts its domains, its Schur
// patches and its dense interface LU, so it exceeds both its domains'
// factorizations and the interface's n³/3.
func TestMulAdds(t *testing.T) {
	const n = 8
	f, err := Factor(randomSparseSquare(rand.New(rand.NewSource(5)), n, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.MulAdds(), n*n*n/3-n/3; got != want {
		t.Fatalf("dense %d×%d: %d multiply-adds, want %d", n, n, got, want)
	}
	b, err := FactorBBD(gridCSR(20, 20), BBDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	doms := 0
	for _, dom := range b.doms {
		doms += dom.f.MulAdds()
	}
	if got := b.MulAdds(); got <= doms || got <= b.ni*b.ni*b.ni/3 {
		t.Fatalf("BBD: %d multiply-adds, domains alone %d, interface LU %d", got, doms, b.ni*b.ni*b.ni/3)
	}
}
