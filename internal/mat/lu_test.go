package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewDenseFrom(3, 3, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := LUFactor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("LUFactor singular err = %v, want ErrSingular", err)
	}
}

func TestLUFactorInPlaceDetectsSingular(t *testing.T) {
	// Two identical rows: rank deficient, must not silently produce factors.
	a := NewDenseFrom(4, 4, []float64{
		1, 2, 3, 4,
		1, 2, 3, 4,
		0, 1, 0, 0,
		0, 0, 0, 1,
	})
	if _, err := LUFactorInPlace(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("LUFactorInPlace duplicate rows err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := LUFactor(NewDense(2, 3)); err == nil {
		t.Fatal("LUFactor accepted non-square matrix")
	}
}

func TestLUFactorInPlaceRejectsBadShape(t *testing.T) {
	if _, err := LUFactorInPlace(NewDense(3, 2)); err == nil {
		t.Fatal("LUFactorInPlace accepted non-square matrix")
	}
}

// A matrix whose natural leading pivot is zero: only row exchanges make it
// factorable, so this pins the pivoting path of Solve and SolveTranspose.
func TestLUPivotsRowPermutation(t *testing.T) {
	f, err := LUFactor(NewDenseFrom(2, 2, []float64{0, 1, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	// A swaps coordinates, so x = (7, 3) in both orientations.
	for name, x := range map[string][]float64{
		"Solve":          f.Solve([]float64{3, 7}),
		"SolveTranspose": f.SolveTranspose([]float64{3, 7}),
	} {
		if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
			t.Fatalf("%s: x = %v, want (7, 3)", name, x)
		}
	}
	if d := f.Det(); d != -1 {
		t.Fatalf("Det = %g, want -1", d)
	}
}

// Property: Solve produces a residual small relative to the data.
func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomDense(rng, n, n)
		// Make well-conditioned by diagonal boosting.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := randomVec(rng, n)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x, nil)
		for i := range r {
			r[i] -= b[i]
		}
		return Norm2(r) <= 1e-10*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(rng, 5, 5)
	for i := 0; i < 5; i++ {
		a.Add(i, i, 5)
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equalf(Mul(a, inv), Eye(5), 1e-10) {
		t.Fatal("A*A⁻¹ != I")
	}
}

func TestDet(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{3, 1, 4, 2})
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Det = %g, want 2", got)
	}
}

func TestSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDense(rng, 4, 4)
	for i := 0; i < 4; i++ {
		a.Add(i, i, 4)
	}
	b := randomDense(rng, 4, 3)
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveMatrix(b)
	if !Equalf(Mul(a, x), b, 1e-10) {
		t.Fatal("A*X != B")
	}
}

func TestSolveUpper(t *testing.T) {
	u := NewDenseFrom(3, 3, []float64{
		2, 1, 1,
		0, 3, 2,
		0, 0, 4,
	})
	b := []float64{9, 13, 8}
	x, err := SolveUpper(u, append([]float64(nil), b...))
	if err != nil {
		t.Fatal(err)
	}
	r := u.MulVec(x, nil)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-12 {
			t.Fatalf("residual[%d] = %g", i, r[i]-b[i])
		}
	}
}

func TestSolveUpperSingular(t *testing.T) {
	u := NewDenseFrom(2, 2, []float64{1, 2, 0, 0})
	if _, err := SolveUpper(u, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}
