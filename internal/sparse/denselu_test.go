package sparse

import (
	"math"
	"math/rand"
	"testing"

	"opmsim/internal/mat"
)

func randomDense(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += 5 // comfortably nonsingular but still exercising pivoting
			}
			d[i*n+j] = v
		}
	}
	return d
}

func TestFactorSchurSolveMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sizes straddle the panel width: below, at, between and above multiples.
	for _, n := range []int{1, 3, 31, 32, 33, 70, 129} {
		d := randomDense(rng, n)
		ref := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ref.Set(i, j, d[i*n+j])
			}
		}
		f, err := factorSchur(d, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.solveInto(x, b)
		res := ref.MulVec(x, nil)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
				t.Fatalf("n=%d: residual %g at row %d", n, res[i]-b[i], i)
			}
		}
		// Transpose solve: Aᵀ·y = b ⇔ yᵀ·A = bᵀ.
		y := make([]float64, n)
		f.solveTransposeInto(y, b)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += y[i] * ref.At(i, j)
			}
			if math.Abs(s-b[j]) > 1e-9*(1+math.Abs(b[j])) {
				t.Fatalf("n=%d: transpose residual %g at col %d", n, s-b[j], j)
			}
		}
	}
}

func TestFactorSchurDetectsSingular(t *testing.T) {
	// Two identical rows: rank deficient, must not silently produce factors.
	n := 4
	d := []float64{
		1, 2, 3, 4,
		1, 2, 3, 4,
		0, 1, 0, 0,
		0, 0, 0, 1,
	}
	if _, err := factorSchur(d, n); err == nil {
		t.Fatal("factorSchur accepted a singular matrix")
	}
}

func TestFactorSchurRejectsBadShape(t *testing.T) {
	if _, err := factorSchur(make([]float64, 5), 2); err == nil {
		t.Fatal("factorSchur accepted a malformed buffer")
	}
}

func TestFactorSchurPivotsRowPermutation(t *testing.T) {
	// A matrix whose natural leading pivot is zero: only row exchanges make
	// it factorable, so this pins the pivoting path.
	d := []float64{
		0, 1,
		1, 0,
	}
	f, err := factorSchur(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.solveInto(x, []float64{3, 7})
	// A swaps coordinates, so x = (7, 3).
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v, want (7, 3)", x)
	}
}

// solveForwardOneRow is the one-row forward substitution the interleaved
// kernel of schurLU.solveInto must reproduce bit for bit.
func solveForwardOneRow(a []float64, n int, x []float64) {
	for i := 1; i < n; i++ {
		ri := a[i*n : i*n+i]
		s := x[i]
		for j, v := range ri {
			s -= v * x[j]
		}
		x[i] = s
	}
}

// The four-row forward substitution of solveInto is the one-row loop bit
// for bit, across every remainder of n mod 4 and at the grid-6k interface
// size.
func TestSchurForwardFourRowBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 659} {
		f, err := factorSchur(randomDense(rng, n), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			if i%5 != 2 {
				b[i] = rng.NormFloat64()
			}
		}
		// Reference: the same pivoting, the one-row forward loop, and the
		// unchanged backward loop.
		want := append([]float64(nil), b...)
		for k := 0; k < n; k++ {
			if p := f.piv[k]; p != k {
				want[k], want[p] = want[p], want[k]
			}
		}
		solveForwardOneRow(f.a, n, want)
		for i := n - 1; i >= 0; i-- {
			ri := f.a[i*n : (i+1)*n]
			s := want[i]
			for j := i + 1; j < n; j++ {
				s -= ri[j] * want[j]
			}
			want[i] = s / ri[i]
		}
		got := make([]float64, n)
		f.solveInto(got, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: x[%d] = %x, one-row loop %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
