package mat

import (
	"math"
	"math/rand"
	"testing"
)

// refLU is the unblocked column-by-column elimination with partial pivoting
// that the blocked LUFactorInPlace must reproduce bit for bit: for every
// pivot k, every row below it folds its multiple of row k into the whole
// remaining row, skipping exact-zero multipliers.
func refLU(a *Dense) (lu *Dense, piv []int, sign int, ok bool) {
	n := a.rows
	lu, piv, sign = a.Clone(), make([]int, n), 1
	for k := 0; k < n; k++ {
		p := k
		max := math.Abs(lu.Row(k)[k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.Row(i)[k]); v > max {
				max, p = v, i
			}
		}
		piv[k] = p
		if isExactZero(max) {
			return nil, nil, 0, false
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			sign = -sign
		}
		rk := lu.Row(k)
		inv := 1 / rk[k]
		for i := k + 1; i < n; i++ {
			ri := lu.Row(i)
			lik := ri[k] * inv
			ri[k] = lik
			if isExactZero(lik) {
				continue
			}
			for j := k + 1; j < n; j++ {
				ri[j] -= lik * rk[j]
			}
		}
	}
	return lu, piv, sign, true
}

// refSolve is the one-row-at-a-time permutation, forward and backward
// substitution against refLU's factors.
func refSolve(lu *Dense, piv []int, b []float64) {
	n := lu.rows
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for i := 1; i < n; i++ {
		row := lu.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := lu.Row(i)
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// refSolveTranspose solves Aᵀx = b from refLU's factors: Uᵀ forward, Lᵀ
// backward, interchanges undone in reverse.
func refSolveTranspose(lu *Dense, piv []int, b []float64) {
	n := lu.rows
	for j := 0; j < n; j++ {
		s := b[j]
		for i := 0; i < j; i++ {
			s -= lu.At(i, j) * b[i]
		}
		b[j] = s / lu.At(j, j)
	}
	for j := n - 1; j >= 0; j-- {
		s := b[j]
		for i := j + 1; i < n; i++ {
			s -= lu.At(i, j) * b[i]
		}
		b[j] = s
	}
	for k := n - 1; k >= 0; k-- {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
}

// sparseScaledDense is an n×n test matrix with exact zeros (about one entry
// in four, so exact-zero multipliers occur and the skip paths run) and rows
// scaled over nine decades.
func sparseScaledDense(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(rng.Intn(10))-4)
		row := a.Row(i)
		for j := range row {
			if rng.Intn(4) != 0 {
				row[j] = scale * rng.NormFloat64()
			}
		}
		row[i] += scale * 3
	}
	return a
}

// The blocked factorization, its solves and Det are the unblocked
// reference's bit for bit, at sizes below, at, between and above multiples
// of the panel width.
func TestLUBlockedMatchesUnblockedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 3, 31, 32, 33, 70, 129} {
		a := sparseScaledDense(rng, n)
		lu, piv, sign, ok := refLU(a)
		if !ok {
			t.Fatalf("n=%d: reference factorization hit a zero pivot", n)
		}
		f, err := LUFactor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range lu.data {
			if !bitsEqual(f.lu.data[i], v) {
				t.Fatalf("n=%d: factor entry %d = %x, reference %x", n, i, math.Float64bits(f.lu.data[i]), math.Float64bits(v))
			}
		}
		for k := range piv {
			if f.piv[k] != piv[k] {
				t.Fatalf("n=%d: piv[%d] = %d, reference %d", n, k, f.piv[k], piv[k])
			}
		}
		if f.sign != sign {
			t.Fatalf("n=%d: sign %d, reference %d", n, f.sign, sign)
		}
		want := float64(sign)
		for i := 0; i < n; i++ {
			want *= lu.At(i, i)
		}
		if got := f.Det(); !bitsEqual(got, want) {
			t.Fatalf("n=%d: Det %x, reference %x", n, math.Float64bits(got), math.Float64bits(want))
		}

		const k = 5
		bp := randomDense(rng, n, k)
		for i := 0; i < n; i++ {
			bp.Row(i)[i%k] = 0
		}
		xp := f.SolveMatrixInto(NewDense(n, k), bp)
		col := make([]float64, n)
		for c := 0; c < k; c++ {
			for i := range col {
				col[i] = bp.At(i, c)
			}
			want := append([]float64(nil), col...)
			refSolve(lu, piv, want)
			got := f.Solve(append([]float64(nil), col...))
			wantT := append([]float64(nil), col...)
			refSolveTranspose(lu, piv, wantT)
			gotT := f.SolveTranspose(append([]float64(nil), col...))
			for i := range want {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("n=%d col %d: Solve x[%d] = %x, reference %x", n, c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if !bitsEqual(xp.At(i, c), want[i]) {
					t.Fatalf("n=%d col %d: SolveMatrixInto x[%d] = %x, reference %x", n, c, i, math.Float64bits(xp.At(i, c)), math.Float64bits(want[i]))
				}
				if !bitsEqual(gotT[i], wantT[i]) {
					t.Fatalf("n=%d col %d: SolveTranspose x[%d] = %x, reference %x", n, c, i, math.Float64bits(gotT[i]), math.Float64bits(wantT[i]))
				}
			}
		}
	}
}

// Solve and SolveTranspose leave small residuals at sizes straddling the
// panel width, independently of any reference implementation.
func TestLUSolveAndTransposeResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 31, 32, 33, 70, 129} {
		a := randomDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 5) // comfortably nonsingular but still exercising pivoting
		}
		f, err := LUFactor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := randomVec(rng, n)
		x := f.Solve(append([]float64(nil), b...))
		res := a.MulVec(x, nil)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
				t.Fatalf("n=%d: residual %g at row %d", n, res[i]-b[i], i)
			}
		}
		// Aᵀ·y = b ⇔ yᵀ·A = bᵀ.
		y := f.SolveTranspose(append([]float64(nil), b...))
		res = a.MulVecT(y, nil)
		for j := range res {
			if math.Abs(res[j]-b[j]) > 1e-9*(1+math.Abs(b[j])) {
				t.Fatalf("n=%d: transpose residual %g at col %d", n, res[j]-b[j], j)
			}
		}
	}
}

// The four-row forward substitution of Solve is the one-row loop bit for
// bit, across every remainder of n mod 4 and at the grid-6k interface size,
// with exact zeros in the right-hand side.
func TestLUForwardFourRowBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 659} {
		a := randomDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 5)
		}
		f, err := LUFactor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			if i%5 != 2 {
				b[i] = rng.NormFloat64()
			}
		}
		want := append([]float64(nil), b...)
		refSolve(f.lu, f.piv, want)
		got := f.Solve(append([]float64(nil), b...))
		for i := range got {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("n=%d: x[%d] = %x, one-row loop %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
