package sparse

import (
	"math"
	"math/rand"
	"testing"

	"opmsim/internal/mat"
)

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Property: every column of the panel triangular solve is bitwise-identical
// to SolveInto on that column — across the ordering threshold (Factor skips the
// pre-ordering below n = 64), with and without refinement, and across panel
// widths.
func TestFactorizationSolvePanelIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{12, 80} {
		for _, refine := range []bool{false, true} {
			a := randomSparseSquare(rng, n, 0.1)
			f, err := Factor(a, Options{Refine: refine})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 7, 32} {
				b := mat.NewDense(n, k)
				for i := 0; i < n; i++ {
					bi := b.Row(i)
					for j := range bi {
						bi[j] = rng.NormFloat64()
					}
				}
				x := mat.NewDense(n, k)
				if err := f.SolvePanelInto(x, b, f.NewPanelScratch(k)); err != nil {
					t.Fatal(err)
				}
				col := make([]float64, n)
				want := make([]float64, n)
				for j := 0; j < k; j++ {
					for i := 0; i < n; i++ {
						col[i] = b.Row(i)[j]
					}
					if err := f.SolveInto(want, col); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if !bitsEq(x.Row(i)[j], want[i]) {
							t.Fatalf("n=%d refine=%v k=%d: x[%d,%d] = %x, SolveInto %x",
								n, refine, k, i, j,
								math.Float64bits(x.Row(i)[j]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// Share must hand out views that solve identically to the original while
// owning private scratch (exercised here by interleaving solves through the
// original and two shared views).
func TestFactorizationShare(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 70
	a := randomSparseSquare(rng, n, 0.1)
	f, err := Factor(a, Options{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		got, err := f.Share().Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bitsEq(got[i], want[i]) {
				t.Fatalf("view %d: x[%d] = %g, want %g", v, i, got[i], want[i])
			}
		}
	}
}

// Property: MulPanelInto is column-wise bitwise-identical to MulVec.
func TestMulPanelIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randomSparseSquare(rng, 25, 0.2)
	k := 9
	x := mat.NewDense(25, k)
	for i := 0; i < 25; i++ {
		xi := x.Row(i)
		for j := range xi {
			xi[j] = rng.NormFloat64()
		}
	}
	dst := mat.NewDense(25, k)
	a.MulPanelInto(dst, x)
	xc := make([]float64, 25)
	for j := 0; j < k; j++ {
		for i := 0; i < 25; i++ {
			xc[i] = x.Row(i)[j]
		}
		want := a.MulVec(xc, nil)
		for i := 0; i < 25; i++ {
			if !bitsEq(dst.Row(i)[j], want[i]) {
				t.Fatalf("dst[%d,%d] = %g, MulVec %g", i, j, dst.Row(i)[j], want[i])
			}
		}
	}
}

// A one-column MulPanelAdd must give MulVecAdd's bits: on a matrix with
// structurally empty rows (whose -0 destination entries stay -0), with ±0
// and NaN among the inputs and the stored values. The width-3 panel's
// columns hold to the same bits wherever the result is not NaN (vecops
// leaves NaN payloads to the hardware).
func TestMulPanelAddWidthOneMatchesMulVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 32
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i%5 == 3 {
			continue // structurally empty row
		}
		for _, j := range []int{(i + n - 1) % n, i, (i + 1) % n} {
			v := rng.NormFloat64()
			switch (i + j) % 11 {
			case 0:
				v = math.Copysign(0, -1)
			case 4:
				v = 0
			}
			coo.Add(i, j, v)
		}
	}
	a := coo.ToCSR()
	a.Val[7] = math.Copysign(0, -1) // a stored -0 in a nonempty row
	input := func(i int) float64 {
		switch i % 9 {
		case 2:
			return math.Copysign(0, -1)
		case 5:
			return 0
		case 8:
			if i == 17 {
				return math.NaN()
			}
		}
		return rng.NormFloat64()
	}
	const w = 3
	x1, d1 := mat.NewDense(n, 1), mat.NewDense(n, 1)
	xw, dw := mat.NewDense(n, w), mat.NewDense(n, w)
	xv, yv := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		xv[i] = input(i)
		yv[i] = math.Copysign(0, -1)
		if i%4 == 1 {
			yv[i] = rng.NormFloat64()
		}
		x1.Data()[i], d1.Data()[i] = xv[i], yv[i]
		for c := 0; c < w; c++ {
			xw.Row(i)[c], dw.Row(i)[c] = xv[i], yv[i]
		}
	}
	for _, s := range []float64{1, -1, 0.5} {
		a.MulVecAdd(s, xv, yv)
		a.MulPanelAdd(s, x1, d1, make([]float64, 1))
		a.MulPanelAdd(s, xw, dw, make([]float64, w))
		for i := 0; i < n; i++ {
			if got := d1.Data()[i]; !bitsEq(got, yv[i]) {
				t.Fatalf("s=%g row %d: width-1 MulPanelAdd %v (%#x), MulVecAdd %v (%#x)",
					s, i, got, math.Float64bits(got), yv[i], math.Float64bits(yv[i]))
			}
			for c := 0; c < w; c++ {
				if got := dw.Row(i)[c]; !math.IsNaN(yv[i]) && !bitsEq(got, yv[i]) {
					t.Fatalf("s=%g row %d col %d: width-%d MulPanelAdd %v, MulVecAdd %v", s, i, c, w, got, yv[i])
				}
			}
		}
	}
	var nans, negZeros int
	for _, v := range yv {
		if math.IsNaN(v) {
			nans++
		}
		if v == 0 && math.Signbit(v) {
			negZeros++
		}
	}
	if nans == 0 || negZeros == 0 {
		t.Fatalf("fixture lost its edge cases: %d NaN and %d -0 results", nans, negZeros)
	}
}

// The panel solve rejects shape mismatches and aliased arguments instead of
// corrupting data.
func TestSolvePanelIntoChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 10
	a := randomSparseSquare(rng, n, 0.3)
	f, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := mat.NewDense(n, 3)
	if err := f.SolvePanelInto(mat.NewDense(n, 4), b, f.NewPanelScratch(3)); err == nil {
		t.Fatal("panel solve accepted mismatched widths")
	}
	if err := f.SolvePanelInto(b, b, f.NewPanelScratch(3)); err == nil {
		t.Fatal("panel solve accepted aliased x and b")
	}
}
