package sparse

import (
	"math"
	"strings"
	"testing"

	"opmsim/internal/mat"
)

func bbdRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + math.Sin(0.37*float64(i))
	}
	return b
}

func TestFactorBBDMatchesScalarSolve(t *testing.T) {
	for _, tc := range []struct{ nx, ny, parts int }{
		{16, 16, 2},
		{24, 24, 4},
		{40, 12, 4},
	} {
		a := gridCSR(tc.nx, tc.ny)
		scalar, err := Factor(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bbd, err := FactorBBD(a, BBDOptions{Parts: tc.parts})
		if err != nil {
			t.Fatalf("%dx%d parts=%d: %v", tc.nx, tc.ny, tc.parts, err)
		}
		if bbd.Parts() < 2 || bbd.IfaceN() == 0 {
			t.Fatalf("degenerate BBD: %d parts, %d interface nodes", bbd.Parts(), bbd.IfaceN())
		}
		b := bbdRHS(a.R)
		want, err := scalar.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bbd.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for i := range want {
			if v := math.Abs(want[i]); v > scale {
				scale = v
			}
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*scale {
				t.Fatalf("%dx%d: x[%d] = %g, scalar %g", tc.nx, tc.ny, i, got[i], want[i])
			}
		}
		// The true acceptance criterion is the residual against A itself.
		r := a.MulVec(got, nil)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-10*(1+math.Abs(b[i])) {
				t.Fatalf("%dx%d: residual %g at row %d", tc.nx, tc.ny, r[i]-b[i], i)
			}
		}
	}
}

// TestFactorBBDBitwiseAcrossWorkers pins the determinism contract: the
// factors — and every solve through them — are bitwise-identical for every
// worker count, because domain factorizations and the per-domain solve
// phases are pure per-domain functions and all cross-domain reductions run
// serially in ascending domain order.
func TestFactorBBDBitwiseAcrossWorkers(t *testing.T) {
	a := gridCSR(24, 24)
	n := a.R
	b := bbdRHS(n)
	const k = 5
	bp := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		for j := range bp.Row(i) {
			bp.Row(i)[j] = math.Cos(float64(i*k+j)) + 0.25
		}
	}
	var refX, refInto []float64
	var refPanel *mat.Dense
	var refCond float64
	for _, workers := range []int{1, 2, 3, 4, 8} {
		f, err := FactorBBD(a, BBDOptions{Workers: workers, Parts: 4})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		into := make([]float64, n)
		if err := f.SolveInto(into, b); err != nil {
			t.Fatal(err)
		}
		panel := mat.NewDense(n, k)
		if err := f.SolvePanelInto(panel, bp, f.NewPanelScratch(k)); err != nil {
			t.Fatal(err)
		}
		cond := f.Cond1Est()
		if refX == nil {
			refX, refInto, refPanel, refCond = x, into, panel, cond
			continue
		}
		for i := range x {
			if !bitsEq(x[i], refX[i]) || !bitsEq(into[i], refInto[i]) {
				t.Fatalf("workers=%d: x[%d] = %x / %x, workers=1 gave %x / %x", workers, i,
					math.Float64bits(x[i]), math.Float64bits(into[i]), math.Float64bits(refX[i]), math.Float64bits(refInto[i]))
			}
		}
		for i, v := range panel.Data() {
			if !bitsEq(v, refPanel.Data()[i]) {
				t.Fatalf("workers=%d: panel entry %d = %x, workers=1 gave %x",
					workers, i, math.Float64bits(v), math.Float64bits(refPanel.Data()[i]))
			}
		}
		if !bitsEq(cond, refCond) {
			t.Fatalf("workers=%d: Cond1Est %g, workers=1 gave %g", workers, cond, refCond)
		}
	}
}

// SetWorkers on a view changes only the schedule: every worker count solves
// to the same bits, and a view at one worker allocates nothing in steady
// state.
func TestBBDSetWorkersBitwiseAndSerialSolveAllocFree(t *testing.T) {
	a := gridCSR(20, 20)
	f, err := FactorBBD(a, BBDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := bbdRHS(a.R)
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.R)
	for _, w := range []int{0, 1, 2, 4, 16} {
		v := f.Share()
		v.SetWorkers(w)
		if err := v.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !bitsEq(x[i], want[i]) {
				t.Fatalf("SetWorkers(%d): x[%d] = %x, want %x", w, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
			}
		}
	}
	v := f.Share()
	v.SetWorkers(1)
	if err := v.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := v.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state BBD.SolveInto at one worker allocated %.1f times per call", allocs)
	}
}

// panicJob panics in one domain of one phase.
type panicJob struct{ at int }

func (j panicJob) domain(p, d int) error {
	if d == j.at && p == phaseBack {
		panic("boom")
	}
	return nil
}

// A panicking domain task surfaces as that domain's error, never a crash,
// at every worker count, and the lowest-indexed failure wins.
func TestBBDDomainPanicBecomesError(t *testing.T) {
	f, err := FactorBBD(gridCSR(24, 24), BBDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, f.Parts())
	for _, w := range []int{1, 2, 3} {
		f.SetWorkers(w)
		if err := f.eachDomain(panicJob{at: 2}, phaseForward, errs); err != nil {
			t.Fatalf("workers=%d: forward phase failed: %v", w, err)
		}
		err := f.eachDomain(panicJob{at: 2}, phaseBack, errs)
		if err == nil || !strings.Contains(err.Error(), "domain 2 task panicked") {
			t.Fatalf("workers=%d: panic surfaced as %v", w, err)
		}
	}
}

func TestBBDSolveTranspose(t *testing.T) {
	a := gridCSR(18, 14)
	f, err := FactorBBD(a, BBDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := bbdRHS(a.R)
	y, err := f.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	// Check Aᵀ·y = b column by column: (Aᵀy)[j] = Σᵢ y[i]·A[i,j].
	r := make([]float64, a.R)
	for i := 0; i < a.R; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			r[a.ColIdx[p]] += y[i] * a.Val[p]
		}
	}
	for j := range r {
		if math.Abs(r[j]-b[j]) > 1e-9*(1+math.Abs(b[j])) {
			t.Fatalf("transpose residual %g at col %d", r[j]-b[j], j)
		}
	}
}

// TestBBDCond1EstTracksDense is the property test of satellite 3: the BBD
// condition estimate must lower-bound the exact κ₁ and stay within an order
// of magnitude of it, up to rank 256.
func TestBBDCond1EstTracksDense(t *testing.T) {
	for _, tc := range []struct{ nx, ny int }{
		{10, 10},
		{16, 12},
		{16, 16}, // n = 256
	} {
		a := gridCSR(tc.nx, tc.ny)
		f, err := FactorBBD(a, BBDOptions{Parts: 2})
		if err != nil {
			t.Fatal(err)
		}
		est := f.Cond1Est()
		inv, err := mat.Inverse(a.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		exact := a.Norm1() * FromDense(inv).Norm1()
		if est > exact*1.0000001 {
			t.Fatalf("%dx%d: estimate %g exceeds exact κ₁ = %g", tc.nx, tc.ny, est, exact)
		}
		if est < exact/10 {
			t.Fatalf("%dx%d: estimate %g more than 10× below exact κ₁ = %g", tc.nx, tc.ny, est, exact)
		}
	}
}

// Panel solves must stay column-wise bitwise-identical to the vector solve —
// that equivalence is what lets SolveBatch route through the supernodal tier
// without perturbing waveforms.
func TestBBDSolvePanelIntoBitwise(t *testing.T) {
	a := gridCSR(14, 14)
	f, err := FactorBBD(a, BBDOptions{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := a.R
	for _, k := range []int{1, 5, 32, 40} {
		bp := mat.NewDense(n, k)
		for i := 0; i < n; i++ {
			row := bp.Row(i)
			for j := range row {
				row[j] = math.Sin(float64(i*k+j)) + 0.5
			}
		}
		x := mat.NewDense(n, k)
		if err := f.SolvePanelInto(x, bp, f.NewPanelScratch(k)); err != nil {
			t.Fatal(err)
		}
		col := make([]float64, n)
		want := make([]float64, n)
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				col[i] = bp.Row(i)[j]
			}
			if err := f.SolveInto(want, col); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if !bitsEq(x.Row(i)[j], want[i]) {
					t.Fatalf("k=%d: x[%d,%d] = %x, SolveInto %x",
						k, i, j, math.Float64bits(x.Row(i)[j]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// Share must hand out views with private scratch so concurrent solves through
// different views neither race nor diverge.
func TestBBDShareConcurrentSolves(t *testing.T) {
	a := gridCSR(16, 16)
	f, err := FactorBBD(a, BBDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := a.R
	b1 := bbdRHS(n)
	b2 := make([]float64, n)
	for i := range b2 {
		b2[i] = float64(n-i) / float64(n)
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
		for trial := 0; trial < 30 && err == nil; trial++ {
			err = v1.SolveInto(x1, b1)
		}
		done <- err
	}()
	go func() {
		var err error
		for trial := 0; trial < 30 && err == nil; trial++ {
			err = v2.SolveInto(x2, b2)
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !bitsEq(x1[i], want1[i]) || !bitsEq(x2[i], want2[i]) {
			t.Fatalf("concurrent view solves diverged at %d", i)
		}
	}
}

func TestFactorBBDDegenerateInputs(t *testing.T) {
	// A single node cannot be dissected into two domains.
	tiny := NewCOO(1, 1)
	tiny.Add(0, 0, 1)
	if _, err := FactorBBD(tiny.ToCSR(), BBDOptions{}); err == nil {
		t.Fatal("FactorBBD accepted a 1x1 matrix")
	}
	// Disjoint components split with an empty interface: BBD refuses (the
	// tiered chain falls back to the global sparse LU instead).
	g := gridCSR(6, 6)
	n := g.R
	coo := NewCOO(2*n, 2*n)
	for i := 0; i < n; i++ {
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			coo.Add(i, g.ColIdx[p], g.Val[p])
			coo.Add(n+i, n+g.ColIdx[p], g.Val[p])
		}
	}
	if _, err := FactorBBD(coo.ToCSR(), BBDOptions{Parts: 2}); err == nil {
		t.Fatal("FactorBBD accepted a split with an empty interface")
	}
	// Non-square input.
	rect := NewCOO(3, 4)
	rect.Add(0, 0, 1)
	if _, err := FactorBBD(rect.ToCSR(), BBDOptions{}); err == nil {
		t.Fatal("FactorBBD accepted a non-square matrix")
	}
}
