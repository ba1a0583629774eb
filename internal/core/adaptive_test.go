package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"opmsim/internal/basis"
	"opmsim/internal/mat"
	"opmsim/internal/specfn"
	"opmsim/internal/waveform"
)

func TestSolveAdaptiveRCDistinctSteps(t *testing.T) {
	// ẋ = −x + u with geometrically growing steps: the decay is fast early,
	// slow late, so growing steps fit it naturally.
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	var steps []float64
	h, total := 0.01, 0.0
	for total < 4 && len(steps) < 200 {
		steps = append(steps, h)
		total += h
		h *= 1.05
	}
	sol, err := SolveAdaptive(sys, []waveform.Signal{waveform.Step(1, 0)}, steps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate at interval midpoints (BPF coefficients are averages).
	edges := sol.Basis().(interface{ Edges() []float64 }).Edges()
	for j := 1; j < len(edges)-1; j += 13 {
		tt := (edges[j] + edges[j+1]) / 2
		want := 1 - math.Exp(-tt)
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 1e-3 {
			t.Fatalf("adaptive x(%g) = %g, want %g", tt, got, want)
		}
	}
}

// SolveAdaptive must satisfy the adaptive operational-matrix equation
// Σ_k E_k·X·D̃ᵅᵏ = B·U exactly (eq. 27 with D̃ᵅ of eq. 25): the column solver
// — an order-1 recurrence on w_j = h_j·s_j, the history engine's fold for
// fractional orders — and a direct dense evaluation must agree. The
// Parlett-based D̃ᵅ is well-conditioned only for modest m with
// well-separated steps, so the fractional rows stay small — a documented
// limitation the paper's eigendecomposition method shares. The
// integer-order rows hold the residual to roundoff.
func TestSolveAdaptiveFractionalMatchesDense(t *testing.T) {
	e := csrFrom(2, 2, []float64{1, 0, 0, 2})
	a := csrFrom(2, 2, []float64{-1, 0.5, 0.2, -2})
	b := csrFrom(2, 1, []float64{1, 0.5})
	fde, err := NewFDE(e, a, b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// An orders-{0,1} DAE whose second state is algebraic.
	dae, err := NewDAE(csrFrom(2, 2, []float64{1, 0, 0, 0}), csrFrom(2, 2, []float64{-1, 0.5, 1, -1}), b)
	if err != nil {
		t.Fatal(err)
	}
	// E₁·ẋ + E½·d^½x − A·x = B·u.
	mixed := &System{Terms: []Term{
		{Order: 1, Coeff: csrFrom(2, 2, []float64{1, 0, 0, 0.5})},
		{Order: 0.5, Coeff: csrFrom(2, 2, []float64{0.3, 0, 0.1, 1})},
		{Order: 0, Coeff: a.Scale(-1)},
	}, B: b}
	for _, tc := range []struct {
		name  string
		sys   *System
		steps []float64
		tol   float64
	}{
		{"fde-0.5", fde, []float64{0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.7}, 1e-8},
		{"dae", dae, []float64{0.05, 0.05, 0.12, 0.2, 0.2, 0.2, 0.45, 0.01, 0.7}, 1e-12},
		{"mixed-1+0.5", mixed, []float64{0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.7}, 1e-8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := []waveform.Signal{waveform.Sine(1, 0.4, 0.3)}
			sol, err := SolveAdaptive(tc.sys, u, tc.steps, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Rebuild the equation densely and verify the residual.
			ab, _ := basis.NewAdaptiveBPF(tc.steps)
			x := sol.Coefficients()
			m := len(tc.steps)
			lhs := mat.NewDense(2, m)
			for _, term := range tc.sys.Terms {
				d, err := ab.DiffMatrixAlpha(term.Order)
				if err != nil {
					t.Fatal(err)
				}
				lhs = mat.AddTo(lhs, mat.Mul(term.Coeff.ToDense(), mat.Mul(x, d)))
			}
			uc := mat.NewDense(1, m)
			copy(uc.Row(0), ab.Expand(u[0]))
			rhs := mat.Mul(b.ToDense(), uc)
			if !mat.Equalf(lhs, rhs, tc.tol*(1+rhs.MaxAbs())) {
				t.Fatalf("adaptive residual above %g:\nlhs\n%v rhs\n%v", tc.tol, lhs, rhs)
			}
		})
	}
}

// The order-1 recurrence keeps SolveAdaptive's memory linear in m: a dense
// m×m D̃ per term would make the bytes allocated grow 16× from m = 512 to
// m = 2048.
func TestSolveAdaptiveMemoryLinear(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	u := []waveform.Signal{waveform.Step(1, 0)}
	bytesAt := func(m int) uint64 {
		steps := make([]float64, m)
		for j := range steps {
			steps[j] = 4 / float64(m) * (0.5 + float64(j%7)/7)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SolveAdaptive(sys, u, steps, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytesAt(512), bytesAt(2048)
	if large > 6*small {
		t.Fatalf("SolveAdaptive allocated %d B at m=512 and %d B at m=2048 (%.1f×, want ≤ 6×)",
			small, large, float64(large)/float64(small))
	}
}

func TestSolveAdaptiveFractionalAccuracy(t *testing.T) {
	// Modest-m accuracy check against the Mittag-Leffler step response.
	sys, _ := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0.5)
	var steps []float64
	h, total := 0.01, 0.0
	for total < 1.5 && len(steps) < 40 {
		steps = append(steps, h)
		total += h
		h *= 1.18
	}
	sol, err := SolveAdaptive(sys, []waveform.Signal{waveform.Step(1, 0)}, steps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := sol.Basis().(interface{ Edges() []float64 }).Edges()
	for j := 4; j < len(steps); j += 5 {
		tt := (edges[j] + edges[j+1]) / 2
		ml, err := specfn.MittagLeffler(0.5, -math.Sqrt(tt))
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - ml
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 5e-2*(1+want) {
			t.Fatalf("adaptive fractional x(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestSolveAdaptiveFractionalRejectsRepeatedSteps(t *testing.T) {
	sys, _ := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0.5)
	steps := []float64{0.1, 0.1, 0.2}
	if _, err := SolveAdaptive(sys, []waveform.Signal{waveform.Zero()}, steps, Options{}); err == nil {
		t.Fatal("SolveAdaptive accepted repeated steps for a fractional system")
	}
}

// Both adaptive solvers take Options.X0 through the substitution
// z = x − x₀ that Solve uses: on constant steps SolveAdaptive gives Solve's
// waveform, and SolveAdaptiveAuto's relaxation from x₀ = 1 tracks e^{−t}.
func TestSolveAdaptiveAcceptsX0(t *testing.T) {
	e := csrFrom(2, 2, []float64{1, 0, 0, 0})
	a := csrFrom(2, 2, []float64{-1, 0.5, 1, -1})
	dae, err := NewDAE(e, a, csrFrom(2, 1, []float64{1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{0.7, 0.7}
	u := []waveform.Signal{waveform.Step(1, 0)}
	m, T := 64, 2.0
	ref, err := Solve(dae, u, m, T, Options{X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]float64, m)
	for j := range steps {
		steps[j] = T / float64(m)
	}
	sol, err := SolveAdaptive(dae, u, steps, Options{X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sol.Coefficients(), ref.Coefficients(); !mat.Equalf(got, want, 1e-12*want.MaxAbs()) {
		t.Fatalf("SolveAdaptive with X0 differs from Solve:\n%v\n%v", got, want)
	}

	rc, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	auto, _, err := SolveAdaptiveAuto(rc, []waveform.Signal{waveform.Zero()}, 4, AdaptiveOptions{Options: Options{X0: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Each BPF coefficient is an interval average of x.
	edges := auto.Basis().(interface{ Edges() []float64 }).Edges()
	for j, got := range auto.Coefficients().Row(0) {
		lo, hi := edges[j], edges[j+1]
		if want := (math.Exp(-lo) - math.Exp(-hi)) / (hi - lo); math.Abs(got-want) > 1e-3 {
			t.Fatalf("SolveAdaptiveAuto from X0 = 1: column %d on [%g, %g) = %g, want %g", j, lo, hi, got, want)
		}
	}
}

func TestSolveAdaptiveAutoTracksPulse(t *testing.T) {
	// A system driven by a sharp pulse: the controller should take small
	// steps around the pulse and large steps elsewhere.
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	u := waveform.Pulse(0, 1, 1.0, 0.01, 0.01, 0.3, 0)
	T := 4.0
	sol, stats, err := SolveAdaptiveAuto(sys, []waveform.Signal{u}, T, AdaptiveOptions{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted == 0 {
		t.Fatal("controller accepted no steps")
	}
	steps := sol.Basis().(interface{ Steps() []float64 }).Steps()
	minH, maxH := math.Inf(1), 0.0
	for _, h := range steps {
		minH = math.Min(minH, h)
		maxH = math.Max(maxH, h)
	}
	if maxH/minH < 4 {
		t.Fatalf("controller did not adapt: min %g, max %g over %d steps", minH, maxH, len(steps))
	}
	// Accuracy check against a fine uniform solve.
	ref, err := Solve(sys, []waveform.Signal{u}, 8192, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.5, 1.2, 1.5, 2.5, 3.5} {
		if d := math.Abs(sol.StateAt(0, tt) - ref.StateAt(0, tt)); d > 5e-3 {
			t.Fatalf("adaptive-auto x(%g) off by %g", tt, d)
		}
	}
}

func TestSolveAdaptiveAutoValidation(t *testing.T) {
	sys, _ := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0.5)
	if _, _, err := SolveAdaptiveAuto(sys, []waveform.Signal{waveform.Zero()}, 1, AdaptiveOptions{}); err == nil {
		t.Fatal("SolveAdaptiveAuto accepted fractional system")
	}
	dae, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	if _, _, err := SolveAdaptiveAuto(dae, []waveform.Signal{waveform.Zero()}, 0, AdaptiveOptions{}); err == nil {
		t.Fatal("SolveAdaptiveAuto accepted T=0")
	}
	if _, _, err := SolveAdaptiveAuto(dae, nil, 1, AdaptiveOptions{}); err == nil {
		t.Fatal("SolveAdaptiveAuto accepted missing inputs")
	}
}

func TestSolveAdaptiveAutoStepBudget(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	_, _, err := SolveAdaptiveAuto(sys, []waveform.Signal{waveform.Sine(1, 50, 0)}, 10,
		AdaptiveOptions{Tol: 1e-12, MaxSteps: 8})
	if err == nil {
		t.Fatal("SolveAdaptiveAuto ignored MaxSteps")
	}
}

// The step controller runs on the column driver with the arithmetic of its
// former standalone loop: on TestSolveAdaptiveAutoTracksPulse's fixture it
// takes the same 82 columns, 41 accepted and 9 rejected trials and 150
// solves, and gives the same coefficients (an FNV-1a digest of
// Float64bits(v+0), row by row, recorded before the move).
func TestSolveAdaptiveAutoPinned(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	u := waveform.Pulse(0, 1, 1.0, 0.01, 0.01, 0.3, 0)
	rep := &SolveReport{}
	sol, stats, err := SolveAdaptiveAuto(sys, []waveform.Signal{u}, 4, AdaptiveOptions{Options: Options{Report: rep}, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Basis().Size(); got != 82 || stats.Accepted != 41 || stats.Rejected != 9 || rep.TierSolves[TierSparseLU] != 150 {
		t.Fatalf("%d columns, %d accepted, %d rejected, %d solves; want 82, 41, 9, 150", got, stats.Accepted, stats.Rejected, rep.TierSolves[TierSparseLU])
	}
	h := fnv.New64a()
	var b [8]byte
	x := sol.Coefficients()
	for i := 0; i < x.Rows(); i++ {
		for _, v := range x.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v+0))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != 0x8e9ce98dddcf96af {
		t.Fatalf("coefficient digest %#x, want 0x8e9ce98dddcf96af", got)
	}
}

// SolveAdaptiveAuto streams its columns through Options.OnColumn as the
// controller accepts them: one call per Solution column, in order, with the
// column's midpoint time and its values bit for bit.
func TestSolveAdaptiveAutoOnColumnMatchesSolution(t *testing.T) {
	sys, _ := NewDAE(scalarCSR(1), scalarCSR(-1), scalarCSR(1))
	u := []waveform.Signal{waveform.Pulse(0, 1, 1.0, 0.01, 0.01, 0.3, 0)}
	var cols []int
	var times, vals []float64
	opt := AdaptiveOptions{Tol: 1e-4}
	opt.X0 = []float64{0.25}
	opt.OnColumn = func(c int, tc float64, x []float64) {
		cols = append(cols, c)
		times = append(times, tc)
		vals = append(vals, x...)
	}
	sol, _, err := SolveAdaptiveAuto(sys, u, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	edges := sol.Basis().(interface{ Edges() []float64 }).Edges()
	x := sol.Coefficients()
	if len(cols) != x.Cols() {
		t.Fatalf("OnColumn fired %d times for %d columns", len(cols), x.Cols())
	}
	for j, c := range cols {
		if c != j {
			t.Fatalf("call %d reported column %d", j, c)
		}
		if mid := (edges[j] + edges[j+1]) / 2; math.Abs(times[j]-mid) > 1e-12*edges[len(edges)-1] {
			t.Fatalf("column %d: time %g, interval midpoint %g", j, times[j], mid)
		}
		if math.Float64bits(vals[j]) != math.Float64bits(x.At(0, j)) {
			t.Fatalf("column %d: hook %v, Solution %v", j, vals[j], x.At(0, j))
		}
	}
}
