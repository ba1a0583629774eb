package core

import (
	"math"
	"math/rand"
	"testing"

	"opmsim/internal/mat"
	"opmsim/internal/waveform"
)

// maxRelDiff returns max_ij |a−b| / max(1, max|b|), the relative metric the
// FFT-tier acceptance bound (≤1e-10) is stated in.
func maxRelDiff(a, b *mat.Dense) float64 {
	scale := b.MaxAbs()
	if scale < 1 {
		scale = 1
	}
	d := 0.0
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if v := math.Abs(a.At(i, j) - b.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d / scale
}

// Engine-level check of the segment decomposition: with a tiny base segment
// the FFT tier exercises many firing levels even on small grids, and must
// reproduce the naive triangular summation at roundoff for m on and around
// every power-of-two boundary. Rows are convolved in pairs, so n covers a
// lone row, an unpaired last row and several pairs. The scaled inputs put
// rows 2^±90 and 10^±12 apart inside one pair; each row must still match
// its naive sum relative to its own scale, which fails unless every row is
// scaled on its own before it shares a transform. A group engine serves one
// member or three, each member's rows at different scales, and two firing
// tasks split the (member, row pair) sequence mid-member: a pair that
// crossed members, or a member that read another's slab, would fail.
func TestHistoryFFTEngineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rowScales := []float64{0x1p90, 0x1p-90, 1e12, 1e-12, 1, 0x1p-90, 1e-12, 0x1p90}
	for _, w := range []int{1, 3} {
		for _, n := range []int{1, 2, 3, 8} {
			for _, scaled := range []bool{false, true} {
				scale := make([][]float64, w)
				for c := range scale {
					scale[c] = make([]float64, n)
					for i := range scale[c] {
						scale[c][i] = 1
						if scaled {
							scale[c][i] = rowScales[(i+3*c)%len(rowScales)]
						}
					}
				}
				for _, m := range []int{1, 2, 5, 8, 9, 16, 31, 32, 33, 63, 64, 65, 100, 127, 130} {
					xs := make([][]float64, w)
					for c := range xs {
						xs[c] = make([]float64, m*n)
						for k := range xs[c] {
							xs[c][k] = rng.NormFloat64() * scale[c][k%n]
						}
					}
					// Decaying Toeplitz coefficients, like the fractional ρ_α tails.
					coef := make([]float64, m)
					for d := range coef {
						coef[d] = rng.NormFloat64() / float64(1+d)
					}
					eng := newHistoryEngine(n, m, 2, true, xs, 1)
					eng.fftBase = 4 // exercise many segment levels on small grids
					eng.addToeplitz(0, coef)
					got := mat.NewDense(n, w)
					for j := 0; j < m; j++ {
						if err := eng.history(0, j, got); err != nil {
							t.Fatalf("w=%d n=%d m=%d j=%d: %v", w, n, m, j, err)
						}
						for c := range xs {
							// Naive reference for member c's column j.
							want := make([]float64, n)
							for i := 0; i < j; i++ {
								mat.Axpy(coef[j-i], xs[c][i*n:(i+1)*n], want)
							}
							for i := range want {
								if d := math.Abs(got.At(i, c) - want[i]); d > 1e-11*scale[c][i] {
									t.Fatalf("w=%d n=%d scaled=%v m=%d j=%d member %d state %d: fft %g vs naive %g (|Δ|=%g, row scale %g)",
										w, n, scaled, m, j, c, i, got.At(i, c), want[i], d, scale[c][i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// Full solves through the FFT tier must agree with the exact tier to
// well under the 1e-10 acceptance bound, for grid sizes straddling segment
// boundaries, and must be bitwise-identical across worker counts (each
// accumulator row is computed by exactly one task in a fixed order).
func TestSolveHistoryFFTMatchesExact(t *testing.T) {
	sys, u := fracTestSystem(5, 11)
	for _, m := range []int{63, 64, 65, 128, 200, 257, 520} {
		ref, err := Solve(sys, u, m, 2, Options{HistoryMode: HistoryExact})
		if err != nil {
			t.Fatalf("m=%d exact: %v", m, err)
		}
		var first *Solution
		for _, workers := range []int{1, 2, 8} {
			got, err := Solve(sys, u, m, 2, Options{HistoryMode: HistoryFFT, Workers: workers})
			if err != nil {
				t.Fatalf("m=%d workers=%d: %v", m, workers, err)
			}
			if d := maxRelDiff(got.Coefficients(), ref.Coefficients()); d > 1e-10 {
				t.Fatalf("m=%d workers=%d: fft vs exact rel diff %g > 1e-10", m, workers, d)
			}
			if first == nil {
				first = got
			} else {
				sameDense(t, "fft determinism across workers", got.Coefficients(), first.Coefficients())
			}
		}
	}
}

// The nonlinear solver threads HistoryMode through its identical history
// machinery.
func TestSolveNonlinearHistoryFFTMatchesExact(t *testing.T) {
	sys, u := fracTestSystem(3, 19)
	g := &vecCubicNL{c: 0.2}
	ref, err := SolveNonlinear(sys, g, u, 130, 2, NonlinearOptions{Options: Options{HistoryMode: HistoryExact}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveNonlinear(sys, g, u, 130, 2, NonlinearOptions{Options: Options{HistoryMode: HistoryFFT}})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(got.Coefficients(), ref.Coefficients()); d > 1e-10 {
		t.Fatalf("nonlinear fft vs exact rel diff %g > 1e-10", d)
	}
}

// Adaptive grids have no Toeplitz structure: HistoryFFT must be accepted but
// resolve to the exact tier, keeping the result bitwise-identical to an
// explicit HistoryExact run and reporting "exact".
func TestSolveAdaptiveHistoryFFTFallsBackToExact(t *testing.T) {
	sys, u := fracTestSystem(4, 7)
	steps := make([]float64, 40)
	h := 0.01
	for i := range steps {
		steps[i] = h
		h *= 1.015
	}
	ref, err := SolveAdaptive(sys, u, steps, Options{HistoryMode: HistoryExact})
	if err != nil {
		t.Fatal(err)
	}
	rep := &SolveReport{}
	got, err := SolveAdaptive(sys, u, steps, Options{HistoryMode: HistoryFFT, Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	sameDense(t, "adaptive fft-mode vs exact", got.Coefficients(), ref.Coefficients())
	if rep.HistoryEngine != "exact" {
		t.Fatalf("adaptive HistoryEngine = %q, want \"exact\"", rep.HistoryEngine)
	}
}

// HistoryAuto must resolve by grid size, and the resolution must be
// observable in the report.
func TestHistoryAutoCrossover(t *testing.T) {
	sys, u := fracTestSystem(3, 5)
	cases := []struct {
		name string
		m    int
		opt  Options
		want string
	}{
		{"auto small", 96, Options{}, "exact"},
		{"auto large", historyFFTCrossover, Options{}, "fft"},
		{"exact large", historyFFTCrossover, Options{HistoryMode: HistoryExact}, "exact"},
		{"fft small", 96, Options{HistoryMode: HistoryFFT}, "fft"},
	}
	for _, tc := range cases {
		rep := &SolveReport{}
		tc.opt.Report = rep
		if _, err := Solve(sys, u, tc.m, 2, tc.opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.HistoryEngine != tc.want {
			t.Fatalf("%s: HistoryEngine = %q, want %q", tc.name, rep.HistoryEngine, tc.want)
		}
	}

	// Integer-order systems never engage the general engine; the report
	// field stays empty whatever the mode says.
	isys, err := NewSecondOrder(scalarCSR(1), scalarCSR(0.6), scalarCSR(4), scalarCSR(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := &SolveReport{}
	if _, err := Solve(isys, []waveform.Signal{waveform.Sine(1, 0.5, 0)}, 96, 2, Options{HistoryMode: HistoryFFT, Report: rep}); err != nil {
		t.Fatal(err)
	}
	if rep.HistoryEngine != "" {
		t.Fatalf("integer-order HistoryEngine = %q, want empty", rep.HistoryEngine)
	}
}

// An unknown mode is rejected by every entry point before any work happens.
func TestHistoryModeValidation(t *testing.T) {
	sys, u := fracTestSystem(3, 5)
	bad := Options{HistoryMode: HistoryMode("fast")}
	if _, err := Solve(sys, u, 32, 2, bad); err == nil {
		t.Fatal("Solve accepted HistoryMode \"fast\"")
	}
	if _, err := SolveAdaptive(sys, u, []float64{0.1, 0.11, 0.12}, bad); err == nil {
		t.Fatal("SolveAdaptive accepted HistoryMode \"fast\"")
	}
	if _, err := SolveNonlinear(sys, &vecCubicNL{c: 0.1}, u, 32, 2, NonlinearOptions{Options: bad}); err == nil {
		t.Fatal("SolveNonlinear accepted HistoryMode \"fast\"")
	}

	for _, tc := range []struct {
		in   string
		want HistoryMode
		ok   bool
	}{
		{"", HistoryAuto, true},
		{"auto", HistoryAuto, true},
		{"exact", HistoryExact, true},
		{"fft", HistoryFFT, true},
		{"FFT", "", false},
		{"naive", "", false},
	} {
		got, err := ParseHistoryMode(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseHistoryMode(%q) = %q, %v", tc.in, got, err)
		}
	}
}
