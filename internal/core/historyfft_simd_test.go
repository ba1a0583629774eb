package core_test

import (
	"math"
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/fft"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// A frac-line-shaped solve — the 32-section CPE ladder of the benchmark,
// with an odd section count too so the last state row rides alone — gives
// the same Float64bits through the FFT tier on the AVX kernels and on the
// portable Go loops, at Workers 1 and 2. On a build or CPU without AVX both
// runs take the Go loops and the test only checks worker determinism.
func TestHistoryFFTBitwiseSIMD(t *testing.T) {
	drive := waveform.Pulse(0, 1e-3, 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
	for _, sections := range []int{32, 33} {
		cfg := netgen.DefaultFractionalLine()
		cfg.Sections = sections
		mna, err := netgen.FractionalLine(cfg, drive, waveform.Sine(1e-4, 1e9, 0))
		if err != nil {
			t.Fatal(err)
		}
		var ref []float64
		for _, simd := range []bool{true, false} {
			for _, workers := range []int{1, 2} {
				restore := fft.SetSIMD(simd)
				sol, err := core.Solve(mna.Sys, mna.Inputs, 2048, 2.7e-9,
					core.Options{HistoryMode: core.HistoryFFT, Workers: workers})
				restore()
				if err != nil {
					t.Fatal(err)
				}
				got := sol.Coefficients().Data()
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("sections=%d simd=%v workers=%d: value %d = %.17g, AVX workers=1 %.17g",
							sections, simd, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}
