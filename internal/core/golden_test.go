package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

var updateGolden = flag.Bool("update", false, "regenerate golden waveform snapshots")

// goldenFixture is one pinned Solve scenario. The fixtures mirror the
// example programs: the quickstart RC ladder, the §V-A fractional line, and
// the interconnect RC tree.
type goldenFixture struct {
	name string
	m    int
	T    float64
	sys  func(t *testing.T) (*core.System, []waveform.Signal)
}

func goldenFixtures() []goldenFixture {
	return []goldenFixture{
		{
			name: "quickstart", m: 256, T: 60e-3,
			sys: func(t *testing.T) (*core.System, []waveform.Signal) {
				mna, err := netgen.RCLadder(5, 1e3, 1e-6, waveform.Step(1, 0))
				if err != nil {
					t.Fatal(err)
				}
				return mna.Sys, mna.Inputs
			},
		},
		{
			name: "fractional_line", m: 256, T: 2.7e-9,
			sys: func(t *testing.T) (*core.System, []waveform.Signal) {
				drive := waveform.Pulse(0, 1e-3, 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
				mna, err := netgen.FractionalLine(netgen.DefaultFractionalLine(), drive, waveform.Zero())
				if err != nil {
					t.Fatal(err)
				}
				return mna.Sys, mna.Inputs
			},
		},
		{
			name: "interconnect", m: 256, T: 2e-9,
			sys: func(t *testing.T) (*core.System, []waveform.Signal) {
				mna, err := netgen.RCTree(4, 150, 80, 25e-15, waveform.Step(1, 0))
				if err != nil {
					t.Fatal(err)
				}
				return mna.Sys, mna.Inputs
			},
		},
	}
}

// goldenFile is the on-disk snapshot: the full coefficient matrix X of
// x(t) = X·φ(t). encoding/json round-trips float64 exactly (shortest
// representation), so the snapshot pins the waveform bit for bit.
type goldenFile struct {
	Fixture string      `json:"fixture"`
	N       int         `json:"n"`
	M       int         `json:"m"`
	T       float64     `json:"t"`
	X       [][]float64 `json:"x"`
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func solveCoeffRows(t *testing.T, fx goldenFixture, opt core.Options) [][]float64 {
	t.Helper()
	sys, u := fx.sys(t)
	sol, err := core.Solve(sys, u, fx.m, fx.T, opt)
	if err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	x := sol.Coefficients()
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = append([]float64(nil), x.Row(i)...)
	}
	return rows
}

// TestGoldenWaveforms pins today's Solve outputs: one worker, the default
// worker count and eight workers must all match the committed snapshots bit
// for bit (math.Float64bits). Regenerate with
//
//	go test ./internal/core -run TestGolden -update
func TestGoldenWaveforms(t *testing.T) {
	for _, fx := range goldenFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			path := goldenPath(fx.name)
			if *updateGolden {
				rows := solveCoeffRows(t, fx, core.Options{})
				g := goldenFile{Fixture: fx.name, N: len(rows), M: fx.m, T: fx.T, X: rows}
				buf, err := json.MarshalIndent(&g, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d states × %d columns)", path, g.N, g.M)
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			if want.M != fx.m || want.T != fx.T {
				t.Fatalf("snapshot is for m=%d T=%g, fixture wants m=%d T=%g (re-run -update)",
					want.M, want.T, fx.m, fx.T)
			}
			for _, variant := range []struct {
				name string
				opt  core.Options
			}{
				{"1worker", core.Options{Workers: 1}},
				{"default", core.Options{}},
				{"8workers", core.Options{Workers: 8}},
			} {
				rows := solveCoeffRows(t, fx, variant.opt)
				if len(rows) != want.N {
					t.Fatalf("%s: n=%d, snapshot has %d", variant.name, len(rows), want.N)
				}
				for i := range rows {
					for j := range rows[i] {
						got, ref := rows[i][j], want.X[i][j]
						if math.Float64bits(got) != math.Float64bits(ref) {
							t.Fatalf("%s: X[%d][%d] = %.17g, golden %.17g (bits differ)",
								variant.name, i, j, got, ref)
						}
					}
				}
			}
		})
	}
}

// TestGoldenWaveformsHistoryFFT forces every golden fixture through the FFT
// fast-convolution history tier (the fixtures' m=256 sits below the auto
// crossover) and holds it to the ≤1e-10 relative acceptance bound against
// the exact-engine snapshots. Fixtures without fractional terms go through
// the recurrence fast path unchanged and simply confirm the mode is inert
// there.
func TestGoldenWaveformsHistoryFFT(t *testing.T) {
	if *updateGolden {
		t.Skip("snapshots are regenerated by TestGoldenWaveforms")
	}
	for _, fx := range goldenFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			buf, err := os.ReadFile(goldenPath(fx.name))
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			rows := solveCoeffRows(t, fx, core.Options{HistoryMode: core.HistoryFFT})
			scale := 0.0
			for i := range want.X {
				for j := range want.X[i] {
					if a := math.Abs(want.X[i][j]); a > scale {
						scale = a
					}
				}
			}
			for i := range rows {
				for j := range rows[i] {
					got, ref := rows[i][j], want.X[i][j]
					if math.Abs(got-ref) > 1e-10*(1+scale) {
						t.Fatalf("fft: X[%d][%d] = %.17g, golden %.17g (|Δ|=%g)",
							i, j, got, ref, math.Abs(got-ref))
					}
				}
			}
		})
	}
}

// TestSolveParallelDeterministic runs the fractional-line fixture across
// worker counts and asserts the Solution matrices are bitwise identical —
// the engine's ordered reduction makes the result independent of the
// parallelism degree.
func TestSolveParallelDeterministic(t *testing.T) {
	fx := goldenFixtures()[1] // fractional_line
	ref := solveCoeffRows(t, fx, core.Options{Workers: 1})
	for _, workers := range []int{2, 8} {
		got := solveCoeffRows(t, fx, core.Options{Workers: workers})
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: X[%d][%d] = %.17g, workers=1 got %.17g",
						workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// The golden snapshots double as documentation of scale; print a summary
// when -v is used so a failing CI log shows what is being compared.
func TestGoldenInventory(t *testing.T) {
	for _, fx := range goldenFixtures() {
		if _, err := os.Stat(goldenPath(fx.name)); err != nil {
			t.Errorf("golden snapshot for %q missing: %v", fx.name, err)
			continue
		}
		t.Log(fmt.Sprintf("%s: m=%d T=%g", fx.name, fx.m, fx.T))
	}
}
