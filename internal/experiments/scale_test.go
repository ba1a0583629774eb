package experiments

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Tiny end-to-end run of the scale harness (CI-sized grid): both legs must
// factor, agree, and produce a well-formed report.
func TestScaleBenchSmoke(t *testing.T) {
	cfg := ScaleConfig{Sizes: []int{1500}, M: 32, T: 10e-9, Solves: 2}
	tbl, rep, err := ScaleBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d/%d, want 1", len(rep.Rows), len(tbl.Rows))
	}
	row := rep.Rows[0]
	if row.States < 1000 {
		t.Fatalf("grid for n=1500 assembled only %d states", row.States)
	}
	if row.Parts < 2 || row.IfaceN <= 0 {
		t.Fatalf("degenerate BBD leg: parts=%d iface=%d", row.Parts, row.IfaceN)
	}
	if row.ScalarFactorNS <= 0 || row.BBDFactorNS <= 0 {
		t.Fatalf("missing timings: %+v", row)
	}
	if row.MaxRelDiff > 1e-8 {
		t.Fatalf("legs disagree: rel diff %g", row.MaxRelDiff)
	}
	if row.FactorSpeedup <= 0 || row.SolveSpeedup <= 0 {
		t.Fatalf("non-positive speedups: %+v", row)
	}
}

func TestScaleReportRoundTrip(t *testing.T) {
	rep := &ScaleReport{
		GOMAXPROCS: 1,
		Rows: []ScaleRow{
			{N: 1000, States: 1200, FactorSpeedup: 3.5, SolveSpeedup: 1.2, Parts: 4, IfaceN: 80},
		},
		Notes: []string{"test"},
	}
	path := filepath.Join(t.TempDir(), "scale.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScaleReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].FactorSpeedup != 3.5 || got.Rows[0].N != 1000 {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	if _, err := ReadScaleReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadScaleReport accepted a missing file")
	}
}

// Unit tests of the regression guard on synthetic reports: within tolerance
// passes, a >25% speedup regression fails, and disjoint size sets are a hard
// error rather than a silent pass.
func TestCompareScaleReports(t *testing.T) {
	mk := func(n int, speedup float64) *ScaleReport {
		return &ScaleReport{Rows: []ScaleRow{{N: n, FactorSpeedup: speedup}}}
	}
	if err := CompareScaleReports(mk(6000, 3.0), mk(6000, 3.5), 0.25); err != nil {
		t.Fatalf("14%% drift within the 25%% band failed: %v", err)
	}
	err := CompareScaleReports(mk(6000, 2.0), mk(6000, 3.5), 0.25)
	if err == nil {
		t.Fatal("43% regression passed the guard")
	}
	if !strings.Contains(err.Error(), "regression at n=6000") {
		t.Fatalf("unhelpful regression error: %v", err)
	}
	if err := CompareScaleReports(mk(6000, 3.0), mk(1000, 3.0), 0.25); err == nil {
		t.Fatal("guard matched no sizes but did not error")
	}
	// Extra current sizes are fine as long as the baseline sizes match.
	cur := &ScaleReport{Rows: []ScaleRow{{N: 1000, FactorSpeedup: 9.0}, {N: 6000, FactorSpeedup: 3.4}}}
	if err := CompareScaleReports(cur, mk(6000, 3.5), 0.25); err != nil {
		t.Fatalf("superset comparison failed: %v", err)
	}
	// The solve speedup is guarded the same way.
	mkSolve := func(factor, solve float64) *ScaleReport {
		return &ScaleReport{Rows: []ScaleRow{{N: 6000, FactorSpeedup: factor, SolveSpeedup: solve}}}
	}
	if err := CompareScaleReports(mkSolve(3.5, 1.6), mkSolve(3.5, 1.8), 0.25); err != nil {
		t.Fatalf("11%% solve drift within the 25%% band failed: %v", err)
	}
	err = CompareScaleReports(mkSolve(3.5, 1.2), mkSolve(3.5, 1.8), 0.25)
	if err == nil || !strings.Contains(err.Error(), "solve speedup") {
		t.Fatalf("33%% solve regression: got %v", err)
	}
	// Fill is a count: one nonzero more on either leg fails, whatever the
	// speedups.
	mkFill := func(scalar, bbd int) *ScaleReport {
		return &ScaleReport{Rows: []ScaleRow{{N: 6000, FactorSpeedup: 3.5, ScalarFillNNZ: scalar, BBDFillNNZ: bbd}}}
	}
	if err := CompareScaleReports(mkFill(444487, 543779), mkFill(444487, 543779), 0.25); err != nil {
		t.Fatalf("equal fill failed: %v", err)
	}
	for _, cur := range []*ScaleReport{mkFill(444488, 543779), mkFill(444487, 543778)} {
		if err := CompareScaleReports(cur, mkFill(444487, 543779), 0.25); err == nil || !strings.Contains(err.Error(), "fill changed") {
			t.Fatalf("fill %d/%d against 444487/543779: got %v", cur.Rows[0].ScalarFillNNZ, cur.Rows[0].BBDFillNNZ, err)
		}
	}
}

// medianOf takes the middle value whatever the order of the repeats.
func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3.04, 1.85, 2.48}); got != 2.48 {
		t.Fatalf("median of three = %g, want 2.48", got)
	}
}

// The report's solve times are per solve: timeIt already divides by the
// repeat count, and dividing again once reported times cfg.Solves too
// small. A clock that advances a fixed step per reading makes every timed
// region last exactly that step.
func TestScaleBenchSolveTimesArePerSolve(t *testing.T) {
	const step = 8 * time.Millisecond
	base := time.Unix(0, 0)
	reads := 0
	clock = func() time.Time {
		reads++
		return base.Add(time.Duration(reads) * step)
	}
	t.Cleanup(func() { clock = time.Now })
	const solves = 8
	_, rep, err := ScaleBench(ScaleConfig{Sizes: []int{1500}, M: 32, T: 10e-9, Solves: solves})
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row.ScalarFactorNS != step.Nanoseconds() || row.BBDFactorNS != step.Nanoseconds() {
		t.Fatalf("factor times %d/%d ns, want %d", row.ScalarFactorNS, row.BBDFactorNS, step.Nanoseconds())
	}
	want := (step / solves).Nanoseconds()
	if row.ScalarSolveNS != want || row.BBDSolveNS != want {
		t.Fatalf("solve times %d/%d ns, want %d per solve", row.ScalarSolveNS, row.BBDSolveNS, want)
	}
}
