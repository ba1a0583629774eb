package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"opmsim/internal/faultinject"
	"opmsim/internal/waveform"
)

// cpTestCase is one (system, grid, engine) configuration for the resume
// conformance matrix, covering all three history paths the batch solver can
// take: the general path with the exact tier, the general path with the FFT
// tier (m large enough that segments fire before and after typical resume
// points), and the integer-order panel-native fast path.
type cpTestCase struct {
	name    string
	sys     func(t *testing.T) *System
	m       int
	T       float64
	K       int
	opt     func() BatchOptions
	resumes []int // checkpoint sizes (committed columns) to resume from
}

func fractionalTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewFDE(scalarCSR(1), scalarCSR(-1), scalarCSR(1), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func oscillatorTestSystem(t *testing.T) *System {
	t.Helper()
	sys := &System{
		Terms: []Term{
			{Order: 2, Coeff: scalarCSR(1)},
			{Order: 0, Coeff: scalarCSR(9)},
		},
		B: scalarCSR(1),
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func cpCases() []cpTestCase {
	return []cpTestCase{
		{
			name: "exact", sys: fractionalTestSystem, m: 96, T: 2, K: 3,
			opt:     func() BatchOptions { return BatchOptions{Options: Options{HistoryMode: HistoryExact}} },
			resumes: []int{1, 37, 64, 95},
		},
		{
			name: "fft", sys: fractionalTestSystem, m: 192, T: 2, K: 2,
			opt:     func() BatchOptions { return BatchOptions{Options: Options{HistoryMode: HistoryFFT}} },
			resumes: []int{37, 64, 128, 130, 191},
		},
		{
			name: "fast-panel", sys: oscillatorTestSystem, m: 80, T: 2, K: 5,
			opt:     func() BatchOptions { return BatchOptions{PanelWidth: 2} },
			resumes: []int{1, 40, 79},
		},
	}
}

func cpScenarios(k int) []Scenario {
	scs := make([]Scenario, k)
	for s := range scs {
		scs[s] = Scenario{U: []waveform.Signal{waveform.Step(1+0.25*float64(s), 0)}}
	}
	return scs
}

// checkpointThrough runs the batch until j0 columns have committed, captures
// the abort checkpoint, and returns it. The interruption is a context cancel
// issued from the OnColumn hook — the same mechanism a disconnected client
// or a drain uses.
func checkpointThrough(t *testing.T, tc cpTestCase, sys *System, scs []Scenario, j0 int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp := &Checkpoint{}
	opt := tc.opt()
	opt.CheckpointEvery = 16
	opt.OnCheckpoint = func(d *CheckpointDelta) {
		if err := cp.ApplyCheckpoint(d); err != nil {
			t.Errorf("apply delta [%d,%d): %v", d.From, d.To, err)
		}
	}
	opt.OnColumn = func(col int, _ float64, _ [][]float64) {
		if col == j0-1 {
			cancel()
		}
	}
	_, err := SolveBatchCtx(ctx, sys, scs, tc.m, tc.T, opt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("interrupted solve: err = %v, want ErrCancelled", err)
	}
	if cp.Columns != j0 {
		t.Fatalf("checkpoint has %d columns after cancel at %d", cp.Columns, j0)
	}
	return cp
}

// TestCheckpointResumeBitwise is the core conformance matrix: for every
// engine path and a set of resume points (mid-segment, at FFT segment
// boundaries, first and last column), a solve interrupted at a
// column boundary and resumed from its checkpoint must reproduce the
// uninterrupted solution bit for bit — including under different Workers and
// PanelWidth than the original run.
func TestCheckpointResumeBitwise(t *testing.T) {
	for _, tc := range cpCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := tc.sys(t)
			scs := cpScenarios(tc.K)
			ref, err := SolveBatch(sys, scs, tc.m, tc.T, tc.opt())
			if err != nil {
				t.Fatal(err)
			}
			for _, j0 := range tc.resumes {
				cp := checkpointThrough(t, tc, sys, scs, j0)
				ropt := tc.opt()
				// Different parallelism and panel partition than the
				// original run: neither may change bits.
				ropt.Options.Workers = 3
				ropt.PanelWidth = 3
				ropt.ResumeFrom = cp
				first := -1
				ropt.OnColumn = func(col int, _ float64, _ [][]float64) {
					if first < 0 {
						first = col
					}
				}
				sols, err := SolveBatch(sys, scs, tc.m, tc.T, ropt)
				if err != nil {
					t.Fatalf("resume from %d: %v", j0, err)
				}
				if first != j0 && !(j0 == tc.m && first == -1) {
					t.Fatalf("resume from %d: OnColumn started at %d", j0, first)
				}
				n := sys.N()
				for s := range sols {
					got, want := sols[s].Coefficients(), ref[s].Coefficients()
					for i := 0; i < n; i++ {
						for j := 0; j < tc.m; j++ {
							if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
								t.Fatalf("resume from %d: scenario %d state %d column %d: %x != %x",
									j0, s, i, j, math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
							}
						}
					}
				}
			}
		})
	}
}

// TestCheckpointStateColumn verifies that StateColumn reproduces the exact
// bits the solver's OnColumn hook emitted for the committed prefix — the
// basis for the service's stream replay on resume.
func TestCheckpointStateColumn(t *testing.T) {
	tc := cpCases()[0]
	sys := tc.sys(t)
	scs := cpScenarios(tc.K)
	n := sys.N()

	streamed := make([][][]float64, tc.K) // [scenario][column][state]
	opt := tc.opt()
	opt.OnColumn = func(col int, _ float64, cols [][]float64) {
		for s := range cols {
			streamed[s] = append(streamed[s], append([]float64(nil), cols[s]...))
		}
	}
	if _, err := SolveBatch(sys, scs, tc.m, tc.T, opt); err != nil {
		t.Fatal(err)
	}

	cp := checkpointThrough(t, tc, sys, scs, 64)
	dst := make([]float64, n)
	for s := 0; s < tc.K; s++ {
		for j := 0; j < cp.Columns; j++ {
			if err := cp.StateColumn(dst, s, j, scs[s].X0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(dst[i]) != math.Float64bits(streamed[s][j][i]) {
					t.Fatalf("scenario %d column %d state %d: replay %x != streamed %x",
						s, j, i, math.Float64bits(dst[i]), math.Float64bits(streamed[s][j][i]))
				}
			}
		}
	}
	if err := cp.StateColumn(dst, 0, cp.Columns, nil); err == nil {
		t.Fatal("StateColumn accepted an uncommitted column")
	}
}

// TestCheckpointValidation exercises the mismatch taxonomy: every header
// field that pins a checkpoint to its solve must be enforced, and deltas
// must land exactly on the committed boundary.
func TestCheckpointValidation(t *testing.T) {
	tc := cpCases()[0]
	sys := tc.sys(t)
	scs := cpScenarios(tc.K)
	cp := checkpointThrough(t, tc, sys, scs, 32)

	run := func(mut func(o *BatchOptions, cp2 *Checkpoint), m int, k int) error {
		o := tc.opt()
		cp2 := &Checkpoint{}
		*cp2 = *cp
		o.ResumeFrom = cp2
		if mut != nil {
			mut(&o, cp2)
		}
		_, err := SolveBatch(sys, cpScenarios(k), m, tc.T, o)
		return err
	}
	if err := run(nil, tc.m, tc.K); err != nil {
		t.Fatalf("control resume failed: %v", err)
	}
	cases := map[string]error{
		"wrong-m":      run(nil, tc.m+1, tc.K),
		"wrong-k":      run(nil, tc.m, tc.K+1),
		"wrong-engine": run(func(o *BatchOptions, _ *Checkpoint) { o.HistoryMode = HistoryFFT }, tc.m, tc.K),
		"wrong-T":      run(func(_ *BatchOptions, c *Checkpoint) { c.T = tc.T * (1 + 1e-16) }, tc.m, tc.K),
		"bad-columns":  run(func(_ *BatchOptions, c *Checkpoint) { c.Columns = tc.m + 5 }, tc.m, tc.K),
		// A batch without pencil deltas resolves no crossover rank (0).
		"wrong-crossover": run(func(_ *BatchOptions, c *Checkpoint) { c.UpdateCrossoverRank = 4 }, tc.m, tc.K),
	}
	// wrong-T: nudging by one ulp-scale factor may round back to the same
	// float; force a genuinely different T.
	cpT := &Checkpoint{}
	*cpT = *cp
	cpT.T = tc.T + 1
	o := tc.opt()
	o.ResumeFrom = cpT
	_, errT := SolveBatch(sys, scs, tc.m, tc.T, o)
	cases["wrong-T"] = errT
	for name, err := range cases {
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: err = %v, want ErrCheckpointMismatch", name, err)
		}
	}

	// Delta continuity: a gap or a malformed shape must be rejected.
	d := &CheckpointDelta{N: cp.N, M: cp.M, K: cp.K, T: cp.T, Engine: cp.Engine, From: cp.Columns + 1, To: cp.Columns + 2}
	d.Slabs = make([][]float64, cp.K)
	for s := range d.Slabs {
		d.Slabs[s] = make([]float64, cp.N)
	}
	if err := cp.ApplyCheckpoint(d); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("gap delta: err = %v, want ErrCheckpointMismatch", err)
	}
	d.From, d.To, d.UpdateCrossoverRank = cp.Columns, cp.Columns+1, cp.UpdateCrossoverRank+1
	if err := cp.ApplyCheckpoint(d); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("crossover-rank delta: err = %v, want ErrCheckpointMismatch", err)
	}
	d.UpdateCrossoverRank = cp.UpdateCrossoverRank
	d.From, d.To = cp.Columns, cp.Columns+2 // slab length no longer matches
	if err := cp.ApplyCheckpoint(d); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("short slab delta: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestPencilFingerprint pins the breaker key's semantics: deterministic
// across calls and across independently-built equal systems, sensitive to
// the grid step and to the pencil values.
func TestPencilFingerprint(t *testing.T) {
	sysA := fractionalTestSystem(t)
	sysB := fractionalTestSystem(t)
	fpA, err := PencilFingerprint(sysA, 96, 2)
	if err != nil {
		t.Fatal(err)
	}
	fpA2, err := PencilFingerprint(sysA, 96, 2)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := PencilFingerprint(sysB, 96, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpA2 || fpA != fpB {
		t.Fatalf("fingerprint not deterministic: %x %x %x", fpA, fpA2, fpB)
	}
	// The value itself is pinned: a journal or breaker key must not move
	// when the hashing code is reorganized.
	if fpA != 0xa788bf2b4d8e2a79 {
		t.Fatalf("fingerprint %#x, pinned 0xa788bf2b4d8e2a79", fpA)
	}
	fpM, err := PencilFingerprint(sysA, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	fpT, err := PencilFingerprint(sysA, 96, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fpM == fpA || fpT == fpA {
		t.Fatalf("fingerprint insensitive to grid: m %x T %x base %x", fpM, fpT, fpA)
	}
	fpOsc, err := PencilFingerprint(oscillatorTestSystem(t), 96, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fpOsc == fpA || fpOsc != 0xe4e4c48defd4f254 {
		t.Fatalf("oscillator fingerprint %#x: equal to the base %#x or not the pinned 0xe4e4c48defd4f254", fpOsc, fpA)
	}
}

// TestCheckpointDeltaBoundaries verifies interval emission: with
// CheckpointEvery = e, deltas land exactly on absolute multiples of e plus
// one final tail delta on abort, contiguous and in order.
func TestCheckpointDeltaBoundaries(t *testing.T) {
	tc := cpCases()[0]
	sys := tc.sys(t)
	scs := cpScenarios(tc.K)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bounds [][2]int
	opt := tc.opt()
	opt.CheckpointEvery = 16
	opt.OnCheckpoint = func(d *CheckpointDelta) { bounds = append(bounds, [2]int{d.From, d.To}) }
	opt.OnColumn = func(col int, _ float64, _ [][]float64) {
		if col == 40 {
			cancel()
		}
	}
	_, err := SolveBatchCtx(ctx, sys, scs, tc.m, tc.T, opt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	want := [][2]int{{0, 16}, {16, 32}, {32, 41}}
	if len(bounds) != len(want) {
		t.Fatalf("deltas %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("deltas %v, want %v", bounds, want)
		}
	}
}

// TestCheckpointOverlappedFaults checks the checkpoint a faulted run leaves
// when several scenario groups fan out (K = 70 at PanelWidth 32: groups of
// 32, 32 and 6) and column j's OnColumn call overlaps column j+1's solve: a
// cancel from OnColumn(j), a NaN at column j and a panic inside the group
// tasks at column j must leave the Workers 1 run's column count at Workers
// 2 and 4, and resuming from it must reproduce the uninterrupted run bit
// for bit.
func TestCheckpointOverlappedFaults(t *testing.T) {
	const K, col = 70, 21
	for _, tc := range []struct {
		name string
		sys  func(t *testing.T) *System
		mode HistoryMode
	}{
		{"panel", oscillatorTestSystem, HistoryAuto},
		{"member", fractionalTestSystem, HistoryExact},
	} {
		sys := tc.sys(t)
		scs := cpScenarios(K)
		const m, T = 40, 2.0
		base := BatchOptions{Options: Options{HistoryMode: tc.mode}, PanelWidth: 32}
		ref, err := SolveBatch(sys, scs, m, T, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, fc := range []struct {
			fault string
			cols  int // committed columns the checkpoint must hold
		}{{"cancel", col + 1}, {"nan", col}, {"panic", col}} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", tc.name, fc.fault, workers)
				ctx, cancel := context.WithCancel(context.Background())
				cp := &Checkpoint{}
				opt := base
				opt.Workers = workers
				opt.CheckpointEvery = 8
				opt.OnCheckpoint = func(d *CheckpointDelta) {
					if err := cp.ApplyCheckpoint(d); err != nil {
						t.Errorf("%s: apply delta [%d,%d): %v", name, d.From, d.To, err)
					}
				}
				opt.OnColumn = func(c int, _ float64, _ [][]float64) {
					if fc.fault == "cancel" && c == col {
						cancel()
					}
				}
				switch fc.fault {
				case "nan":
					opt.Fault = faultinject.NaNAt(col, -1)
				case "panic":
					opt.Fault = &faultinject.Hooks{CorruptColumn: func(c int, _ []float64) {
						if c == col {
							panic("injected group-task panic")
						}
					}}
				}
				_, err := SolveBatchCtx(ctx, sys, scs, m, T, opt)
				cancel()
				if err == nil {
					t.Fatalf("%s: the faulted run succeeded", name)
				}
				if cp.Columns != fc.cols {
					t.Fatalf("%s: checkpoint holds %d columns, want %d (%v)", name, cp.Columns, fc.cols, err)
				}
				ropt := base
				ropt.Workers = 4
				ropt.ResumeFrom = cp
				sols, err := SolveBatch(sys, scs, m, T, ropt)
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				for s := range sols {
					got, want := sols[s].Coefficients(), ref[s].Coefficients()
					for i := 0; i < sys.N(); i++ {
						for j := 0; j < m; j++ {
							if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
								t.Fatalf("%s: resumed scenario %d state %d column %d differs", name, s, i, j)
							}
						}
					}
				}
			}
		}
	}
}
