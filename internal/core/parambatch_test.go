package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// randomSparseVec builds a sparse vector with nnz entries at distinct sorted
// indices in [0,n) and O(1)-magnitude values.
func randomSparseVec(rng *rand.Rand, n, nnz int) sparse.Vec {
	perm := rng.Perm(n)[:nnz]
	sort.Ints(perm)
	v := sparse.Vec{Idx: perm, Val: make([]float64, nnz)}
	for i := range v.Val {
		v.Val[i] = 0.5 + rng.Float64()
		if rng.Intn(2) == 0 {
			v.Val[i] = -v.Val[i]
		}
	}
	return v
}

// randomDelta builds a rank-r pencil delta spreading small rank-1 updates
// over random terms of sys — small scales keep the perturbed pencil
// comfortably nonsingular.
func randomDelta(rng *rand.Rand, sys *System, r int) *PencilDelta {
	n := sys.N()
	d := &PencilDelta{}
	for i := 0; i < r; i++ {
		nnz := 1 + rng.Intn(3)
		d.Updates = append(d.Updates, RankOne{
			Term:  rng.Intn(len(sys.Terms)),
			Scale: 0.02 + 0.05*rng.Float64(),
			U:     randomSparseVec(rng, n, nnz),
			V:     randomSparseVec(rng, n, nnz),
		})
	}
	return d
}

// maxRelErr returns max_ij |a−b| / (1 + max|b|), a scale-aware relative
// deviation over the coefficient grids.
func maxRelErr(a, b [][]float64) float64 {
	worst, scale := 0.0, 0.0
	for i := range b {
		for j := range b[i] {
			if v := math.Abs(b[i][j]); v > scale {
				scale = v
			}
		}
	}
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst / (1 + scale)
}

func denseRows(s *Solution) [][]float64 {
	x := s.Coefficients()
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = make([]float64, x.Cols())
		for j := range rows[i] {
			rows[i][j] = x.At(i, j)
		}
	}
	return rows
}

// The SMW property: for random deltas of rank 1..8, the update path agrees
// with solving the from-scratch materialized system to ≤1e-12 relative — on
// a mixed fractional/integer system with no recurrence shortcut.
func TestParamBatchSMWMatchesMaterialized(t *testing.T) {
	sys, u := fracTestSystem(8, 301)
	m, T := 96, 1.5
	rng := rand.New(rand.NewSource(77))
	for r := 1; r <= 8; r++ {
		d := randomDelta(rng, sys, r)
		scs := []Scenario{{U: u}, {U: u, Delta: d}}
		var rep SolveReport
		sols, err := SolveBatch(sys, scs, m, T, BatchOptions{
			Options:         Options{Report: &rep},
			UpdateRankLimit: 64, // force the SMW side of the crossover
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		psys, err := ApplyDelta(sys, d)
		if err != nil {
			t.Fatalf("rank %d: ApplyDelta: %v", r, err)
		}
		want, err := Solve(psys, u, m, T, Options{})
		if err != nil {
			t.Fatalf("rank %d: materialized solve: %v", r, err)
		}
		if got := maxRelErr(denseRows(sols[1]), denseRows(want)); got > 1e-12 {
			t.Fatalf("rank %d: SMW deviates from materialized solve by %.3g (> 1e-12)", r, got)
		}
		// The nominal scenario must stay bitwise-identical to plain Solve.
		nominal, err := Solve(sys, u, m, T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameDense(t, fmt.Sprintf("rank %d nominal", r), sols[0].Coefficients(), nominal.Coefficients())
		if rep.PencilUpdates == 0 || rep.PencilRefactors != 0 {
			t.Fatalf("rank %d: dispatch counters updates=%d refactors=%d, want SMW only",
				r, rep.PencilUpdates, rep.PencilRefactors)
		}
	}
}

// The crossover fallback contract: with the update path disabled, every
// delta scenario is bitwise-identical to Solve over the ApplyDelta
// materialization — across worker counts and history engines.
func TestParamBatchRefactorBitwiseMatchesMaterialized(t *testing.T) {
	sys, u := fracTestSystem(6, 113)
	m, T := 80, 1.2
	rng := rand.New(rand.NewSource(5))
	deltas := []*PencilDelta{nil, randomDelta(rng, sys, 2), randomDelta(rng, sys, 5)}
	scs := make([]Scenario, len(deltas))
	for s, d := range deltas {
		scs[s] = Scenario{U: u, Delta: d}
	}
	for _, workers := range []int{1, 4} {
		for _, mode := range []HistoryMode{HistoryExact, HistoryFFT} {
			opt := Options{Workers: workers, HistoryMode: mode}
			sols, err := SolveBatch(sys, scs, m, T, BatchOptions{
				Options:         opt,
				UpdateRankLimit: -1, // force per-scenario refactorization
				PanelWidth:      2,
			})
			if err != nil {
				t.Fatalf("workers=%d mode=%s: %v", workers, mode, err)
			}
			for s, d := range deltas {
				msys := sys
				if d != nil {
					var err error
					if msys, err = ApplyDelta(sys, d); err != nil {
						t.Fatal(err)
					}
				}
				want, err := Solve(msys, u, m, T, opt)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("workers=%d mode=%s scenario=%d", workers, mode, s)
				sameDense(t, name, sols[s].Coefficients(), want.Coefficients())
			}
		}
	}
}

// Initial states combine with deltas: order-0 updates shift the constant
// forcing term, and the SMW path must track the refactor path through it.
func TestParamBatchDeltaWithInitialState(t *testing.T) {
	e := csrFrom(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	a := csrFrom(3, 3, []float64{-1, 0.2, 0, 0.1, -1.5, 0.2, 0, 0.3, -2})
	b := csrFrom(3, 1, []float64{1, 0.5, 0.25})
	sys, err := NewDAE(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the order-0 term (index 1 after NewDAE: [E, G] ordering can
	// vary, so find it) with a rank-1 update.
	k0 := -1
	for k, tm := range sys.Terms {
		if isExactZero(tm.Order) {
			k0 = k
		}
	}
	if k0 < 0 {
		t.Fatal("no order-0 term")
	}
	d := &PencilDelta{Updates: []RankOne{{
		Term: k0, Scale: 0.1,
		U: sparse.Vec{Idx: []int{0, 2}, Val: []float64{1, -1}},
		V: sparse.Vec{Idx: []int{0, 2}, Val: []float64{1, -1}},
	}}}
	u := []waveform.Signal{waveform.Sine(1, 0.7, 0)}
	x0 := []float64{0.4, -0.3, 0.2}
	m, T := 128, 2.0
	scs := []Scenario{{U: u, X0: x0, Delta: d}}
	for _, limit := range []int{64, -1} { // SMW and refactor sides
		sols, err := SolveBatch(sys, scs, m, T, BatchOptions{UpdateRankLimit: limit})
		if err != nil {
			t.Fatalf("limit=%d: %v", limit, err)
		}
		psys, err := ApplyDelta(sys, d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(psys, u, m, T, Options{X0: x0})
		if err != nil {
			t.Fatal(err)
		}
		if limit < 0 {
			sameDense(t, "refactor+x0", sols[0].Coefficients(), want.Coefficients())
		} else if got := maxRelErr(denseRows(sols[0]), denseRows(want)); got > 1e-12 {
			t.Fatalf("SMW with X0 deviates by %.3g (> 1e-12)", got)
		}
	}
}

// The same parameter-varying batch run twice is bitwise-reproducible, and
// the counters report the dispatch: SMW updates, refactorizations, and the
// cache's update-hit ledger when a factor cache is attached.
func TestParamBatchDeterminismAndCounters(t *testing.T) {
	sys, u := fracTestSystem(7, 59)
	m, T := 64, 1.0
	rng := rand.New(rand.NewSource(21))
	scs := []Scenario{
		{U: u},
		{U: u, Delta: randomDelta(rng, sys, 2)},
		{U: u, Delta: randomDelta(rng, sys, 3)},
		{U: u, Delta: randomDelta(rng, sys, 7)},
	}
	cache := NewFactorCache(0)
	run := func() ([]*Solution, *SolveReport) {
		var rep SolveReport
		sols, err := SolveBatch(sys, scs, m, T, BatchOptions{
			Options:         Options{Report: &rep, FactorCache: cache, Workers: 3},
			UpdateRankLimit: 4, // ranks 2,3 → SMW; rank 7 → refactor
			PanelWidth:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sols, &rep
	}
	first, rep := run()
	if rep.PencilUpdates != 2 || rep.PencilRefactors != 1 {
		t.Fatalf("dispatch: updates=%d refactors=%d, want 2/1", rep.PencilUpdates, rep.PencilRefactors)
	}
	if rep.UpdateCrossoverRank != 4 {
		t.Fatalf("crossover rank %d, want the pinned 4", rep.UpdateCrossoverRank)
	}
	if rep.FactorCacheUpdateHits != 2 {
		t.Fatalf("report update hits = %d, want 2", rep.FactorCacheUpdateHits)
	}
	if _, uh, _ := cache.Stats(); uh != 2 {
		t.Fatalf("cache update hits = %d, want 2", uh)
	}
	second, _ := run()
	for s := range first {
		sameDense(t, fmt.Sprintf("rerun scenario %d", s), second[s].Coefficients(), first[s].Coefficients())
	}
}

// DiscardSolutions + OnColumn is the sweep driver's streaming shape: the
// hook must see exactly the columns the materialized solutions contain —
// including on an integer-order system, where discarding engages the
// short ring slab instead of full per-scenario column storage.
func TestParamBatchStreamingMatchesMaterialized(t *testing.T) {
	e := csrFrom(2, 2, []float64{1, 0, 0, 1})
	a := csrFrom(2, 2, []float64{-1, 0.2, 0.1, -1.5})
	b := csrFrom(2, 1, []float64{1, 0.5})
	sys, err := NewDAE(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	u := []waveform.Signal{waveform.Step(1, 0)}
	d := &PencilDelta{Updates: []RankOne{{
		Term: 0, Scale: 0.05,
		U: sparse.Vec{Idx: []int{1}, Val: []float64{1}},
		V: sparse.Vec{Idx: []int{1}, Val: []float64{1}},
	}}}
	scs := []Scenario{{U: u}, {U: u, Delta: d}}
	m, T := 96, 2.0
	sols, err := SolveBatch(sys, scs, m, T, BatchOptions{UpdateRankLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	streamed := make([][][]float64, len(scs))
	for s := range streamed {
		streamed[s] = make([][]float64, m)
	}
	hooked, err := SolveBatch(sys, scs, m, T, BatchOptions{
		UpdateRankLimit:  64,
		DiscardSolutions: true,
		OnColumn: func(j int, tj float64, cols [][]float64) {
			for s := range cols {
				streamed[s][j] = append([]float64(nil), cols[s]...)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked != nil {
		t.Fatalf("DiscardSolutions returned %d solutions, want nil", len(hooked))
	}
	for s := range scs {
		x := sols[s].Coefficients()
		for j := 0; j < m; j++ {
			for i := 0; i < 2; i++ {
				if got, want := streamed[s][j][i], x.At(i, j); !isExactEq(got, want) {
					t.Fatalf("scenario %d col %d state %d: streamed %.17g vs materialized %.17g",
						s, j, i, got, want)
				}
			}
		}
	}
}

// A parameter batch killed mid-sweep resumes from its checkpoint
// Float64bits-identically to the uninterrupted run, for all-SMW, all-refactor
// and mixed path assignments, on an integer-order system and on a CPE
// ladder over both history engines, at Workers 1 and 3 (the resume also
// changes Workers and PanelWidth). A resume under another crossover rank is
// refused.
func TestParamBatchResumeBitwise(t *testing.T) {
	second, u := intTestSystem(7, 3)
	ladder, lu := cpeLadderSystem(8, 0.6)
	cases := []struct {
		name    string
		sys     *System
		u       []waveform.Signal
		m       int
		mode    HistoryMode
		resumes []int
	}{
		{"second-order", second, u, 48, HistoryAuto, []int{1, 21, 47}},
		{"cpe-ladder/exact", ladder, lu, 48, HistoryExact, []int{21, 47}},
		{"cpe-ladder/fft", ladder, lu, 160, HistoryFFT, []int{37, 128, 130}},
	}
	paths := []struct {
		name            string
		limit           int
		updates, refacs int
	}{
		{"smw", 64, 10, 0},
		{"refactor", -1, 0, 10},
		{"mixed", 2, 5, 5}, // ranks 1, 2 → SMW; 3, 4 → refactor
	}
	const T, K = 1.5, 11
	for _, tc := range cases {
		scs := intDeltaScenarios(tc.sys, tc.u, K, 17, false)
		for _, p := range paths {
			opt := func(workers int) BatchOptions {
				return BatchOptions{
					Options:         Options{Workers: workers, HistoryMode: tc.mode},
					PanelWidth:      4,
					UpdateRankLimit: p.limit,
				}
			}
			var rep SolveReport
			ro := opt(1)
			ro.Report = &rep
			ref, err := SolveBatch(tc.sys, scs, tc.m, T, ro)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, p.name, err)
			}
			if rep.PencilUpdates != p.updates || rep.PencilRefactors != p.refacs {
				t.Fatalf("%s/%s: dispatch updates=%d refactors=%d, want %d/%d", tc.name, p.name,
					rep.PencilUpdates, rep.PencilRefactors, p.updates, p.refacs)
			}
			for _, workers := range []int{1, 3} {
				for _, j0 := range tc.resumes {
					name := fmt.Sprintf("%s/%s workers=%d resume=%d", tc.name, p.name, workers, j0)
					ctx, cancel := context.WithCancel(context.Background())
					cp := &Checkpoint{}
					ko := opt(workers)
					ko.CheckpointEvery = 8
					ko.OnCheckpoint = func(d *CheckpointDelta) {
						if err := cp.ApplyCheckpoint(d); err != nil {
							t.Errorf("%s: apply delta [%d,%d): %v", name, d.From, d.To, err)
						}
					}
					ko.OnColumn = func(col int, _ float64, _ [][]float64) {
						if col == j0-1 {
							cancel()
						}
					}
					_, err := SolveBatchCtx(ctx, tc.sys, scs, tc.m, T, ko)
					cancel()
					if !errors.Is(err, ErrCancelled) || cp.Columns != j0 {
						t.Fatalf("%s: killed run: err = %v, checkpoint holds %d columns", name, err, cp.Columns)
					}
					if cp.UpdateCrossoverRank != rep.UpdateCrossoverRank {
						t.Fatalf("%s: checkpoint crossover %d, report %d", name, cp.UpdateCrossoverRank, rep.UpdateCrossoverRank)
					}
					rs := opt(4 - workers)
					rs.PanelWidth = 3
					rs.ResumeFrom = cp
					sols, err := SolveBatch(tc.sys, scs, tc.m, T, rs)
					if err != nil {
						t.Fatalf("%s: resume: %v", name, err)
					}
					for s := range scs {
						sameDense(t, fmt.Sprintf("%s scenario %d", name, s), sols[s].Coefficients(), ref[s].Coefficients())
					}
					other := opt(workers)
					other.UpdateRankLimit = 3
					other.ResumeFrom = cp
					if _, err := SolveBatch(tc.sys, scs, tc.m, T, other); !errors.Is(err, ErrCheckpointMismatch) {
						t.Fatalf("%s: resume under another crossover rank: err = %v, want ErrCheckpointMismatch", name, err)
					}
				}
			}
		}
	}
}

// A DiscardSolutions parameter batch that emits checkpoints keeps whole
// slabs: it completes, and its deltas equal those of a run that keeps its
// solutions.
func TestParamBatchDiscardCheckpointDeltas(t *testing.T) {
	sys, u := intTestSystem(6, 41)
	scs := intDeltaScenarios(sys, u, 9, 23, false)
	const m, T = 40, 1.0
	run := func(discard bool) []*CheckpointDelta {
		var ds []*CheckpointDelta
		sols, err := SolveBatch(sys, scs, m, T, BatchOptions{
			PanelWidth:       4,
			UpdateRankLimit:  2,
			DiscardSolutions: discard,
			CheckpointEvery:  7,
			OnCheckpoint:     func(d *CheckpointDelta) { ds = append(ds, d) },
		})
		if err != nil {
			t.Fatalf("discard=%v: %v", discard, err)
		}
		if discard != (sols == nil) {
			t.Fatalf("discard=%v: got %d solutions", discard, len(sols))
		}
		return ds
	}
	got, want := run(true), run(false)
	if len(got) != len(want) || len(want) != (m-1)/7 {
		t.Fatalf("%d deltas with DiscardSolutions, %d without, want %d", len(got), len(want), (m-1)/7)
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.From != w.From || g.To != w.To || g.UpdateCrossoverRank != w.UpdateCrossoverRank {
			t.Fatalf("delta %d: [%d,%d) crossover %d, want [%d,%d) crossover %d", k, g.From, g.To, g.UpdateCrossoverRank, w.From, w.To, w.UpdateCrossoverRank)
		}
		for s := range w.Slabs {
			for i, v := range w.Slabs[s] {
				if math.Float64bits(g.Slabs[s][i]) != math.Float64bits(v) {
					t.Fatalf("delta %d scenario %d value %d: %x, want %x", k, s, i, math.Float64bits(g.Slabs[s][i]), math.Float64bits(v))
				}
			}
		}
	}
}

// The automatic crossover is a pure function of counts. At the calibration
// points of DESIGN.md §13 — each fixture's n, m, nnz(A), nnz(L+U) and factor
// multiply-adds as the sparse tier reports them — it picks the leg that
// measured faster: SMW at ranks 32 and 96 on the 768-state grid (and at
// rank 8, the Monte-Carlo sweep's), refactoring at rank 256, and SMW at
// rank 8 on the 102-state RC ladder. The 22-state rc-tol shape, whose legs
// measured within 1.3× of each other, is capped at n/2.
func TestCrossoverRankCalibration(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		n, m, nnzA, nnzF, mulAdds int
		want                      int
		smw, refactor             []int
	}{
		{"grid-768", 768, 64, 4672, 27488, 447224, 215, []int{8, 32, 96}, []int{256}},
		{"rc-ladder", 102, 64, 303, 303, 199, 34, []int{8}, nil},
		{"rc-tol", 22, 500, 63, 82, 79, 11, []int{8}, nil},
	} {
		got := crossoverRank(tc.n, tc.m, tc.nnzA, tc.nnzF, tc.mulAdds)
		if got != tc.want {
			t.Errorf("%s: crossover rank %d, want %d", tc.name, got, tc.want)
		}
		for _, r := range tc.smw {
			if r > got {
				t.Errorf("%s: rank %d refactors, measured faster on SMW", tc.name, r)
			}
		}
		for _, r := range tc.refactor {
			if r <= got {
				t.Errorf("%s: rank %d takes SMW, measured faster refactored", tc.name, r)
			}
		}
	}
	// The n/2 cap, and no rank at all for a pencil too small to update.
	if got := crossoverRank(1, 64, 1, 1, 0); got != -1 {
		t.Errorf("n=1: crossover rank %d, want -1", got)
	}
	if got := crossoverRank(10, 1<<20, 1000, 1000, 1<<30); got != 5 {
		t.Errorf("n=10: crossover rank %d, want the n/2 cap 5", got)
	}
}

// Delta validation errors carry the scenario index.
func TestParamBatchValidatesDeltas(t *testing.T) {
	sys, u := fracTestSystem(4, 13)
	bad := &PencilDelta{Updates: []RankOne{{
		Term: len(sys.Terms) + 3, Scale: 1,
		U: sparse.Vec{Idx: []int{0}, Val: []float64{1}},
		V: sparse.Vec{Idx: []int{0}, Val: []float64{1}},
	}}}
	_, err := SolveBatch(sys, []Scenario{{U: u}, {U: u, Delta: bad}}, 32, 1, BatchOptions{})
	if err == nil {
		t.Fatal("out-of-range term index should fail validation")
	}
}

// intDeltaScenarios builds K scenarios on an integer-order system: the
// nominal first, then deltas of rank 1..4 over random terms — order-0 terms
// included — with x0 on every third scenario when withX0 is set.
func intDeltaScenarios(sys *System, u []waveform.Signal, K int, seed int64, withX0 bool) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	scs := make([]Scenario, K)
	for s := range scs {
		scs[s].U = u
		if s > 0 {
			scs[s].Delta = randomDelta(rng, sys, 1+s%4)
		}
		if withX0 && s%3 == 1 {
			x0 := make([]float64, sys.N())
			for i := range x0 {
				x0[i] = rng.NormFloat64()
			}
			scs[s].X0 = x0
		}
	}
	return scs
}

// intDAESystem is a first-order (orders 1 and 0) integer system: the shape
// that admits a nonzero X0 on the panel-native route.
func intDAESystem(n int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	e, a, b := sparse.NewCOO(n, n), sparse.NewCOO(n, n), sparse.NewCOO(n, 1)
	for i := 0; i < n; i++ {
		e.Add(i, i, 1+0.1*rng.Float64())
		a.Add(i, i, -2-rng.Float64())
		if j := rng.Intn(n); j != i {
			a.Add(i, j, 0.1*rng.NormFloat64())
		}
		b.Add(i, 0, rng.NormFloat64())
	}
	sys, err := NewDAE(e.ToCSR(), a.ToCSR(), b.ToCSR())
	if err != nil {
		panic(err)
	}
	return sys
}

// cpeLadderSystem is an n-section RC ladder driven at its first node whose
// nodes each hold a constant-phase element of order α beside a capacitor:
// one fractional term on the history engine and one integer term on the
// recurrences.
func cpeLadderSystem(n int, alpha float64) (*System, []waveform.Signal) {
	cpe, c, g, b := sparse.NewCOO(n, n), sparse.NewCOO(n, n), sparse.NewCOO(n, n), sparse.NewCOO(n, 1)
	for i := 0; i < n; i++ {
		cpe.Add(i, i, 1)
		c.Add(i, i, 0.5)
		g.Add(i, i, 2) // a unit conductance to each neighbour (the source at node 0, a load at node n−1)
		if i > 0 {
			g.Add(i, i-1, -1)
			g.Add(i-1, i, -1)
		}
	}
	b.Add(0, 0, 1)
	sys := &System{
		Terms: []Term{
			{Order: alpha, Coeff: cpe.ToCSR()},
			{Order: 1, Coeff: c.ToCSR()},
			{Order: 0, Coeff: g.ToCSR()},
		},
		B: b.ToCSR(),
	}
	return sys, []waveform.Signal{waveform.Sine(1, 0.8, 0.3)}
}

// Delta batches take the panel step at every group width, width 1 included.
// Every width and worker count must give the same bits, so the rank-1 rhs
// corrections and Woodbury corrections are pinned across widths — with
// X0 ≠ 0 and order-0 updates in the integer rows, and corrections on the
// fractional term's engine panel in the CPE-ladder rows, whose scenario 5
// refactors (its rank exceeds the pinned UpdateRankLimit) into a one-wide
// group of its own. Each SMW scenario stays within 1e-12 of solving its
// materialized system, and the refactored one is bitwise that solve.
func TestParamBatchPanelBitwiseAcrossWidthsAndWorkers(t *testing.T) {
	second, u := intTestSystem(7, 3)
	dae := intDAESystem(6, 8)
	ladder, lu := cpeLadderSystem(8, 0.6)
	ladderScs := intDeltaScenarios(ladder, lu, 11, 19, false)
	ladderScs[5].Delta = randomDelta(rand.New(rand.NewSource(5)), ladder, 7)
	cases := []struct {
		name  string
		sys   *System
		u     []waveform.Signal
		scs   []Scenario
		m     int
		mode  HistoryMode
		limit int
		refac int // the scenario past limit, or −1
	}{
		{"second-order", second, u, intDeltaScenarios(second, u, 11, 17, false), 48, HistoryAuto, 64, -1},
		{"dae+x0", dae, u, intDeltaScenarios(dae, u, 11, 17, true), 48, HistoryAuto, 64, -1},
		{"cpe-ladder/exact", ladder, lu, ladderScs, 48, HistoryExact, 4, 5},
		{"cpe-ladder/fft", ladder, lu, ladderScs, 160, HistoryFFT, 4, 5},
	}
	const T = 1.5
	for _, tc := range cases {
		scs, m := tc.scs, tc.m
		wantRefac := 0
		if tc.refac >= 0 {
			wantRefac = 1
		}
		var ref []*Solution
		for _, workers := range []int{1, 4} {
			for _, width := range []int{1, 2, 7, 32} {
				var rep SolveReport
				sols, err := SolveBatch(tc.sys, scs, m, T, BatchOptions{
					Options:         Options{Workers: workers, HistoryMode: tc.mode, Report: &rep},
					PanelWidth:      width,
					UpdateRankLimit: tc.limit,
				})
				if err != nil {
					t.Fatalf("%s workers=%d width=%d: %v", tc.name, workers, width, err)
				}
				if rep.PencilUpdates != len(scs)-1-wantRefac || rep.PencilRefactors != wantRefac {
					t.Fatalf("%s: dispatch updates=%d refactors=%d, want %d/%d", tc.name,
						rep.PencilUpdates, rep.PencilRefactors, len(scs)-1-wantRefac, wantRefac)
				}
				if ref == nil {
					ref = sols
				}
				for s := range scs {
					name := fmt.Sprintf("%s workers=%d width=%d scenario=%d", tc.name, workers, width, s)
					sameDense(t, name, sols[s].Coefficients(), ref[s].Coefficients())
				}
				// The envelope shape: DiscardSolutions shrinks an
				// integer-order run's slabs to one column; the streamed
				// columns keep their bits.
				if _, err := SolveBatch(tc.sys, scs, m, T, BatchOptions{
					Options:         Options{Workers: workers, HistoryMode: tc.mode},
					PanelWidth:      width,
					UpdateRankLimit: tc.limit, DiscardSolutions: true,
					OnColumn: func(j int, _ float64, cols [][]float64) {
						for s, c := range cols {
							for i, v := range c {
								if want := ref[s].Coefficients().At(i, j); math.Float64bits(v) != math.Float64bits(want) {
									t.Fatalf("%s workers=%d width=%d: streamed scenario %d column %d state %d = %.17g, want %.17g",
										tc.name, workers, width, s, j, i, v, want)
								}
							}
						}
					},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for s, sc := range scs {
			psys, err := ApplyDelta(tc.sys, sc.Delta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Solve(psys, tc.u, m, T, Options{X0: sc.X0, HistoryMode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			if s == tc.refac {
				sameDense(t, tc.name+" refactored member", ref[s].Coefficients(), want.Coefficients())
			} else if got := maxRelErr(denseRows(ref[s]), denseRows(want)); got > 1e-12 {
				t.Fatalf("%s scenario %d: SMW deviates from the materialized solve by %.3g (> 1e-12)", tc.name, s, got)
			}
		}
	}
}

// A 32-wide integer-order group holding one refactored member (its rank
// exceeds the pinned limit) serves that member bitwise-identically to
// Solve(ApplyDelta(…)) and the SMW members within 1e-12 of it.
func TestParamBatchPanelGroupWithRefactoredMember(t *testing.T) {
	sys, u := intTestSystem(8, 29)
	m, T := 40, 1.0
	rng := rand.New(rand.NewSource(4))
	scs := make([]Scenario, 32)
	for s := range scs {
		r := 1 + s%3
		if s == 13 {
			r = 6
		}
		scs[s] = Scenario{U: u, Delta: randomDelta(rng, sys, r)}
	}
	var rep SolveReport
	sols, err := SolveBatch(sys, scs, m, T, BatchOptions{Options: Options{Report: &rep}, UpdateRankLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PencilUpdates != 31 || rep.PencilRefactors != 1 {
		t.Fatalf("dispatch updates=%d refactors=%d, want 31/1", rep.PencilUpdates, rep.PencilRefactors)
	}
	for s, sc := range scs {
		psys, err := ApplyDelta(sys, sc.Delta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(psys, u, m, T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s == 13 {
			sameDense(t, "refactored member", sols[s].Coefficients(), want.Coefficients())
		} else if got := maxRelErr(denseRows(sols[s]), denseRows(want)); got > 1e-12 {
			t.Fatalf("scenario %d: SMW deviates from the materialized solve by %.3g (> 1e-12)", s, got)
		}
	}
}

// Deltas whose update vectors are all distinct share nothing: the basis
// holds Σr columns, and only SMW scenarios contribute to it. Vectors are
// told apart by their values as well as their indices, and a vector equal
// bit for bit to one already registered (in another scenario, another
// backing array) reuses its column.
func TestParamBatchBasisColumnsDistinctDeltas(t *testing.T) {
	sys, u := intTestSystem(40, 6)
	m, T := 8, 1.0
	rng := rand.New(rand.NewSource(12))
	scs := []Scenario{{U: u}}
	sum := 0
	for r := 1; r <= 5; r++ {
		scs = append(scs, Scenario{U: u, Delta: randomDelta(rng, sys, r)})
		sum += r
	}
	scs = append(scs, Scenario{U: u, Delta: randomDelta(rng, sys, 9)}) // past the limit: refactored
	pair := func(a, b float64) sparse.Vec { return sparse.Vec{Idx: []int{3, 5}, Val: []float64{a, b}} }
	scs = append(scs,
		Scenario{U: u, Delta: &PencilDelta{Updates: []RankOne{
			{Term: 0, Scale: 0.03, U: pair(1, -1), V: pair(1, -1)},
			{Term: 1, Scale: 0.02, U: pair(1, 1), V: pair(1, 1)},
		}}},
		Scenario{U: u, Delta: &PencilDelta{Updates: []RankOne{
			{Term: 2, Scale: 0.04, U: pair(1, -1), V: pair(0.5, 2)},
		}}})
	sum += 2
	var rep SolveReport
	sols, err := SolveBatch(sys, scs, m, T, BatchOptions{Options: Options{Report: &rep}, UpdateRankLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdateBasisColumns != sum {
		t.Fatalf("basis columns %d, want Σr = %d", rep.UpdateBasisColumns, sum)
	}
	for s := len(scs) - 2; s < len(scs); s++ {
		psys, err := ApplyDelta(sys, scs[s].Delta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(psys, u, m, T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := maxRelErr(denseRows(sols[s]), denseRows(want)); got > 1e-12 {
			t.Fatalf("scenario %d: SMW deviates from the materialized solve by %.3g (> 1e-12)", s, got)
		}
	}
}
