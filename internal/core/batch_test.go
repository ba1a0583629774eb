package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"opmsim/internal/faultinject"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// batchScenarios builds K single-input scenarios with distinct waveforms, the
// "corner set sharing one pencil" shape SolveBatch exists for.
func batchScenarios(k int) []Scenario {
	scs := make([]Scenario, k)
	for s := range scs {
		amp := 0.5 + 0.25*float64(s)
		if s%3 == 0 {
			scs[s] = Scenario{U: []waveform.Signal{waveform.Step(amp, 0)}}
		} else {
			scs[s] = Scenario{U: []waveform.Signal{waveform.Sine(amp, 0.8+0.1*float64(s), 0.2)}}
		}
	}
	return scs
}

// Property (the batch determinism contract): SolveBatch over K scenarios is
// bitwise-identical, scenario by scenario, to K sequential Solve calls with
// the same Options — across worker counts and both history engines, on a
// mixed fractional/integer system with no recurrence shortcut.
func TestSolveBatchBitwiseMatchesSequential(t *testing.T) {
	sys, _ := fracTestSystem(6, 99)
	m, T := 160, 2.0
	scs := batchScenarios(7)
	for _, workers := range []int{1, 4} {
		for _, mode := range []HistoryMode{HistoryExact, HistoryFFT} {
			opt := Options{Workers: workers, HistoryMode: mode}
			sols, err := SolveBatch(sys, scs, m, T, BatchOptions{Options: opt, PanelWidth: 3})
			if err != nil {
				t.Fatalf("workers=%d mode=%s: %v", workers, mode, err)
			}
			for s, sc := range scs {
				want, err := Solve(sys, sc.U, m, T, opt)
				if err != nil {
					t.Fatalf("sequential scenario %d: %v", s, err)
				}
				name := fmt.Sprintf("workers=%d mode=%s scenario=%d", workers, mode, s)
				sameDense(t, name, sols[s].Coefficients(), want.Coefficients())
			}
		}
	}
}

// Workers 1 bounds a batch's group fan-out too: with more scenarios than
// PanelWidth the groups run in order on the calling goroutine, so a hook
// inside the group tasks (the FFT firings' WorkerFault) never sees a second
// group in flight. The results are the concurrent run's bits.
func TestSolveBatchWorkersOneRunsGroupsInOrder(t *testing.T) {
	sys, _ := fracTestSystem(4, 5)
	m, T := 160, 2.0
	scs := batchScenarios(5)
	var inFlight, peak, calls atomic.Int32
	hooks := &faultinject.Hooks{WorkerFault: func() {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		calls.Add(1)
		time.Sleep(50 * time.Microsecond) // widen the window a second group would need
		inFlight.Add(-1)
	}}
	bopt := BatchOptions{Options: Options{Workers: 1, HistoryMode: HistoryFFT, Fault: hooks}, PanelWidth: 1}
	got, err := SolveBatch(sys, scs, m, T, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("WorkerFault never ran: no FFT segment fired inside the group tasks")
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("Workers=1 batch ran %d group tasks at once, want 1", p)
	}
	bopt.Workers, bopt.Fault = 4, nil
	want, err := SolveBatch(sys, scs, m, T, bopt)
	if err != nil {
		t.Fatal(err)
	}
	for s := range scs {
		sameDense(t, fmt.Sprintf("scenario %d", s), got[s].Coefficients(), want[s].Coefficients())
	}
}

// Scenarios may carry per-scenario initial states (integer orders only, as
// in Solve); the batch must match sequential solves with Options.X0 set.
func TestSolveBatchWithInitialStates(t *testing.T) {
	e := csrFrom(2, 2, []float64{1, 0, 0, 1})
	a := csrFrom(2, 2, []float64{-1, 0.2, 0.1, -1.5})
	b := csrFrom(2, 1, []float64{1, 0.5})
	sys, err := NewDAE(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	m, T := 128, 3.0
	scs := make([]Scenario, 5)
	for s := range scs {
		scs[s] = Scenario{
			U:  []waveform.Signal{waveform.Step(1, 0)},
			X0: []float64{0.1 * float64(s), -0.2 * float64(s)},
		}
	}
	sols, err := SolveBatch(sys, scs, m, T, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s, sc := range scs {
		want, err := Solve(sys, sc.U, m, T, Options{X0: sc.X0})
		if err != nil {
			t.Fatal(err)
		}
		sameDense(t, fmt.Sprintf("scenario %d", s), sols[s].Coefficients(), want.Coefficients())
	}
}

// The scenario-group partition is a pure function of (K, PanelWidth), so
// every width must give the same bits — including widths of 1 (pure scalar
// fallback shape) and widths exceeding K.
func TestSolveBatchPanelWidthInvariance(t *testing.T) {
	sys, _ := fracTestSystem(5, 17)
	m, T := 96, 1.5
	scs := batchScenarios(6)
	ref, err := SolveBatch(sys, scs, m, T, BatchOptions{PanelWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 64} {
		sols, err := SolveBatch(sys, scs, m, T, BatchOptions{PanelWidth: w})
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		for s := range scs {
			sameDense(t, fmt.Sprintf("width=%d scenario=%d", w, s),
				sols[s].Coefficients(), ref[s].Coefficients())
		}
	}
}

// The batch report accounts one column and one tier solve per scenario per
// column, and mirrors the factorization cache counters.
func TestSolveBatchReportAccounting(t *testing.T) {
	sys, _ := fracTestSystem(4, 23)
	m, T := 64, 1.0
	scs := batchScenarios(3)
	cache := NewFactorCache(4)
	var rep SolveReport
	if _, err := SolveBatch(sys, scs, m, T, BatchOptions{
		Options: Options{Report: &rep, FactorCache: cache},
	}); err != nil {
		t.Fatal(err)
	}
	if rep.Columns != 3*m {
		t.Fatalf("Columns = %d, want %d", rep.Columns, 3*m)
	}
	total := 0
	for _, c := range rep.TierSolves {
		total += c
	}
	if total != 3*m {
		t.Fatalf("TierSolves total = %d, want %d", total, 3*m)
	}
	if rep.FactorCacheMisses != 1 || rep.FactorCacheHits != 0 {
		t.Fatalf("fresh cache: hits=%d misses=%d, want 0/1", rep.FactorCacheHits, rep.FactorCacheMisses)
	}
	// A second batch over the same pencil is served from the cache.
	var rep2 SolveReport
	if _, err := SolveBatch(sys, scs, m, T, BatchOptions{
		Options: Options{Report: &rep2, FactorCache: cache},
	}); err != nil {
		t.Fatal(err)
	}
	if rep2.FactorCacheHits != 1 || rep2.FactorCacheMisses != 0 {
		t.Fatalf("warm cache: hits=%d misses=%d, want 1/0", rep2.FactorCacheHits, rep2.FactorCacheMisses)
	}
}

// Input validation: scenario count, per-scenario input arity, and X0
// restrictions surface as errors naming the offending scenario.
func TestSolveBatchValidation(t *testing.T) {
	sys, _ := fracTestSystem(3, 31)
	if _, err := SolveBatch(sys, nil, 16, 1, BatchOptions{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	scs := []Scenario{{U: nil}}
	if _, err := SolveBatch(sys, scs, 16, 1, BatchOptions{}); err == nil {
		t.Fatal("scenario with missing inputs accepted")
	}
	// Fractional system rejects initial states, per scenario.
	scs = []Scenario{{U: []waveform.Signal{waveform.Zero()}, X0: []float64{1, 0, 0}}}
	if _, err := SolveBatch(sys, scs, 16, 1, BatchOptions{}); err == nil {
		t.Fatal("X0 on fractional system accepted")
	}
}

// intTestSystem builds an n-state all-integer-order system (orders 2, 1, 0)
// with input-derivative coupling — the shape that takes the batch engine's
// panel-native fast path (panel history recurrences, MulPanelAdd assembly).
func intTestSystem(n int, seed int64) (*System, []waveform.Signal) {
	rng := rand.New(rand.NewSource(seed))
	diag := func(base float64) *sparse.CSR {
		c := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, base+0.1*rng.Float64())
			if j := rng.Intn(n); j != i {
				c.Add(i, j, 0.05*rng.NormFloat64())
			}
		}
		return c.ToCSR()
	}
	bcoo := sparse.NewCOO(n, 1)
	for i := 0; i < n; i++ {
		bcoo.Add(i, 0, rng.NormFloat64())
	}
	sys := &System{
		Terms: []Term{
			{Order: 2, Coeff: diag(1)},
			{Order: 1, Coeff: diag(0.6)},
			{Order: 0, Coeff: diag(4)},
		},
		B:      bcoo.ToCSR(),
		BOrder: 1,
	}
	return sys, []waveform.Signal{waveform.Sine(1, 0.8, 0.3)}
}

// The panel-native fast path (all-integer orders, second-order lag ring,
// BOrder input coupling) must also be bitwise-identical to sequential Solve
// calls — across worker counts and panel widths that split the scenario set
// unevenly.
func TestSolveBatchBitwiseIntegerFastPath(t *testing.T) {
	sys, _ := intTestSystem(7, 41)
	m, T := 160, 2.0
	scs := batchScenarios(9)
	for _, workers := range []int{1, 4} {
		for _, width := range []int{1, 4, 32} {
			sols, err := SolveBatch(sys, scs, m, T, BatchOptions{
				Options: Options{Workers: workers}, PanelWidth: width,
			})
			if err != nil {
				t.Fatalf("workers=%d width=%d: %v", workers, width, err)
			}
			for s, sc := range scs {
				want, err := Solve(sys, sc.U, m, T, Options{Workers: workers})
				if err != nil {
					t.Fatalf("sequential scenario %d: %v", s, err)
				}
				name := fmt.Sprintf("workers=%d width=%d scenario=%d", workers, width, s)
				sameDense(t, name, sols[s].Coefficients(), want.Coefficients())
			}
		}
	}
}
