package core

import (
	"testing"

	"opmsim/internal/waveform"
)

// Hit/miss accounting: the first solve of a pencil misses and stores, every
// repeat hits, and both the cache and the per-run reports agree.
func TestFactorCacheHitMissAccounting(t *testing.T) {
	sys, u := fracTestSystem(5, 7)
	cache := NewFactorCache(8)
	for run := 0; run < 3; run++ {
		var rep SolveReport
		if _, err := Solve(sys, u, 64, 1, Options{FactorCache: cache, Report: &rep}); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			if rep.FactorCacheMisses != 1 || rep.FactorCacheHits != 0 {
				t.Fatalf("run 0: hits=%d misses=%d, want 0/1", rep.FactorCacheHits, rep.FactorCacheMisses)
			}
		} else if rep.FactorCacheHits != 1 || rep.FactorCacheMisses != 0 {
			t.Fatalf("run %d: hits=%d misses=%d, want 1/0", run, rep.FactorCacheHits, rep.FactorCacheMisses)
		}
	}
	hits, _, misses := cache.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("cache stats: hits=%d misses=%d, want 2/1", hits, misses)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}

// Cached results must be bitwise-identical to freshly factored ones.
func TestFactorCacheBitwiseIdentical(t *testing.T) {
	sys, u := fracTestSystem(6, 13)
	m, T := 96, 1.5
	want, err := Solve(sys, u, m, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFactorCache(0)
	for run := 0; run < 2; run++ {
		got, err := Solve(sys, u, m, T, Options{FactorCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		sameDense(t, "cached run", got.Coefficients(), want.Coefficients())
	}
}

// Eviction: a capacity-1 cache holds only the most recent pencil, so
// alternating between two pencils never hits.
func TestFactorCacheEviction(t *testing.T) {
	sys, u := fracTestSystem(5, 19)
	cache := NewFactorCache(1)
	// Different T → different h → different key: two distinct pencils.
	spans := []float64{1.0, 2.0, 1.0, 2.0}
	for _, T := range spans {
		if _, err := Solve(sys, u, 32, T, Options{FactorCache: cache}); err != nil {
			t.Fatal(err)
		}
		if cache.Len() != 1 {
			t.Fatalf("capacity-1 cache holds %d entries", cache.Len())
		}
	}
	hits, _, misses := cache.Stats()
	if hits != 0 || misses != len(spans) {
		t.Fatalf("alternating pencils: hits=%d misses=%d, want 0/%d", hits, misses, len(spans))
	}
	// Repeating the last span now hits: the entry survived.
	if _, err := Solve(sys, u, 32, 2.0, Options{FactorCache: cache}); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := cache.Stats(); hits != 1 {
		t.Fatalf("repeat of resident pencil: hits=%d, want 1", hits)
	}
}

// The key fingerprints matrix *contents*, not identity: mutating a
// coefficient in place must miss (a stale hit would silently solve the old
// circuit), and restoring the original value must hit again.
func TestFactorCacheMutationCannotHit(t *testing.T) {
	sys, u := fracTestSystem(5, 29)
	cache := NewFactorCache(8)
	solve := func() { // same system object every time; only Val contents change
		t.Helper()
		if _, err := Solve(sys, u, 32, 1, Options{FactorCache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	orig := sys.Terms[0].Coeff.Val[0]
	sys.Terms[0].Coeff.Val[0] = orig * 1.5
	solve()
	hits, _, misses := cache.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("after in-place mutation: hits=%d misses=%d, want 0/2", hits, misses)
	}
	sys.Terms[0].Coeff.Val[0] = orig
	solve()
	if hits, _, _ := cache.Stats(); hits != 1 {
		t.Fatalf("after restoring contents: hits=%d, want 1", hits)
	}
}

// Adaptive grids route their per-step factorizations through the shared
// cache: a repeat run over the same step ladder is served entirely from
// cache, and results stay bitwise-identical.
func TestFactorCacheServesAdaptiveGrids(t *testing.T) {
	sys, u := fracTestSystem(4, 37)
	steps := []float64{0.05, 0.08, 0.12, 0.2, 0.3, 0.45}
	want, err := SolveAdaptive(sys, u, steps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFactorCache(8)
	if _, err := SolveAdaptive(sys, u, steps, Options{FactorCache: cache}); err != nil {
		t.Fatal(err)
	}
	_, _, missesFirst := cache.Stats()
	got, err := SolveAdaptive(sys, u, steps, Options{FactorCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	sameDense(t, "adaptive cached", got.Coefficients(), want.Coefficients())
	hits, _, misses := cache.Stats()
	if misses != missesFirst {
		t.Fatalf("repeat adaptive run refactored: misses %d -> %d", missesFirst, misses)
	}
	if hits < missesFirst {
		t.Fatalf("repeat adaptive run: hits=%d, want >= %d", hits, missesFirst)
	}
}

// Waveform variation over a shared pencil — the sweep shape — is the cache's
// target workload: K solves, 1 miss, K−1 hits.
func TestFactorCacheSweepWorkload(t *testing.T) {
	sys, _ := fracTestSystem(5, 43)
	cache := NewFactorCache(0)
	const k = 6
	for s := 0; s < k; s++ {
		u := []waveform.Signal{waveform.Sine(1+0.1*float64(s), 1, 0)}
		if _, err := Solve(sys, u, 32, 1, Options{FactorCache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	hits, _, misses := cache.Stats()
	if misses != 1 || hits != k-1 {
		t.Fatalf("sweep: hits=%d misses=%d, want %d/1", hits, misses, k-1)
	}
}
