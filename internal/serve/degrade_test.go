package serve

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
)

// fakeClock is a mutable injected clock for deadline and breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// ---- deadline expiry --------------------------------------------------------

// TestDeadlineSuspendsResumable runs a paced job under a short per-request
// deadline: the stream must end with a typed resumable "deadline" error, and
// resuming must finish the job (the second attempt runs unpaced, inside a
// fresh budget, on a checkpoint interval halved by the strike). Neither
// attempt may leave a goroutine behind.
func TestDeadlineSuspendsResumable(t *testing.T) {
	base := goroutineBaseline(t)
	srv := New(Config{Workers: 1, CheckpointEvery: 4})
	var expired atomic.Bool
	srv.columnHook = func(string, int) {
		if !expired.Load() {
			time.Sleep(3 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := solveBody(tinyDeck, 64, 1, 1, 1, `"deadline": 0.04`)
	res := submit(t, ts.Client(), ts.URL, body)
	if res.status != 200 {
		t.Fatalf("status = %d (%s)", res.status, res.rawErr)
	}
	if res.errRec == nil || res.errRec.Kind != "deadline" || !res.errRec.Resumable {
		t.Fatalf("trailer = %+v, want resumable kind=deadline", res.errRec)
	}
	if res.errRec.Job == "" || res.errRec.NextColumn != len(res.columns) {
		t.Fatalf("trailer handle = %q/%d with %d columns received",
			res.errRec.Job, res.errRec.NextColumn, len(res.columns))
	}
	snap := scrapeMetrics(t, ts.Client(), ts.URL)
	if snap.Resilience.DeadlineExpiries != 1 || snap.Resilience.Suspended != 1 {
		t.Fatalf("metrics: deadlineExpiries=%d suspended=%d, want 1/1",
			snap.Resilience.DeadlineExpiries, snap.Resilience.Suspended)
	}

	expired.Store(true)
	_, rest, errRec, done := resumeStream(t, ts.Client(), ts.URL, res.errRec.Job, res.errRec.NextColumn)
	if errRec != nil || !done {
		t.Fatalf("resume after deadline: err=%+v done=%v", errRec, done)
	}
	if len(res.columns)+len(rest) != 64 {
		t.Fatalf("combined columns = %d, want 64", len(res.columns)+len(rest))
	}
	ts.Close()
	settleGoroutines(t, base)
}

// TestDeadlineClockSkew drives the deadline off an injected clock that jumps
// far forward between the budget computation's two reads — the chaos
// harness's skewed-clock scenario. The job must expire immediately but stay
// typed and resumable, not hang or fail untyped.
func TestDeadlineClockSkew(t *testing.T) {
	clk := newFakeClock()
	var reads atomic.Int64
	skewed := func() time.Time {
		// Second read (the budget conversion) observes a clock 1 hour ahead.
		if reads.Add(1) == 2 {
			clk.Advance(time.Hour)
		}
		return clk.Now()
	}
	srv := New(Config{Workers: 1, DefaultDeadline: 50 * time.Millisecond, Clock: skewed})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res := submit(t, ts.Client(), ts.URL, solveBody(tinyDeck, 32, 1, 1, 1, ""))
	if res.status != 200 {
		t.Fatalf("status = %d (%s)", res.status, res.rawErr)
	}
	if res.errRec == nil || res.errRec.Kind != "deadline" || !res.errRec.Resumable {
		t.Fatalf("trailer = %+v, want resumable kind=deadline", res.errRec)
	}
}

// ---- circuit breaker --------------------------------------------------------

func TestBreakerUnit(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(2, 10*time.Second, clk.Now)
	const fp = 0xdead

	if !b.allow(fp) {
		t.Fatal("fresh breaker should allow")
	}
	if b.onResult(fp, true) {
		t.Fatal("first fault must not trip")
	}
	if tripped := b.onResult(fp, true); !tripped {
		t.Fatal("second fault must trip")
	}
	if b.allow(fp) {
		t.Fatal("open breaker allowed traffic")
	}
	clk.Advance(11 * time.Second)
	if !b.allow(fp) {
		t.Fatal("breaker did not half-open after cooldown")
	}
	// Half-open + fault → re-open immediately.
	if !b.onResult(fp, true) {
		t.Fatal("half-open fault must re-trip")
	}
	if b.allow(fp) {
		t.Fatal("re-opened breaker allowed traffic")
	}
	clk.Advance(11 * time.Second)
	// Half-open + success → fully closed, count forgotten.
	b.onResult(fp, false)
	if !b.allow(fp) {
		t.Fatal("closed breaker rejected traffic")
	}
	if b.onResult(fp, true) {
		t.Fatal("count was not reset by the success")
	}

	// A nil breaker (disabled) is permissive.
	var nb *breaker
	if !nb.allow(fp) || nb.onResult(fp, true) {
		t.Fatal("nil breaker must be a no-op")
	}
}

// TestBreakerOverHTTP trips the breaker with repeated injected non-finite
// faults against one pencil, checks the 422 fast-fail, then closes it again
// through cooldown + success.
func TestBreakerOverHTTP(t *testing.T) {
	clk := newFakeClock()
	var failures atomic.Int64
	fault := &faultinject.Hooks{CorruptColumn: func(col int, x []float64) {
		if col == 2 && failures.Add(1) <= 2 {
			x[0] = math.NaN()
		}
	}}
	srv := New(Config{
		Workers: 1, Clock: clk.Now, Fault: fault,
		BreakerThreshold: 2, BreakerCooldown: 30 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := solveBody(tinyDeck, 16, 1, 1, 1, "")

	for i := 0; i < 2; i++ {
		res := submit(t, ts.Client(), ts.URL, body)
		if res.errRec == nil || res.errRec.Kind != "non-finite" {
			t.Fatalf("attempt %d trailer = %+v, want non-finite", i, res.errRec)
		}
	}
	// Breaker open: same pencil fast-fails with 422 before admission.
	res := submit(t, ts.Client(), ts.URL, body)
	if res.status != 422 || !strings.Contains(res.rawErr, "circuit breaker") {
		t.Fatalf("open breaker: status=%d body=%q", res.status, res.rawErr)
	}
	snap := scrapeMetrics(t, ts.Client(), ts.URL)
	if snap.Resilience.BreakerTrips < 1 || snap.Resilience.BreakerFastFails != 1 {
		t.Fatalf("metrics: trips=%d fastFails=%d", snap.Resilience.BreakerTrips, snap.Resilience.BreakerFastFails)
	}

	// A different pencil is unaffected.
	other := submit(t, ts.Client(), ts.URL, solveBody(quickstartDeck, 16, 1, 1, 1, ""))
	if other.done == nil {
		t.Fatalf("unrelated pencil was blocked: %+v %s", other.errRec, other.rawErr)
	}

	// Cooldown passes → half-open; the fault has burned out, so the solve
	// succeeds and the breaker closes.
	clk.Advance(31 * time.Second)
	res = submit(t, ts.Client(), ts.URL, body)
	if res.done == nil {
		t.Fatalf("half-open probe failed: %+v %s", res.errRec, res.rawErr)
	}
	res = submit(t, ts.Client(), ts.URL, body)
	if res.done == nil {
		t.Fatal("breaker did not close after the half-open success")
	}
}

// ---- degradation ladder -----------------------------------------------------

func TestPlanForLadder(t *testing.T) {
	cp := &core.Checkpoint{Columns: 40, Engine: "fft"}
	cases := []struct {
		strikes int
		every   int
	}{
		{0, 32},
		{1, 16},
		{2, 8},
		{3, 4},
		{8, 1},
	}
	// Every rung keeps the FFT-engine checkpoint: no rung switches engines.
	for _, tc := range cases {
		p := planFor(tc.strikes, 32, cp)
		if p.checkpointEvery != tc.every || p.resume != cp || p.resume.Engine != "fft" {
			t.Fatalf("planFor(%d) = %+v, want every=%d and the fft checkpoint resumed",
				tc.strikes, p, tc.every)
		}
	}
	ecp := &core.Checkpoint{Columns: 40, Engine: "exact"}
	if p := planFor(5, 32, ecp); p.resume != ecp {
		t.Fatalf("exact checkpoint dropped by the ladder: %+v", p)
	}
	// No checkpoint → nothing to resume.
	if p := planFor(3, 32, nil); p.resume != nil {
		t.Fatalf("phantom resume: %+v", p)
	}
}

// ---- retry backoff ----------------------------------------------------------

func TestRetryBackoffJitterBounds(t *testing.T) {
	// Injected RNG: cycle through values; the hint must stay within
	// [v/2, v] for v = 1<<min(streak-1, 6) regardless of the draw.
	var draw atomic.Uint64
	b := newRetryBackoff(func() uint64 { return draw.Add(0x9e37) })
	wantMax := []int{1, 2, 4, 8, 16, 32, 64, 64, 64}
	for i, vmax := range wantMax {
		got := b.shedSeconds()
		lo := (vmax + 1) / 2
		if got < lo || got > vmax {
			t.Fatalf("streak %d: hint %d outside [%d, %d]", i+1, got, lo, vmax)
		}
	}
	b.admitted()
	if got := b.shedSeconds(); got != 1 {
		t.Fatalf("post-admission hint = %d, want 1", got)
	}

	// The default RNG (counter splitmix64) actually jitters: at streak 7 the
	// window is [32, 64]; over many draws both halves must appear.
	d := newRetryBackoff(nil)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		d.mu.Lock()
		d.streak = 6 // next shed lands at streak 7
		d.mu.Unlock()
		seen[d.shedSeconds()] = true
	}
	if len(seen) < 8 {
		t.Fatalf("default RNG produced only %d distinct hints in [32,64]: %v", len(seen), seen)
	}
}

// TestBackpressureRetryAfterGrows holds the queue full and verifies the 429
// Retry-After hints grow with the shed streak instead of staying pinned at 1.
func TestBackpressureRetryAfterGrows(t *testing.T) {
	fixed := uint64(0) // rng → lo end of every window, deterministic
	srv := New(Config{Workers: 1, QueueDepth: 1, RetryRNG: func() uint64 { return fixed }})
	block := make(chan struct{})
	srv.columnHook = func(string, int) { <-block }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(block)

	body := solveBody(tinyDeck, 16, 1, 1, 1, "")
	// Fill the worker slot and the queue.
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			started <- struct{}{}
			_, _ = submitErr(ts.Client(), ts.URL, body)
		}()
	}
	<-started
	<-started
	time.Sleep(50 * time.Millisecond) // let both reach the queue

	var hints []string
	for i := 0; i < 3; i++ {
		res, err := submitErr(ts.Client(), ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if res.status != 429 {
			t.Fatalf("shed %d: status = %d", i, res.status)
		}
		hints = append(hints, res.retryAfter)
	}
	// Windows for streaks 1..3 with rng=0: 1, 1, 2.
	if hints[0] != "1" || hints[1] != "1" || hints[2] != "2" {
		t.Fatalf("Retry-After progression = %v, want [1 1 2]", hints)
	}
}

// ---- latency ring edge cases ------------------------------------------------

func TestLatencyRingEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		m := newMetrics()
		snap := m.snapshot(0, 1, 1)
		if snap.Latency.Count != 0 || snap.Latency.P50Milli != 0 || snap.Latency.P99Milli != 0 {
			t.Fatalf("empty ring snapshot = %+v", snap.Latency)
		}
	})
	t.Run("single-sample", func(t *testing.T) {
		m := newMetrics()
		m.observeLatency(42 * time.Millisecond)
		snap := m.snapshot(0, 1, 1)
		if snap.Latency.Count != 1 || snap.Latency.P50Milli != 42 || snap.Latency.P99Milli != 42 {
			t.Fatalf("single-sample percentiles = %+v", snap.Latency)
		}
	})
	t.Run("wraparound", func(t *testing.T) {
		m := newMetrics()
		// Overfill the ring: the first latencyWindow samples are huge, the
		// last latencyWindow are 1ms..1024ms. Only the recent window should
		// survive — p50 must come from the small values.
		for i := 0; i < latencyWindow; i++ {
			m.observeLatency(time.Hour)
		}
		for i := 1; i <= latencyWindow; i++ {
			m.observeLatency(time.Duration(i) * time.Millisecond)
		}
		snap := m.snapshot(0, 1, 1)
		if snap.Latency.Count != latencyWindow {
			t.Fatalf("count = %d, want %d", snap.Latency.Count, latencyWindow)
		}
		if snap.Latency.P50Milli > float64(latencyWindow) {
			t.Fatalf("p50 = %vms: evicted samples leaked into the window", snap.Latency.P50Milli)
		}
		if snap.Latency.P99Milli > float64(latencyWindow) {
			t.Fatalf("p99 = %vms: evicted samples leaked into the window", snap.Latency.P99Milli)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		m := newMetrics()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					m.observeLatency(time.Duration(g*500+i) * time.Microsecond)
					if i%100 == 0 {
						_ = m.snapshot(0, 1, 1)
					}
				}
			}(g)
		}
		wg.Wait()
		snap := m.snapshot(0, 1, 1)
		if snap.Latency.Count != latencyWindow {
			t.Fatalf("count after concurrent fill = %d, want %d", snap.Latency.Count, latencyWindow)
		}
	})
}

// TestRegistryEviction fills the suspended pool past MaxResumable and
// verifies oldest-first eviction with journal cleanup.
func TestRegistryEviction(t *testing.T) {
	reg := newRegistry(2)
	var entries []*jobEntry
	for i := 0; i < 4; i++ {
		e := reg.newEntry([]byte(fmt.Sprintf("body-%d", i)), prioNormal)
		entries = append(entries, e)
	}
	// Suspend all four; after each suspension the idle pool is trimmed to 2.
	var evicted []*jobEntry
	for _, e := range entries {
		evicted = append(evicted, reg.suspend(e, "cancelled", false)...)
	}
	if len(evicted) != 2 {
		t.Fatalf("evicted %d entries, want 2", len(evicted))
	}
	if evicted[0] != entries[0] || evicted[1] != entries[1] {
		t.Fatal("eviction order is not oldest-first")
	}
	if reg.lookup(entries[0].id) != nil || reg.lookup(entries[3].id) == nil {
		t.Fatal("registry contents after eviction are wrong")
	}
}
