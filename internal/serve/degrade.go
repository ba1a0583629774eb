package serve

import (
	"errors"
	"sync"
	"time"

	"opmsim/internal/core"
)

// breaker is the per-pencil circuit breaker. Repeated ErrSingularPencil or
// ErrNonFinite faults against the same pencil fingerprint mean the circuit
// itself is bad — every retry burns a worker slot on a solve that cannot
// succeed — so after threshold consecutive faults the breaker opens and
// matching submissions fast-fail with 422 before touching the queue. After
// cooldown the breaker half-opens: traffic flows again, a success closes it,
// the next fault re-opens it for another cooldown. The clock is injected
// (Config.Clock), so tests and the chaos harness drive the state machine
// deterministically, skew included.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	clock     func() time.Time
	cells     map[uint64]*breakerCell
}

type breakerCell struct {
	fails     int
	openUntil time.Time
}

// breakerMaxCells bounds the fault map; fingerprints only enter on faults,
// so the bound only matters under a deliberate flood of distinct broken
// pencils — at which point wholesale forgetting (and re-counting) is safe.
const breakerMaxCells = 1024

func newBreaker(threshold int, cooldown time.Duration, clock func() time.Time) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		clock:     clock,
		cells:     make(map[uint64]*breakerCell),
	}
}

// allow reports whether a submission against fp may proceed: yes while
// closed or half-open, no while open and cooling down.
func (b *breaker) allow(fp uint64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cells[fp]
	if c == nil || c.fails < b.threshold {
		return true
	}
	return !b.clock().Before(c.openUntil)
}

// onResult folds a solve outcome into the breaker; faulted is true only for
// the breaker-relevant kinds (singular pencil, non-finite). It returns true
// when this result (re)opened the breaker — the trip metric.
func (b *breaker) onResult(fp uint64, faulted bool) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !faulted {
		delete(b.cells, fp)
		return false
	}
	c := b.cells[fp]
	if c == nil {
		if len(b.cells) >= breakerMaxCells {
			b.cells = make(map[uint64]*breakerCell)
		}
		c = &breakerCell{}
		b.cells[fp] = c
	}
	c.fails++
	if c.fails >= b.threshold {
		c.openUntil = b.clock().Add(b.cooldown)
		return true
	}
	return false
}

// breakerFault reports whether a terminal solve error is one of the kinds
// the breaker counts: deterministic pencil-level faults, not client
// cancellations or transient resource errors.
func breakerFault(err error) bool {
	return err != nil && (errors.Is(err, core.ErrSingularPencil) || errors.Is(err, core.ErrNonFinite))
}

// degradedPlan is the ladder: how an entry's accumulated strikes (deadline
// expiries and solver faults on previous attempts) reshape its next run.
// Its one rung is bitwise-neutral, so the checkpoint always survives: each
// strike halves the checkpoint interval (min 1), and shorter intervals mean
// less recomputation on the next interruption.
//
// No rung narrows the scenario panels: every group's history engine holds its
// own spectra store and transform buffers, so K one-wide groups would hold K
// copies where one K-wide group holds one, and only an integer-order job
// would save anything (its n×K panel scratch). A job also keeps its history
// engine on every rung: the exact tier is 4.8–53× slower than the FFT tier at
// m ≥ 1024 (BENCH_history_fft.json), and a switch would also discard the
// committed prefix.
type degradedPlan struct {
	checkpointEvery int
	resume          *core.Checkpoint
}

func planFor(strikes, baseEvery int, cp *core.Checkpoint) degradedPlan {
	p := degradedPlan{checkpointEvery: baseEvery}
	if cp != nil && cp.Columns > 0 {
		p.resume = cp
	}
	for i := 0; i < strikes && p.checkpointEvery > 1; i++ {
		p.checkpointEvery /= 2
	}
	if p.checkpointEvery < 1 {
		p.checkpointEvery = 1
	}
	return p
}
