// Package faultinject provides deterministic failure hooks for exercising
// the solver core's degradation paths: forced factorization failures at a
// chosen column and tier, column corruption (NaN injection), history-worker
// panics, and per-column stalls that trigger context deadlines.
//
// The hooks are plain function fields, nil by default, carried on
// core.Options. A nil Hooks pointer (the production configuration) adds a
// single pointer comparison per guarded site and no allocations; there is no
// build tag to flip and nothing to strip for release builds. Tests compose
// the constructors below or assign closures directly.
package faultinject

import (
	"math"
	"sync/atomic"
	"time"
)

// Tier indices mirror core.Tier, in chain order; they are declared here as
// plain ints so the core package can depend on faultinject without a cycle.
const (
	TierSupernodal = 0
	TierSparseLU   = 1
	TierDenseLU    = 2
	TierQR         = 3
)

// Hooks is the set of injection points the solver core consults. Every field
// is optional; nil fields are skipped.
type Hooks struct {
	// FactorFail is consulted before each factorization tier is attempted,
	// with the column the factorization will serve (−1 for a factorization
	// shared by all columns, e.g. the uniform-grid leading pencil) and the
	// tier about to be tried. Returning true forces that tier to report
	// failure, pushing the solver down the degradation chain.
	FactorFail func(col, tier int) bool

	// CorruptColumn may mutate the freshly solved column x_j in place (for
	// example, writing a NaN) before the solver's non-finite guard runs. It
	// runs inside the scenario group tasks, so in a batch with several
	// groups, calls for scenarios of different groups may be concurrent.
	CorruptColumn func(col int, x []float64)

	// WorkerFault runs at the start of each task of an FFT history firing:
	// a scenario group's engine fires once for all its members, as a task
	// list over their row pairs. It may panic (to exercise the pool's panic
	// recovery) or sleep.
	WorkerFault func()

	// ColumnDelay runs at the top of every column of the solve loop; use it
	// to stall the solver and trigger context deadlines.
	ColumnDelay func(col int)
}

// merge returns a Hooks combining h and o; it panics if both define the same
// hook, because composed faults firing at the same site have no well-defined
// order.
func (h *Hooks) merge(o *Hooks) *Hooks {
	out := *h
	if o.FactorFail != nil {
		if out.FactorFail != nil {
			panic("faultinject: duplicate FactorFail hook")
		}
		out.FactorFail = o.FactorFail
	}
	if o.CorruptColumn != nil {
		if out.CorruptColumn != nil {
			panic("faultinject: duplicate CorruptColumn hook")
		}
		out.CorruptColumn = o.CorruptColumn
	}
	if o.WorkerFault != nil {
		if out.WorkerFault != nil {
			panic("faultinject: duplicate WorkerFault hook")
		}
		out.WorkerFault = o.WorkerFault
	}
	if o.ColumnDelay != nil {
		if out.ColumnDelay != nil {
			panic("faultinject: duplicate ColumnDelay hook")
		}
		out.ColumnDelay = o.ColumnDelay
	}
	return &out
}

// Compose merges several Hooks into one; at most one of them may define each
// hook.
func Compose(hooks ...*Hooks) *Hooks {
	out := &Hooks{}
	for _, h := range hooks {
		if h != nil {
			out = out.merge(h)
		}
	}
	return out
}

// FailFactorAt returns hooks that fail the given tiers (all tiers when none
// are listed) for every factorization serving column col. Use col = −1 to
// target a factorization shared across columns, and AnyColumn to fail
// regardless of column.
func FailFactorAt(col int, tiers ...int) *Hooks {
	return &Hooks{FactorFail: func(c, tier int) bool {
		if c != col && col != AnyColumn {
			return false
		}
		if len(tiers) == 0 {
			return true
		}
		for _, t := range tiers {
			if t == tier {
				return true
			}
		}
		return false
	}}
}

// AnyColumn makes FailFactorAt match every column.
const AnyColumn = -1 << 30

// NaNAt returns hooks that overwrite entry row of column col with NaN. A
// negative row poisons the whole column.
func NaNAt(col, row int) *Hooks {
	nan := math.NaN()
	return &Hooks{CorruptColumn: func(c int, x []float64) {
		if c != col {
			return
		}
		if row < 0 {
			for i := range x {
				x[i] = nan
			}
			return
		}
		if row < len(x) {
			x[row] = nan
		}
	}}
}

// PanicWorker returns hooks that panic with msg inside every history-engine
// worker task.
func PanicWorker(msg string) *Hooks {
	return &Hooks{WorkerFault: func() { panic(msg) }}
}

// StallColumns returns hooks that sleep d at every column boundary, so a
// context deadline shorter than m·d is guaranteed to expire mid-solve.
func StallColumns(d time.Duration) *Hooks {
	return &Hooks{ColumnDelay: func(int) { time.Sleep(d) }}
}

// ServeHooks is the serve-layer counterpart of Hooks: deterministic
// injection points on the service's durability path (the per-job journal).
// Like Hooks, every field is nil by default and a nil *ServeHooks is the
// production configuration.
type ServeHooks struct {
	// JournalWriteFail is consulted before each journal record write with
	// the framed record's size in bytes; returning true fails the write
	// (simulating a full or failing disk), which the service must absorb by
	// degrading to in-memory checkpoints, never by crashing the job.
	JournalWriteFail func(size int) bool

	// CorruptRecord may rewrite the framed record bytes about to hit the
	// journal — flip bits, truncate — simulating torn writes and disk rot.
	// It receives a private copy and returns the bytes to write; recovery
	// must detect the damage via the CRC frame and truncate the tail.
	CorruptRecord func(frame []byte) []byte
}

// FailJournalAfter returns serve hooks that let the first n journal record
// writes succeed and fail every one after that.
func FailJournalAfter(n int) *ServeHooks {
	var count atomic.Int64
	return &ServeHooks{JournalWriteFail: func(int) bool {
		return count.Add(1) > int64(n)
	}}
}

// TornRecord returns serve hooks that truncate the rec-th written record
// (0-based) to half its framed length — a torn write that recovery must
// detect and truncate away.
func TornRecord(rec int) *ServeHooks {
	var count atomic.Int64
	return &ServeHooks{CorruptRecord: func(frame []byte) []byte {
		if count.Add(1)-1 != int64(rec) {
			return frame
		}
		return frame[:len(frame)/2]
	}}
}

// FlipBitInRecord returns serve hooks that XOR one bit into the rec-th
// written record's payload region, leaving the frame length intact — bit rot
// the CRC must catch.
func FlipBitInRecord(rec, byteOff int) *ServeHooks {
	var count atomic.Int64
	return &ServeHooks{CorruptRecord: func(frame []byte) []byte {
		if count.Add(1)-1 != int64(rec) {
			return frame
		}
		// Skip the 8-byte length+CRC header; clamp into the payload.
		off := 8 + byteOff
		if off >= len(frame) {
			off = len(frame) - 1
		}
		frame[off] ^= 0x10
		return frame
	}}
}
