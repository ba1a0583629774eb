package serve

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow is the number of most-recent job latencies retained for the
// percentile estimates. A power-of-two ring keeps the /metrics scrape cheap
// (copy + sort of at most this many durations) while covering enough history
// that p99 is meaningful under steady traffic.
const latencyWindow = 1024

// metrics aggregates the service counters surfaced by /metrics. All methods
// are safe for concurrent use; the latency percentiles are computed on
// scrape from a ring of recent samples.
type metrics struct {
	mu         sync.Mutex
	submitted  int64
	completed  int64
	failed     int64
	cancelled  int64
	rejected   int64 // 429 load sheds
	badRequest int64 // 4xx before admission
	inFlight   int

	// Resilience counters (journal, resume, breaker, deadlines).
	resumed         int64 // /v1/resume attempts that reached a slot
	suspended       int64 // interrupted jobs parked for resume
	deadlineExpired int64 // jobs suspended by their wall-clock deadline
	breakerTrips    int64 // breaker open transitions
	breakerFastFail int64 // submissions 422'd by an open breaker
	journalFailures int64 // journal writes/recoveries that failed
	recoveredJobs   int64 // jobs re-admitted from the journal at startup
	evictedJobs     int64 // suspended jobs evicted by the pool bound
	journalRejected int64 // journals renamed aside as unreadable at startup

	// stream is the encode-and-flush layer, advanced lock-free by the
	// stream writer goroutines.
	stream streamCounters

	lat      [latencyWindow]time.Duration
	latNext  int
	latCount int
}

func newMetrics() *metrics { return &metrics{} }

func (m *metrics) incSubmitted()  { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *metrics) incCompleted()  { m.mu.Lock(); m.completed++; m.mu.Unlock() }
func (m *metrics) incFailed()     { m.mu.Lock(); m.failed++; m.mu.Unlock() }
func (m *metrics) incCancelled()  { m.mu.Lock(); m.cancelled++; m.mu.Unlock() }
func (m *metrics) incRejected()   { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *metrics) incBadRequest() { m.mu.Lock(); m.badRequest++; m.mu.Unlock() }
func (m *metrics) startJob()      { m.mu.Lock(); m.inFlight++; m.mu.Unlock() }
func (m *metrics) endJob()        { m.mu.Lock(); m.inFlight--; m.mu.Unlock() }

func (m *metrics) incResumed()         { m.mu.Lock(); m.resumed++; m.mu.Unlock() }
func (m *metrics) incSuspended()       { m.mu.Lock(); m.suspended++; m.mu.Unlock() }
func (m *metrics) incDeadlineExpired() { m.mu.Lock(); m.deadlineExpired++; m.mu.Unlock() }
func (m *metrics) incBreakerTrip()     { m.mu.Lock(); m.breakerTrips++; m.mu.Unlock() }
func (m *metrics) incBreakerFastFail() { m.mu.Lock(); m.breakerFastFail++; m.mu.Unlock() }
func (m *metrics) incJournalFailure()  { m.mu.Lock(); m.journalFailures++; m.mu.Unlock() }
func (m *metrics) incRecovered()       { m.mu.Lock(); m.recoveredJobs++; m.mu.Unlock() }
func (m *metrics) incEvicted()         { m.mu.Lock(); m.evictedJobs++; m.mu.Unlock() }
func (m *metrics) addJournalRejected(n int64) {
	m.mu.Lock()
	m.journalRejected += n
	m.mu.Unlock()
}

// observeLatency folds one job's wall-clock duration into the ring.
func (m *metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.lat[m.latNext] = d
	m.latNext = (m.latNext + 1) % latencyWindow
	if m.latCount < latencyWindow {
		m.latCount++
	}
	m.mu.Unlock()
}

// Snapshot is the JSON shape served by GET /metrics.
type Snapshot struct {
	QueueDepth    int   `json:"queueDepth"`
	QueueCapacity int   `json:"queueCapacity"`
	Workers       int   `json:"workers"`
	InFlight      int   `json:"inFlight"`
	Submitted     int64 `json:"submitted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Cancelled     int64 `json:"cancelled"`
	Rejected      int64 `json:"rejected"`
	BadRequests   int64 `json:"badRequests"`
	Resilience    struct {
		Resumed          int64 `json:"resumed"`
		Suspended        int64 `json:"suspended"`
		DeadlineExpiries int64 `json:"deadlineExpiries"`
		BreakerTrips     int64 `json:"breakerTrips"`
		BreakerFastFails int64 `json:"breakerFastFails"`
		JournalFailures  int64 `json:"journalFailures"`
		RecoveredJobs    int64 `json:"recoveredJobs"`
		EvictedJobs      int64 `json:"evictedJobs"`
		JournalRejected  int64 `json:"journalRejected"`
	} `json:"resilience"`
	FactorCache struct {
		// Hits: a cached pencil factorization reused as-is. UpdateHits: a
		// cached base factorization reused through the SMW UpdatedSolve tier
		// (a low-rank Woodbury correction instead of a refactorization).
		// Misses: a fresh factorization built and cached. HitRate counts both
		// hit flavors against the total, since both avoid a factorization.
		Hits       int     `json:"cache_hit"`
		UpdateHits int     `json:"cache_update_hit"`
		Misses     int     `json:"cache_miss"`
		HitRate    float64 `json:"hitRate"`
		Entries    int     `json:"entries"`
	} `json:"factorCache"`
	// Stream counts what the stream writers delivered: records and bytes
	// written to responses, and the Flush calls that pushed them out.
	Stream struct {
		Records int64 `json:"records"`
		Flushes int64 `json:"flushes"`
		Bytes   int64 `json:"bytes"`
	} `json:"stream"`
	Latency struct {
		Count    int     `json:"count"`
		P50Milli float64 `json:"p50ms"`
		P99Milli float64 `json:"p99ms"`
	} `json:"latency"`
}

// snapshot captures the counters; the caller fills in the factor-cache block
// (owned by core.FactorCache) afterwards.
func (m *metrics) snapshot(queueDepth, workers, queueCap int) *Snapshot {
	m.mu.Lock()
	snap := &Snapshot{
		QueueDepth:    queueDepth,
		QueueCapacity: queueCap,
		Workers:       workers,
		InFlight:      m.inFlight,
		Submitted:     m.submitted,
		Completed:     m.completed,
		Failed:        m.failed,
		Cancelled:     m.cancelled,
		Rejected:      m.rejected,
		BadRequests:   m.badRequest,
	}
	snap.Resilience.Resumed = m.resumed
	snap.Resilience.Suspended = m.suspended
	snap.Resilience.DeadlineExpiries = m.deadlineExpired
	snap.Resilience.BreakerTrips = m.breakerTrips
	snap.Resilience.BreakerFastFails = m.breakerFastFail
	snap.Resilience.JournalFailures = m.journalFailures
	snap.Resilience.RecoveredJobs = m.recoveredJobs
	snap.Resilience.EvictedJobs = m.evictedJobs
	snap.Resilience.JournalRejected = m.journalRejected
	snap.Stream.Records = m.stream.records.Load()
	snap.Stream.Flushes = m.stream.flushes.Load()
	snap.Stream.Bytes = m.stream.bytes.Load()
	n := m.latCount
	window := make([]time.Duration, n)
	copy(window, m.lat[:n])
	m.mu.Unlock()

	snap.Latency.Count = n
	if n > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		snap.Latency.P50Milli = float64(window[(n-1)*50/100]) / float64(time.Millisecond)
		snap.Latency.P99Milli = float64(window[(n-1)*99/100]) / float64(time.Millisecond)
	}
	return snap
}
