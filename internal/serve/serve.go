// Package serve wraps the batched OPM solve engine in a long-running,
// stdlib-only net/http JSON service. Clients POST a netlist plus a scenario
// sweep to /v1/solve and receive the waveform back incrementally, one JSON
// line per solved column, as the column-by-column operational-matrix solve
// produces it — the paper's triangular column recursion is what makes the
// workload naturally streamable.
//
// The service's scaling levers mirror the batch engine's (DESIGN.md §10):
//
//   - One process-wide shared core.FactorCache serves every job, so
//     concurrent tenants solving the same circuit pencil reuse a single
//     factorization instead of each paying their own; the /metrics endpoint
//     reports the hit rate.
//   - Admission runs through a bounded priority job queue: at most Workers
//     jobs solve concurrently, at most QueueDepth more wait (high before
//     normal before low, FIFO within a class), and past that the service
//     sheds load with 429 + Retry-After instead of queueing unboundedly.
//   - Request contexts are wired through SolveBatchCtx, so a client that
//     disconnects mid-stream cancels its solve at the next column boundary
//     and frees its worker slot immediately.
//
// Streaming format (Content-Type application/x-ndjson, one JSON object per
// line): a "header" record naming the streamed states and scenario scales,
// one "column" record per BPF column carrying every scenario's state values
// at that column, and a terminal "done" record (solver report summary) or
// "error" record (typed kind, e.g. "cancelled"). Column values are encoded
// with Go's shortest round-trip float formatting, so a decoded stream is
// bitwise-identical to the offline SolveBatch waveform — the conformance
// suite in this package holds the service to exactly that.
package serve

//lint:hot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
)

// Config sizes the service. The zero value of every field selects a sensible
// default, so serve.New(serve.Config{}) is a working server.
type Config struct {
	// Workers is the number of jobs solving concurrently (0 → GOMAXPROCS).
	Workers int
	// QueueDepth is the number of admitted jobs that may wait for a worker
	// slot before submissions are rejected with 429 (0 → 64).
	QueueDepth int
	// CacheCap is the process-wide factor-cache capacity in pencils (0 → 64).
	CacheCap int
	// SolveWorkers is Options.Workers for each job's solve (0 → 1: with
	// Workers jobs running concurrently the service is already saturated at
	// the job level, so per-solve fan-out would only oversubscribe; results
	// are bitwise-identical for any value).
	SolveWorkers int
	// MaxSteps caps the per-request BPF grid size m (0 → 1<<17).
	MaxSteps int
	// MaxScenarios caps the per-request sweep cardinality K (0 → 1024).
	MaxScenarios int
	// MaxBodyBytes caps the request body (0 → 1 MiB).
	MaxBodyBytes int64
	// Clock supplies the latency metrics' timestamps and the deadline and
	// breaker reference times. nil → time.Now (assigned as a function value;
	// determinism-sensitive callers such as tests inject a fake — a skewed
	// clock is also the chaos harness's deadline-skew hook).
	Clock func() time.Time
	// JournalDir, when non-empty, enables the durable job journal: every
	// admitted job appends fsynced checkpoint records to
	// JournalDir/<id>.opmj, and New replays the directory to re-admit
	// incomplete jobs after a restart. Empty disables journaling; jobs stay
	// resumable in memory while the process lives.
	JournalDir string
	// MaxResumable bounds the suspended (interrupted, awaiting resume) job
	// pool; beyond it the oldest suspended job — and its journal — is
	// evicted (0 → 64). This is what keeps the journal directory bounded.
	MaxResumable int
	// CheckpointEvery is the checkpoint interval in columns (0 → 32); the
	// degradation ladder halves it per strike. Every interrupted job also
	// checkpoints its committed tail regardless of the interval.
	CheckpointEvery int
	// DefaultDeadline is the per-job wall-clock budget, measured from
	// worker-slot grant, for jobs that do not set their own (0 → none). On
	// expiry the job suspends with kind "deadline" and stays resumable.
	DefaultDeadline time.Duration
	// BreakerThreshold is the consecutive pencil-fault count that opens the
	// per-pencil circuit breaker (0 → 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fast-fails matching
	// submissions before half-opening (0 → 30s).
	BreakerCooldown time.Duration
	// RetryRNG is the 429 Retry-After jitter source (nil → deterministic
	// splitmix64 counter stream; tests inject fixed values).
	RetryRNG func() uint64
	// Fault carries solver-level fault-injection hooks applied to every
	// job's solve (nil in production).
	Fault *faultinject.Hooks
	// ServeFault carries journal-level fault-injection hooks (nil in
	// production).
	ServeFault *faultinject.ServeHooks
}

// withDefaults returns cfg with every zero field resolved.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 64
	}
	if cfg.SolveWorkers <= 0 {
		cfg.SolveWorkers = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1 << 17
	}
	if cfg.MaxScenarios <= 0 {
		cfg.MaxScenarios = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxResumable <= 0 {
		cfg.MaxResumable = 64
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 32
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	return cfg
}

// Done summarizes one finished job for the OnJobDone observability hook.
type Done struct {
	// Title is the submitted netlist's title line.
	Title string
	// Priority is the job's admission class ("high", "normal", "low").
	Priority string
	// Scenarios is the sweep cardinality K.
	Scenarios int
	// Columns is the number of columns actually streamed.
	Columns int
	// Report is the job's solver report; Report.Err carries the terminal
	// error (errors.Is(Report.Err, core.ErrCancelled) after a client
	// disconnect).
	Report *core.SolveReport
	// Err is the job's terminal error, nil on success (same value as
	// Report.Err).
	Err error
	// Duration is the wall-clock time from worker-slot grant to completion.
	Duration time.Duration

	// sw is the job's stream writer; finishJob emits the terminal record on
	// it after classification.
	sw *streamWriter
}

// Server is the simulation service: an http.Handler exposing POST /v1/solve,
// POST /v1/resume, GET /v1/jobs, GET /metrics, and GET /healthz. Create it
// with New; it spawns no goroutines of its own while serving (jobs run on
// their request's handler goroutine, throttled by the admission queue;
// journal recovery happens synchronously inside New; each stream's writer
// goroutine is joined before its handler returns), so shutting down the
// enclosing http.Server drains it.
type Server struct {
	cfg     Config
	cache   *core.FactorCache
	q       *queue
	met     *metrics
	mux     *http.ServeMux
	reg     *registry
	brk     *breaker
	bo      *retryBackoff
	journal bool // journaling healthy (dir exists and is writable)

	draining    atomic.Bool
	drainCtx    context.Context
	drainCancel context.CancelFunc
	// jobs counts the jobs holding a worker slot, and jobsIdle, when a drain
	// is waiting, is closed as jobs falls to zero. (A sync.WaitGroup does not
	// fit: a job admitted just before a drain may start while Drain waits.)
	jobsMu   sync.Mutex
	jobs     int
	jobsIdle chan struct{}

	// OnJobDone, when non-nil, is invoked after every job that reached a
	// worker slot, success or failure. Set it before serving traffic; it must
	// be safe for concurrent use (jobs finish on concurrent handler
	// goroutines).
	OnJobDone func(Done)

	// columnHook is a test seam invoked before each column record is
	// streamed, identified by the deck title; the soak/cancel tests use it to
	// pace or block a solve mid-stream. Set before serving traffic.
	columnHook func(title string, col int)
	// admitHook is a test seam invoked after the queue admits a job and
	// before the job starts; the drain-race tests drain the server there.
	admitHook func()
}

// New builds a Server from cfg (zero fields take defaults; see Config). With
// JournalDir set, New synchronously replays the journal directory: finished
// journals are deleted, damaged ones renamed aside, and incomplete jobs
// re-registered as suspended — a reconnecting client resumes them by ID from
// the last durable checkpoint.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: core.NewFactorCache(cfg.CacheCap),
		q:     newQueue(cfg.Workers, cfg.QueueDepth),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
		reg:   newRegistry(cfg.MaxResumable),
		bo:    newRetryBackoff(cfg.RetryRNG),
	}
	if cfg.BreakerThreshold > 0 {
		s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock)
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			s.met.incJournalFailure()
		} else if states, rejected, err := recoverJournalDir(cfg.JournalDir); err != nil {
			s.met.incJournalFailure()
		} else {
			s.journal = true
			s.met.addJournalRejected(int64(rejected))
			for _, st := range states {
				if s.reg.adopt(st, prioNormal) != nil {
					s.met.incRecovered()
				}
			}
		}
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/resume", s.handleResume)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Drain puts the server into drain mode: new submissions and resumes are
// rejected with 503, every in-flight solve is cancelled at its next column
// boundary (committing a final checkpoint delta first, so the work is
// resumable — durably, when journaling is on), and Drain blocks until the
// jobs have unwound or ctx expires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainCancel()
	select {
	case <-s.idle():
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// jobStarted and jobEnded bracket a job's hold on a worker slot; the
// jobEnded that leaves no job running wakes a waiting Drain. jobStarted
// refuses, returning false, once a drain has begun: Drain sets draining
// before it reads the count under jobsMu, so a job either is counted before
// Drain looks or sees the drain and never starts. Without that, a job the
// queue admitted just as a drain began could start after Drain returned and
// journal a job that no client ever learns the id of.
func (s *Server) jobStarted() bool {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.jobs++
	return true
}

func (s *Server) jobEnded() {
	s.jobsMu.Lock()
	s.jobs--
	var idle chan struct{}
	if s.jobs == 0 {
		idle, s.jobsIdle = s.jobsIdle, nil
	}
	s.jobsMu.Unlock()
	if idle != nil {
		close(idle)
	}
}

// idle returns a channel that is closed once no job holds a worker slot.
func (s *Server) idle() <-chan struct{} {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.jobs == 0 {
		idle := make(chan struct{})
		close(idle)
		return idle
	}
	if s.jobsIdle == nil {
		s.jobsIdle = make(chan struct{})
	}
	return s.jobsIdle
}

// ServeHTTP dispatches to the service's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSONError sends a JSON error body with the given HTTP status.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "status": status})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the service counters as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.met.snapshot(s.q.Depth(), s.cfg.Workers, s.cfg.QueueDepth)
	hits, updateHits, misses := s.cache.Stats()
	snap.FactorCache.Hits = hits
	snap.FactorCache.UpdateHits = updateHits
	snap.FactorCache.Misses = misses
	snap.FactorCache.Entries = s.cache.Len()
	if total := hits + updateHits + misses; total > 0 {
		snap.FactorCache.HitRate = float64(hits+updateHits) / float64(total)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snap)
}

// handleSolve is the submission endpoint: decode and validate, check the
// circuit breaker, register the job, pass admission, then solve and stream.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.incSubmitted()
	if s.draining.Load() {
		s.met.incRejected()
		writeJSONError(w, http.StatusServiceUnavailable, "server is draining; retry against a healthy instance")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.met.incBadRequest()
		writeJSONError(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
		return
	}
	job, rerr := parseRequest(body, &s.cfg)
	if rerr != nil {
		s.met.incBadRequest()
		writeJSONError(w, rerr.Status, rerr.Error())
		return
	}

	// Circuit breaker: submissions whose pencil fingerprint has repeatedly
	// faulted fast-fail before consuming a queue slot.
	fp, fpErr := core.PencilFingerprint(job.mna.Sys, job.m, job.T)
	fpOK := fpErr == nil
	if fpOK && !s.brk.allow(fp) {
		s.met.incBreakerFastFail()
		writeJSONError(w, http.StatusUnprocessableEntity,
			"circuit breaker open: this pencil faulted repeatedly; retry after the cooldown")
		return
	}
	s.executeJob(w, r, job, body, nil, 0, fp, fpOK)
}

// resumeRequest is the POST /v1/resume body: the job ID from the original
// stream's header (or error trailer) and the first column the client still
// needs — its Last-Column + 1.
type resumeRequest struct {
	Job  string `json:"job"`
	From int    `json:"from"`
}

// handleResume reattaches a client to an interrupted job: columns the
// checkpoint already holds replay from memory bit-for-bit, and the solve
// restarts from the checkpoint boundary, not from scratch.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.met.incRejected()
		writeJSONError(w, http.StatusServiceUnavailable, "server is draining; retry against a healthy instance")
		return
	}
	var rr resumeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&rr); err != nil {
		s.met.incBadRequest()
		writeJSONError(w, http.StatusBadRequest, "invalid resume request: "+err.Error())
		return
	}
	entry := s.reg.lookup(rr.Job)
	if entry == nil {
		s.met.incBadRequest()
		writeJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown or expired job %q; resubmit the request", rr.Job))
		return
	}
	job, rerr := entry.ensureParsed(&s.cfg)
	if rerr != nil {
		s.met.incBadRequest()
		writeJSONError(w, rerr.Status, "recovered job no longer parses: "+rerr.Error())
		return
	}
	if rr.From < 0 || rr.From > job.m {
		s.met.incBadRequest()
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("from=%d outside the job's %d-column grid", rr.From, job.m))
		return
	}
	fp, fpErr := core.PencilFingerprint(job.mna.Sys, job.m, job.T)
	fpOK := fpErr == nil
	if fpOK && !s.brk.allow(fp) {
		s.met.incBreakerFastFail()
		writeJSONError(w, http.StatusUnprocessableEntity,
			"circuit breaker open: this pencil faulted repeatedly; retry after the cooldown")
		return
	}
	if err := s.reg.attach(entry); err != nil {
		s.met.incBadRequest()
		status := http.StatusConflict
		if !errors.Is(err, errAttached) {
			status = http.StatusNotFound
		}
		writeJSONError(w, status, err.Error())
		return
	}
	s.met.incResumed()
	s.executeJob(w, r, job, nil, entry, rr.From, fp, fpOK)
}

// handleJobs lists registered jobs — the ops view of what is resumable.
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"jobs": s.reg.summaries()})
}

// executeJob runs the shared admission → solve → classify pipeline for fresh
// submissions (entry nil, body set) and resumes (entry attached, from set).
func (s *Server) executeJob(w http.ResponseWriter, r *http.Request, job *job, body []byte, entry *jobEntry, from int, fp uint64, fpOK bool) {
	// The job context merges three cancellation sources: the client
	// connection, drain mode, and — once a slot is granted — the wall-clock
	// deadline. Queued waiters honor drain too, so a drain empties the wait
	// queue instead of letting it trickle into slots.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.drainCtx, cancel)
	defer stopAfter()

	if err := s.q.acquire(ctx, job.prio); err != nil {
		if entry != nil {
			s.reg.detach(entry)
		}
		switch {
		case errors.Is(err, errQueueFull):
			s.met.incRejected()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.bo.shedSeconds()))
			writeJSONError(w, http.StatusTooManyRequests,
				fmt.Sprintf("job queue is full (%d running, %d waiting); retry later", s.cfg.Workers, s.cfg.QueueDepth))
		case s.draining.Load() && r.Context().Err() == nil:
			s.met.incRejected()
			writeJSONError(w, http.StatusServiceUnavailable, "server is draining; retry against a healthy instance")
		}
		return
	}
	defer s.q.release()
	if s.admitHook != nil {
		s.admitHook()
	}
	if !s.jobStarted() {
		if entry != nil {
			s.reg.detach(entry)
		}
		s.met.incRejected()
		writeJSONError(w, http.StatusServiceUnavailable, "server is draining; retry against a healthy instance")
		return
	}
	s.bo.admitted()
	s.met.startJob()
	defer s.met.endJob()
	defer s.jobEnded()

	if entry == nil {
		entry = s.registerJob(job, body)
	}
	entry.mu.Lock()
	entry.fp, entry.fpOK = fp, fpOK
	strikes := entry.strikes
	// A resumed entry's journal was closed at suspension (possibly by a
	// previous process); reopen it so this attempt's checkpoints append to the
	// same file.
	if s.journal && entry.jw == nil && !entry.journalBroken && entry.jpath != "" {
		//lint:ignore lockhold reopen must be fenced by the entry lock or two resume attempts could attach two descriptors to one journal
		if jw, err := openJobJournal(entry.jpath, s.cfg.ServeFault); err != nil {
			s.met.incJournalFailure()
			entry.journalBroken = true
		} else {
			entry.jw = jw
		}
	}
	entry.mu.Unlock()

	// Degradation ladder: prior strikes reshape this attempt.
	plan := planFor(strikes, s.cfg.CheckpointEvery, entry.cp)

	// Deadline: wall-clock budget from slot grant, measured on the injected
	// clock so skew is testable. context.WithDeadline compares against real
	// time, so convert the budget, not the instant.
	dctx := ctx
	deadline := job.deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	deadlineSet := deadline > 0
	if deadlineSet {
		var dcancel context.CancelFunc
		expiry := s.cfg.Clock().Add(deadline)
		dctx, dcancel = context.WithTimeout(ctx, expiry.Sub(s.cfg.Clock()))
		defer dcancel()
	}

	sw := newStreamWriter(w, &s.met.stream)
	defer sw.close()
	start := s.cfg.Clock()
	done, columns := s.runJob(dctx, sw, job, entry, from, plan)
	done.Duration = s.cfg.Clock().Sub(start)
	s.met.observeLatency(done.Duration)
	s.finishJob(w, r, done, entry, columns, dctx, deadlineSet, fp, fpOK)
}

// finishJob classifies a job's terminal state, updates the breaker and the
// registry, emits the terminal stream record, and fires OnJobDone.
func (s *Server) finishJob(w http.ResponseWriter, r *http.Request, done Done, entry *jobEntry, columns int, dctx context.Context, deadlineSet bool, fp uint64, fpOK bool) {
	sw := done.sw
	switch {
	case done.Err == nil:
		s.met.incCompleted()
		if fpOK {
			s.brk.onResult(fp, false)
		}
		s.finishEntry(entry)
		sw.done(columns, done.Report)
	case errors.Is(done.Err, core.ErrCancelled):
		kind := "cancelled"
		strike := false
		switch {
		case deadlineSet && errors.Is(dctx.Err(), context.DeadlineExceeded) && r.Context().Err() == nil && !s.draining.Load():
			kind = "deadline"
			strike = true
			s.met.incDeadlineExpired()
		case s.draining.Load() && r.Context().Err() == nil:
			kind = "draining"
		}
		s.met.incCancelled()
		s.suspendEntry(entry, kind, strike)
		sw.failResumable(done.Err, kind, entry.id, columns)
	default:
		kind := errKind(done.Err)
		s.met.incFailed()
		if fpOK && s.brk.onResult(fp, breakerFault(done.Err)) {
			s.met.incBreakerTrip()
		}
		s.suspendEntry(entry, kind, true)
		sw.failResumable(done.Err, kind, entry.id, columns)
	}
	if s.OnJobDone != nil {
		s.OnJobDone(done)
	}
}

// registerJob creates the registry entry (and journal) for a fresh
// submission.
func (s *Server) registerJob(job *job, body []byte) *jobEntry {
	e := s.reg.newEntry(body, job.prio)
	e.parsed = job
	if s.journal {
		jw, err := createJobJournal(s.cfg.JournalDir, e.id, body, s.cfg.ServeFault)
		if err != nil {
			s.met.incJournalFailure()
			e.journalBroken = true
		} else {
			e.jw = jw
		}
	}
	return e
}

// finishEntry retires a completed job: journal a done record, delete the
// journal, drop the registry entry.
func (s *Server) finishEntry(e *jobEntry) {
	// Detach the journal under the lock, write outside it: the job is done,
	// so no checkpoint append can race the detach, and the fsync latency of
	// the done record must not stall readers of the entry.
	e.mu.Lock()
	jw := e.jw
	broken := e.journalBroken
	e.jw = nil
	e.mu.Unlock()
	if jw != nil && !broken {
		if err := jw.appendJournalDone(""); err != nil {
			s.met.incJournalFailure()
		}
		if err := jw.removeJournal(); err != nil {
			s.met.incJournalFailure()
		}
	}
	s.reg.remove(e)
}

// suspendEntry parks an interrupted job for resume and evicts overflow from
// the suspended pool (removing evicted journals so the directory stays
// bounded).
func (s *Server) suspendEntry(e *jobEntry, kind string, strike bool) {
	// Keep the file but release the descriptor; a resume (possibly in a
	// future process) reopens it. As in finishEntry, detach under the lock
	// and close outside it — the interrupted handler is the only writer.
	e.mu.Lock()
	var jw *jobJournal
	if e.jw != nil && !e.journalBroken {
		jw = e.jw
		e.jpath = e.jw.path
		e.jw = nil
	}
	e.mu.Unlock()
	if jw != nil {
		if err := jw.closeJournal(); err != nil {
			s.met.incJournalFailure()
		}
	}
	s.met.incSuspended()
	for _, ev := range s.reg.suspend(e, kind, strike) {
		s.met.incEvicted()
		ev.mu.Lock()
		if ev.jw != nil {
			//lint:ignore lockhold eviction fences a concurrent resume reattach with the entry lock; the entry is suspended so nobody streams under it
			_ = ev.jw.removeJournal()
			ev.jw = nil
		} else if ev.jpath != "" {
			_ = os.Remove(ev.jpath)
		}
		ev.mu.Unlock()
	}
}

// runJob executes one admitted job on the calling goroutine, streaming
// columns to sw as the batch solve commits them. For resumes, columns
// [from, committed) replay bit-for-bit from the in-memory checkpoint before
// the solve continues at the checkpoint boundary. The terminal record is the
// caller's (finishJob) responsibility.
func (s *Server) runJob(ctx context.Context, sw *streamWriter, job *job, entry *jobEntry, from int, plan degradedPlan) (Done, int) {
	rep := &core.SolveReport{}
	sw.header(job, entry.id, from)

	columns := from
	if cp := plan.resume; cp != nil && from < cp.Columns {
		n := len(job.mna.StateNames)
		bufs := make([][]float64, len(job.scenarios))
		for sidx := range bufs {
			bufs[sidx] = make([]float64, n)
		}
		h := job.T / float64(job.m)
		for j := from; j < cp.Columns; j++ {
			// Honor cancellation at column granularity, same as the solver:
			// the batch solve below sees the cancelled ctx and produces the
			// terminal record through the usual path.
			if ctx.Err() != nil {
				break
			}
			for sidx := range bufs {
				if err := cp.StateColumn(bufs[sidx], sidx, j, job.scenarios[sidx].X0); err != nil {
					sw.fail(err)
					break
				}
			}
			tj := (float64(j) + 0.5) * h
			if s.columnHook != nil {
				s.columnHook(job.title, j)
			}
			sw.column(j, tj, bufs, job.stateIdx)
			columns = j + 1
		}
	}

	opts := core.BatchOptions{
		Options: core.Options{
			Workers:     s.cfg.SolveWorkers,
			HistoryMode: job.history,
			Report:      rep,
			FactorCache: s.cache,
			Fault:       s.cfg.Fault,
		},
		CheckpointEvery: plan.checkpointEvery,
		ResumeFrom:      plan.resume,
		OnCheckpoint: func(d *core.CheckpointDelta) {
			if err := entry.applyCheckpointDelta(d); err != nil {
				s.met.incJournalFailure()
			}
		},
		OnColumn: func(col int, t float64, cols [][]float64) {
			if s.columnHook != nil {
				s.columnHook(job.title, col)
			}
			if col >= from {
				sw.column(col, t, cols, job.stateIdx)
				columns = col + 1
			}
		},
	}
	_, err := core.SolveBatchCtx(ctx, job.mna.Sys, job.scenarios, job.m, job.T, opts)
	return Done{
		Title:     job.title,
		Priority:  priorityName(job.prio),
		Scenarios: len(job.scenarios),
		Columns:   columns,
		Report:    rep,
		Err:       err,
		sw:        sw,
	}, columns
}
