package serve

//lint:hot

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"opmsim/internal/core"
)

// The stream is newline-delimited JSON (application/x-ndjson): one header
// record, one record per solved column, and exactly one terminal record
// ("done" on success, "error" on failure). Every float64 is written in Go's
// shortest round-trip representation, so parsing a streamed value back
// recovers the exact bit pattern the solver committed — the property the
// streaming-conformance suite asserts against offline SolveBatch. Column
// records come from appendColumn, a hand-written encoder whose output is
// byte-identical to encoding/json's; the rare header and terminal records go
// through encoding/json itself.

// headerRecord opens the stream: what is being solved and how the column
// records are laid out.
type headerRecord struct {
	Type      string    `json:"type"` // "header"
	Title     string    `json:"title,omitempty"`
	Job       string    `json:"job,omitempty"`  // registry ID — the resume handle
	From      int       `json:"from,omitempty"` // first column this stream carries
	States    []string  `json:"states"`
	Steps     int       `json:"steps"`
	TStop     float64   `json:"tstop"`
	Scenarios int       `json:"scenarios"`
	Scales    []float64 `json:"scales"`
}

// columnRecord carries one BPF column: X[s][i] is streamed state i of
// scenario s at column J (midpoint time T).
type columnRecord struct {
	Type string      `json:"type"` // "column"
	J    int         `json:"j"`
	T    float64     `json:"t"`
	X    [][]float64 `json:"x"`
}

// reportRecord summarizes the solver report in the "done" trailer.
type reportRecord struct {
	Factorizations int `json:"factorizations"`
	CacheHits      int `json:"cacheHits"`
	// CacheUpdateHits counts scenarios served by Sherman–Morrison–Woodbury
	// updates against a cached nominal factorization (tolerance sweeps);
	// PencilRefactors counts perturbed scenarios past the crossover rank
	// that factored from scratch instead.
	CacheUpdateHits int `json:"cacheUpdateHits,omitempty"`
	PencilRefactors int `json:"pencilRefactors,omitempty"`
	// UpdateCrossoverRank is the SMW-vs-refactor rank limit that split
	// them (SolveReport.UpdateCrossoverRank; −1 when updates were off).
	UpdateCrossoverRank int    `json:"updateCrossoverRank,omitempty"`
	CacheMisses         int    `json:"cacheMisses"`
	HistoryEngine       string `json:"historyEngine,omitempty"`
	// Column solves per factorization tier: the supernodal/BBD tier
	// serves pencils of DefaultSupernodalMinN states and more.
	SupernodalSolves int  `json:"supernodalSolves,omitempty"`
	SparseLUSolves   int  `json:"sparseLUSolves"`
	DenseLUSolves    int  `json:"denseLUSolves,omitempty"`
	QRSolves         int  `json:"qrSolves,omitempty"`
	Degraded         bool `json:"degraded,omitempty"`
}

type doneRecord struct {
	Type    string       `json:"type"` // "done"
	Columns int          `json:"columns"`
	Report  reportRecord `json:"report"`
}

type errorRecord struct {
	Type  string `json:"type"` // "error"
	Kind  string `json:"kind"`
	Error string `json:"error"`
	// Resume handles: on an interrupted-but-resumable job, Job names the
	// registry entry and NextColumn the first column a resume would stream.
	Job        string `json:"job,omitempty"`
	Resumable  bool   `json:"resumable,omitempty"`
	NextColumn int    `json:"nextColumn,omitempty"`
}

// errKind maps the solver error taxonomy onto stable wire names.
func errKind(err error) string {
	switch {
	case errors.Is(err, core.ErrCancelled):
		return "cancelled"
	case errors.Is(err, core.ErrSingularPencil):
		return "singular-pencil"
	case errors.Is(err, core.ErrIllConditioned):
		return "ill-conditioned"
	case errors.Is(err, core.ErrNonFinite):
		return "non-finite"
	case errors.Is(err, core.ErrNonConvergence):
		return "non-convergence"
	}
	return "internal"
}

// streamQueueLen bounds the records in flight between a job's solve and its
// writer goroutine, and streamQueueValues caps the column buffers behind them
// at 1 MiB of float64 values, so a wide sweep queues fewer columns (never
// fewer than one). A full queue blocks the solver: a slow client still holds
// back its own job, as it would with synchronous writes.
const (
	streamQueueLen    = 16
	streamQueueValues = 1 << 17
)

// streamWriteBatch is the encoded size at which a writer that has fallen
// behind hands its batch to the response without waiting for its queue to
// empty.
const streamWriteBatch = 64 << 10

// streamCounters are the encode-and-flush layer's /metrics counters. Writer
// goroutines advance them with atomic adds: records and bytes delivered to
// the response, and Flush calls.
type streamCounters struct {
	records, flushes, bytes atomic.Int64
}

// streamItem is one record on its way to the writer goroutine: a column
// (j, t and k scenarios of len(vals)/k values each, in a buffer recycled
// through the free list), a non-column record rec, or a failure to latch.
type streamItem struct {
	rec  any
	fail error
	j, k int
	t    float64
	vals []float64
}

func (it *streamItem) isColumn() bool { return it.rec == nil && it.fail == nil }

// streamWriter streams a job's records to the response from a writer
// goroutine of its own, so encoding and writing overlap the solve. The solve
// side hands each column off by copying it into a free buffer; the writer
// encodes it, returns the buffer, and calls Flush only when its queue is
// empty — the first records go out at once, and a writer that falls behind
// batches records into one write. Every record takes the same queue, so
// record order is hand-off order. The first encode or write error latches:
// later records are dropped (the solve itself stops at the next column
// boundary via context cancellation, since a dead connection cancels the
// request context). The solve-side methods are for the handler goroutine
// only; the terminal record's method and close join the writer.
type streamWriter struct {
	// Solve side.
	queue  chan *streamItem
	free   chan *streamItem
	exited chan struct{}
	nbuf   int // column buffers allocated so far
	closed bool
	failed atomic.Bool // an error latched, or fail was called

	// Writer side.
	w       io.Writer
	flush   func()
	ctr     *streamCounters
	err     error
	out     []byte // encoded records not yet written
	pending int64  // records in out
	dirty   bool   // written since the last Flush
}

// newStreamWriter sets the stream's response headers and starts its writer
// goroutine; ctr receives the writer's counters.
func newStreamWriter(w http.ResponseWriter, ctr *streamCounters) *streamWriter {
	sw := &streamWriter{
		// Room for every column buffer plus the header, a fail and the
		// terminal record: handing a record off never waits on the queue.
		queue: make(chan *streamItem, streamQueueLen+3),
		// Room for the most column buffers buffer ever allocates: the
		// writer's hand-back never blocks either.
		free:   make(chan *streamItem, streamQueueLen),
		exited: make(chan struct{}),
		w:      w,
		flush:  func() {},
		ctr:    ctr,
	}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	go sw.run(sw.exited)
	return sw
}

// run is the writer goroutine: it drains the queue until close.
func (sw *streamWriter) run(exited chan<- struct{}) {
	defer close(exited)
	for it := range sw.queue {
		sw.encode(it)
		if it.isColumn() {
			sw.free <- it
		}
		if idle := len(sw.queue) == 0; idle || len(sw.out) >= streamWriteBatch {
			sw.writeOut(idle)
		}
	}
}

// encode appends one record to the pending batch, or latches its failure.
func (sw *streamWriter) encode(it *streamItem) {
	if sw.err != nil {
		return
	}
	var out []byte
	var err error
	switch {
	case it.fail != nil:
		err = it.fail
	case it.rec != nil:
		var b []byte
		if b, err = json.Marshal(it.rec); err == nil {
			out = append(append(sw.out, b...), '\n')
		}
	default:
		out, err = appendColumn(sw.out, it.j, it.t, it.vals, it.k)
	}
	if err != nil {
		// Records before the failure still go out, nothing after it does.
		sw.writeOut(true)
		sw.latch(err)
		return
	}
	sw.out = out
	sw.pending++
}

func (sw *streamWriter) latch(err error) {
	if sw.err == nil {
		sw.err = err
		sw.failed.Store(true)
	}
}

// writeOut writes the pending batch and, when flush is set, flushes
// everything written since the last Flush.
func (sw *streamWriter) writeOut(flush bool) {
	if sw.err == nil && len(sw.out) > 0 {
		n, err := sw.w.Write(sw.out)
		sw.ctr.bytes.Add(int64(n))
		if err != nil {
			sw.latch(err)
		} else {
			sw.ctr.records.Add(sw.pending)
			sw.dirty = true
		}
	}
	sw.out, sw.pending = sw.out[:0], 0
	if flush && sw.dirty && sw.err == nil {
		sw.flush()
		sw.ctr.flushes.Add(1)
		sw.dirty = false
	}
}

// send hands a non-column record to the writer.
func (sw *streamWriter) send(rec any) {
	if !sw.closed {
		sw.queue <- &streamItem{rec: rec}
	}
}

// fail latches err behind the records already handed off: they still go out,
// nothing after them does. The resume replay calls it when a checkpointed
// column cannot be rebuilt.
func (sw *streamWriter) fail(err error) {
	if sw.failed.Load() || sw.closed {
		return
	}
	sw.failed.Store(true)
	sw.queue <- &streamItem{fail: err}
}

// finish hands off the terminal record and joins the writer.
func (sw *streamWriter) finish(rec any) {
	sw.send(rec)
	sw.close()
}

// close joins the writer once everything handed off has been written. It is
// idempotent, so a deferred close covers every exit path.
func (sw *streamWriter) close() {
	if sw.closed {
		return
	}
	sw.closed = true
	close(sw.queue)
	<-sw.exited
}

// buffer returns a column buffer of n values: a recycled one when the writer
// has returned one, a new one while fewer than the queue bound exist, and
// otherwise the next one the writer returns.
func (sw *streamWriter) buffer(n int) *streamItem {
	select {
	case it := <-sw.free:
		return it
	default:
	}
	limit := streamQueueLen
	if n > 0 {
		limit = min(max(streamQueueValues/n, 1), streamQueueLen)
	}
	if sw.nbuf < limit {
		sw.nbuf++
		return &streamItem{vals: make([]float64, n)}
	}
	return <-sw.free
}

func (sw *streamWriter) header(job *job, id string, from int) {
	sw.send(&headerRecord{
		Type:      "header",
		Title:     job.title,
		Job:       id,
		From:      from,
		States:    job.labels,
		Steps:     job.m,
		TStop:     job.T,
		Scenarios: len(job.scenarios),
		Scales:    job.scales,
	})
}

// column hands off one solved column: cols[s] is scenario s's full state
// column (owned by the solver, valid only during this call), stateIdx the
// subset of states the client asked for. It returns once the values are
// copied.
func (sw *streamWriter) column(j int, t float64, cols [][]float64, stateIdx []int) {
	if sw.closed || sw.failed.Load() {
		return
	}
	width := len(stateIdx)
	it := sw.buffer(len(cols) * width)
	it.j, it.k, it.t = j, len(cols), t
	for s, col := range cols {
		dst := it.vals[s*width : (s+1)*width]
		for k, i := range stateIdx {
			dst[k] = col[i]
		}
	}
	sw.queue <- it
}

// done streams the "done" trailer and joins the writer.
func (sw *streamWriter) done(columns int, rep *core.SolveReport) {
	sw.finish(&doneRecord{
		Type:    "done",
		Columns: columns,
		Report: reportRecord{
			Factorizations:      rep.Factorizations,
			CacheHits:           rep.FactorCacheHits,
			CacheUpdateHits:     rep.FactorCacheUpdateHits,
			PencilRefactors:     rep.PencilRefactors,
			UpdateCrossoverRank: rep.UpdateCrossoverRank,
			CacheMisses:         rep.FactorCacheMisses,
			HistoryEngine:       rep.HistoryEngine,
			SupernodalSolves:    rep.TierSolves[core.TierSupernodal],
			SparseLUSolves:      rep.TierSolves[core.TierSparseLU],
			DenseLUSolves:       rep.TierSolves[core.TierDenseLU],
			QRSolves:            rep.TierSolves[core.TierQR],
			Degraded:            rep.Degraded(),
		},
	})
}

// failResumable emits the terminal error record with the resume handle:
// POSTing {"job": Job, "from": NextColumn} to /v1/resume continues the
// stream. Writing may itself fail (the usual cancellation cause is a dead
// connection); that is fine — the record is a courtesy to clients that
// aborted the solve some other way, and the journal still has the handle.
// Like done, it joins the writer.
func (sw *streamWriter) failResumable(err error, kind, jobID string, nextColumn int) {
	sw.finish(&errorRecord{
		Type:       "error",
		Kind:       kind,
		Error:      err.Error(),
		Job:        jobID,
		Resumable:  true,
		NextColumn: nextColumn,
	})
}

// appendColumn appends one column record and its newline to dst — k
// scenarios of len(vals)/k values each — byte for byte as json.Encoder would
// encode the equivalent columnRecord. A non-finite value, which
// encoding/json refuses, returns encoding/json's error; the record is then
// incomplete and the caller drops it.
func appendColumn(dst []byte, j int, t float64, vals []float64, k int) ([]byte, error) {
	// num holds one formatted value at a time, so dst only ever grows by
	// appending to itself.
	var num [32]byte
	f, err := formatJSONFloat(num[:0], t)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"type":"column","j":`...)
	dst = strconv.AppendInt(dst, int64(j), 10)
	dst = append(dst, `,"t":`...)
	dst = append(dst, f...)
	dst = append(dst, `,"x":[`...)
	width := 0
	if k > 0 {
		width = len(vals) / k
	}
	for s := 0; s < k; s++ {
		if s > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for i, v := range vals[s*width : (s+1)*width] {
			if i > 0 {
				dst = append(dst, ',')
			}
			f, err := formatJSONFloat(num[:0], v)
			if err != nil {
				return dst, err
			}
			dst = append(dst, f...)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...), nil
}

// formatJSONFloat appends v to dst as encoding/json formats it: shortest
// round-trip digits, 'f' notation inside [1e-6, 1e21) and for zero, 'e'
// outside it with the exponent unpadded (e-7, not e-07; e+21).
func formatJSONFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	abs := math.Abs(v)
	if isExactZero(abs) {
		return append(dst, '0'), nil
	}
	f, e := shortestDecimal(abs)
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], f, 10)
	nd := len(digits)
	dp := nd + e // the decimal point sits after digit dp
	if abs < 1e-6 || abs >= 1e21 {
		dst = append(dst, digits[0])
		if nd > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		dst = append(dst, 'e')
		if dp > 1 {
			dst = append(dst, '+')
		}
		return strconv.AppendInt(dst, int64(dp-1), 10), nil
	}
	switch {
	case dp <= 0:
		dst = append(dst, "0.000000"[:2-dp]...)
		dst = append(dst, digits...)
	case dp < nd:
		dst = append(dst, digits[:dp]...)
		dst = append(dst, '.')
		dst = append(dst, digits[dp:]...)
	default:
		dst = append(dst, digits...)
		dst = append(dst, "00000000000000000000"[:dp-nd]...)
	}
	return dst, nil
}

// isExactZero reports whether v is exactly zero: encoding/json writes zero in
// 'f' notation whatever the cutoffs say.
func isExactZero(v float64) bool { return v == 0 }
