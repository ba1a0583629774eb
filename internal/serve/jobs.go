package serve

//lint:hot

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"opmsim/internal/core"
)

// jobEntry is one registered job's resilience state: the verbatim request
// body (the job's identity — reparsing it rebuilds the identical solve), the
// accumulated in-memory checkpoint, the journal handle, and the degradation
// strike count. Exactly one handler goroutine is attached to an entry at a
// time (the registry enforces it), so the solve-side fields need no finer
// locking than the entry mutex guarding attach/suspend transitions.
type jobEntry struct {
	id   string
	seq  uint64
	prio int

	mu            sync.Mutex
	body          []byte
	parsed        *job
	cp            *core.Checkpoint
	jw            *jobJournal
	jpath         string // recovered journal awaiting reopen ("" = none)
	journalBroken bool
	attached      bool
	strikes       int
	lastKind      string // terminal kind of the previous attempt ("" = none)
	fp            uint64
	fpOK          bool
}

// ensureParsed returns the entry's parsed job, reparsing the stored request
// body on first use (journal-recovered entries carry only the body).
func (e *jobEntry) ensureParsed(cfg *Config) (*job, *RequestError) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.parsed != nil {
		return e.parsed, nil
	}
	j, rerr := parseRequest(e.body, cfg)
	if rerr != nil {
		return nil, rerr
	}
	e.parsed = j
	return j, nil
}

// applyCheckpointDelta folds a solver delta into the entry: always into the
// in-memory checkpoint, and — while the journal is healthy — durably into
// the journal. A journal failure flips the entry to in-memory-only mode
// (resume keeps working while the process lives) and reports the error once
// per failure; it never fails the solve.
func (e *jobEntry) applyCheckpointDelta(d *core.CheckpointDelta) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cp == nil {
		e.cp = &core.Checkpoint{}
	}
	//lint:ignore lockhold in-memory column fold; the entry lock is what makes it atomic with the journal append below
	if err := e.cp.ApplyCheckpoint(d); err != nil {
		return err
	}
	if e.jw == nil || e.journalBroken {
		return nil
	}
	//lint:ignore lockhold the entry mutex is the journal's serialization point: fold and fsynced append must commit together (DESIGN §11)
	if err := e.jw.appendCheckpointDelta(d); err != nil {
		e.journalBroken = true
		//lint:ignore lockhold failure path of the serialized append; the handle must be detached before the lock is released
		_ = e.jw.closeJournal()
		e.jw = nil
		return err
	}
	return nil
}

// registry tracks every resumable job by ID. Attached entries (a handler
// goroutine is streaming them) are bounded by the admission queue; suspended
// entries (interrupted, awaiting resume) are bounded by maxIdle with
// oldest-first eviction, which also bounds the journal directory.
type registry struct {
	mu      sync.Mutex
	byID    map[string]*jobEntry
	nextID  uint64
	nextSeq uint64
	maxIdle int
}

func newRegistry(maxIdle int) *registry {
	return &registry{byID: make(map[string]*jobEntry), maxIdle: maxIdle}
}

// errAttached reports an entry already claimed by another handler.
var errAttached = errors.New("serve: job is already attached to a stream")

// newEntry registers a fresh attached entry under a new ID.
func (r *registry) newEntry(body []byte, prio int) *jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.nextSeq++
	e := &jobEntry{
		id:       fmt.Sprintf("job-%06d", r.nextID),
		seq:      r.nextSeq,
		prio:     prio,
		body:     body,
		attached: true,
	}
	r.byID[e.id] = e
	return e
}

// adopt registers a journal-recovered entry (suspended). Numeric ID suffixes
// advance the ID counter so new jobs never collide with recovered ones.
func (r *registry) adopt(st *journalState, prio int) *jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[st.id]; ok {
		return nil
	}
	if num, ok := strings.CutPrefix(st.id, "job-"); ok {
		if v, err := strconv.ParseUint(num, 10, 64); err == nil && v > r.nextID {
			r.nextID = v
		}
	}
	r.nextSeq++
	e := &jobEntry{
		id:    st.id,
		seq:   r.nextSeq,
		prio:  prio,
		body:  st.body,
		cp:    st.cp,
		jpath: st.path,
	}
	r.byID[e.id] = e
	return e
}

func (r *registry) lookup(id string) *jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// attach claims a suspended entry for a resuming handler.
func (r *registry) attach(e *jobEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID[e.id] != e {
		return errors.New("serve: job expired")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.attached {
		return errAttached
	}
	e.attached = true
	return nil
}

// detach returns an attached entry to the suspended pool without recording
// an attempt (admission failed before the solve started).
func (r *registry) detach(e *jobEntry) {
	e.mu.Lock()
	e.attached = false
	e.mu.Unlock()
}

// suspend parks an interrupted entry for later resume, recording the
// terminal kind and whether it counts as a degradation strike. It returns
// entries evicted to keep the suspended pool within bounds (the caller owns
// their journal cleanup).
func (r *registry) suspend(e *jobEntry, kind string, strike bool) []*jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.mu.Lock()
	e.attached = false
	e.lastKind = kind
	if strike {
		e.strikes++
	}
	e.mu.Unlock()

	var evicted []*jobEntry
	for {
		idle, oldest := 0, (*jobEntry)(nil)
		for _, o := range r.byID {
			o.mu.Lock()
			att := o.attached
			o.mu.Unlock()
			if att {
				continue
			}
			idle++
			if oldest == nil || o.seq < oldest.seq {
				oldest = o
			}
		}
		if idle <= r.maxIdle || oldest == nil {
			return evicted
		}
		delete(r.byID, oldest.id)
		evicted = append(evicted, oldest)
	}
}

// remove drops a finished entry.
func (r *registry) remove(e *jobEntry) {
	r.mu.Lock()
	delete(r.byID, e.id)
	r.mu.Unlock()
}

// jobSummary is one row of GET /v1/jobs.
type jobSummary struct {
	ID       string `json:"id"`
	State    string `json:"state"` // "running" | "suspended"
	Columns  int    `json:"columns"`
	Steps    int    `json:"steps,omitempty"`
	LastKind string `json:"lastError,omitempty"`
	Strikes  int    `json:"strikes,omitempty"`
}

// summaries lists every registered job, oldest first (sorted by registration
// sequence — map iteration order never leaks to the wire).
func (r *registry) summaries() []jobSummary {
	r.mu.Lock()
	entries := make([]*jobEntry, 0, len(r.byID))
	for _, e := range r.byID {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })

	out := make([]jobSummary, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		js := jobSummary{ID: e.id, State: "suspended", LastKind: e.lastKind, Strikes: e.strikes}
		if e.attached {
			js.State = "running"
		}
		if e.cp != nil {
			js.Columns = e.cp.Columns
			js.Steps = e.cp.M
		}
		e.mu.Unlock()
		out = append(out, js)
	}
	return out
}
