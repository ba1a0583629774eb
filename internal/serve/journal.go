package serve

//lint:hot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
)

// The job journal is the service's durability layer: one append-only file
// per job under Config.JournalDir, holding the original request body and
// every checkpoint delta the solve committed. The format is built for
// crash-consistency, not density:
//
//	frame   := length(u32 LE) | crc32c(u32 LE, over payload) | payload
//	payload := 'S' start | 'C' checkpoint delta | 'D' done
//
// Every append is fsynced before the solve continues past the checkpoint
// boundary, so after a crash the journal holds a prefix of frames whose last
// one may be torn. Recovery walks frames until the first length/CRC/decode
// violation, truncates the file there (the corrupt tail is unrecoverable by
// construction — a checkpoint delta is useless without its predecessors, and
// later deltas would not apply), and resumes the job from the surviving
// prefix. A journal whose start record is damaged identifies nothing and is
// rejected whole.

const (
	journalExt  = ".opmj"
	recStart    = 'S'
	recDelta    = 'C'
	recDone     = 'D'
	frameHeader = 8
	// maxJournalRecord bounds a single frame; anything larger is treated as
	// a corrupt length field. Sized for the largest delta the service can
	// produce (MaxSteps columns × scenario cap × 8 bytes has to fit).
	maxJournalRecord = 1 << 30
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// errJournalWrite wraps append failures so callers can distinguish a broken
// journal (degrade to in-memory checkpoints) from programmer errors.
var errJournalWrite = errors.New("serve: journal write failed")

// jobJournal is the append handle for one job's journal file.
type jobJournal struct {
	f     *os.File
	path  string
	hooks *faultinject.ServeHooks
}

func journalPath(dir, id string) string { return filepath.Join(dir, id+journalExt) }

// createJobJournal creates the journal for a newly admitted job and durably
// writes its start record (job ID plus the verbatim request body, so a
// recovered server can rebuild the identical solve). On any failure the
// half-created file is removed — a job either has a replayable journal or
// none.
func createJobJournal(dir, id string, body []byte, hooks *faultinject.ServeHooks) (*jobJournal, error) {
	path := journalPath(dir, id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errJournalWrite, err)
	}
	jw := &jobJournal{f: f, path: path, hooks: hooks}
	payload := make([]byte, 0, 1+4+len(id)+len(body))
	payload = append(payload, recStart)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(id)))
	payload = append(payload, id...)
	payload = append(payload, body...)
	if err := jw.appendJournalRecord(payload); err != nil {
		_ = jw.f.Close()
		_ = os.Remove(path)
		return nil, err
	}
	return jw, nil
}

// openJobJournal reopens a recovered journal for appending; replayJobJournal
// has already truncated any corrupt tail, so appends continue the frame
// stream cleanly.
func openJobJournal(path string, hooks *faultinject.ServeHooks) (*jobJournal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errJournalWrite, err)
	}
	return &jobJournal{f: f, path: path, hooks: hooks}, nil
}

// appendJournalRecord frames, writes, and fsyncs one payload. The fault
// hooks run here — before and during the write — so every caller inherits
// the injected failure modes.
func (jw *jobJournal) appendJournalRecord(payload []byte) error {
	if jw.hooks != nil && jw.hooks.JournalWriteFail != nil && jw.hooks.JournalWriteFail(frameHeader+len(payload)) {
		return fmt.Errorf("%w: injected write failure", errJournalWrite)
	}
	frame := make([]byte, 0, frameHeader+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, journalCRC))
	frame = append(frame, payload...)
	if jw.hooks != nil && jw.hooks.CorruptRecord != nil {
		frame = jw.hooks.CorruptRecord(frame)
	}
	if _, err := jw.f.Write(frame); err != nil {
		return fmt.Errorf("%w: %v", errJournalWrite, err)
	}
	if err := jw.f.Sync(); err != nil {
		return fmt.Errorf("%w: fsync: %v", errJournalWrite, err)
	}
	return nil
}

// appendCheckpointDelta journals one solver checkpoint delta.
func (jw *jobJournal) appendCheckpointDelta(d *core.CheckpointDelta) error {
	return jw.appendJournalRecord(encodeCheckpointDelta(d))
}

// appendJournalDone journals the job's terminal record; kind is the typed
// error kind, or "" for success.
func (jw *jobJournal) appendJournalDone(kind string) error {
	payload := make([]byte, 0, 1+len(kind))
	payload = append(payload, recDone)
	payload = append(payload, kind...)
	return jw.appendJournalRecord(payload)
}

// closeJournal closes the file handle; the journal stays on disk for
// recovery.
func (jw *jobJournal) closeJournal() error {
	return jw.f.Close()
}

// removeJournal closes and deletes the journal — the job is complete and
// needs no recovery.
func (jw *jobJournal) removeJournal() error {
	cerr := jw.f.Close()
	if err := os.Remove(jw.path); err != nil {
		return fmt.Errorf("%w: %v", errJournalWrite, err)
	}
	return cerr
}

// encodeCheckpointDelta serializes a delta:
//
//	'C' | from to n m k (u32 LE) | T bits (u64 LE) | engLen(u8) engine |
//	crossover rank (i32 LE) | k slabs of (to−from)·n float64 bits LE
//
// The crossover rank makes the record 4 bytes longer than the slabs'
// multiple of 8, so a record written before the field existed fails the
// decoder's exact length check instead of being misread.
func encodeCheckpointDelta(d *core.CheckpointDelta) []byte {
	cols := d.To - d.From
	size := 1 + 5*4 + 8 + 1 + len(d.Engine) + 4 + d.K*cols*d.N*8
	payload := make([]byte, 0, size)
	payload = append(payload, recDelta)
	for _, v := range [...]int{d.From, d.To, d.N, d.M, d.K} {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
	}
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(d.T))
	payload = append(payload, byte(len(d.Engine)))
	payload = append(payload, d.Engine...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(int32(d.UpdateCrossoverRank)))
	for _, slab := range d.Slabs {
		for _, v := range slab {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	return payload
}

// decodeCheckpointDelta is the bounds-checked inverse of
// encodeCheckpointDelta; every length field is validated before use so
// corrupt (but CRC-colliding) or fuzzed payloads error out instead of
// panicking or allocating absurdly.
func decodeCheckpointDelta(payload []byte) (*core.CheckpointDelta, error) {
	if len(payload) < 1+5*4+8+1 || payload[0] != recDelta {
		return nil, errors.New("serve: short or mistyped delta record")
	}
	p := payload[1:]
	var hdr [5]int
	for i := range hdr {
		hdr[i] = int(binary.LittleEndian.Uint32(p))
		p = p[4:]
	}
	d := &core.CheckpointDelta{From: hdr[0], To: hdr[1], N: hdr[2], M: hdr[3], K: hdr[4]}
	d.T = math.Float64frombits(binary.LittleEndian.Uint64(p))
	p = p[8:]
	engLen := int(p[0])
	p = p[1:]
	if len(p) < engLen+4 {
		return nil, errors.New("serve: delta engine name or crossover rank truncated")
	}
	d.Engine = string(p[:engLen])
	p = p[engLen:]
	d.UpdateCrossoverRank = int(int32(binary.LittleEndian.Uint32(p)))
	p = p[4:]
	cols := d.To - d.From
	if d.N <= 0 || d.K <= 0 || cols <= 0 || d.M <= 0 ||
		d.N > 1<<20 || d.K > 1<<20 || d.M > 1<<28 || d.To > d.M {
		return nil, fmt.Errorf("serve: delta header out of range (n=%d m=%d k=%d cols=%d)", d.N, d.M, d.K, cols)
	}
	// Overflow-safe size check: the payload is bounded by maxJournalRecord,
	// so reject any header whose slab volume could not fit before
	// multiplying it out.
	if cols > maxJournalRecord/8/d.N || cols*d.N > maxJournalRecord/8/d.K {
		return nil, fmt.Errorf("serve: delta header volume overflows (n=%d k=%d cols=%d)", d.N, d.K, cols)
	}
	want := d.K * cols * d.N * 8
	if len(p) != want {
		return nil, fmt.Errorf("serve: delta slab bytes = %d, want %d", len(p), want)
	}
	d.Slabs = make([][]float64, d.K)
	for s := range d.Slabs {
		//lint:ignore allocsite decoded slabs are the record's output, one allocation per scenario slab is the contract
		slab := make([]float64, cols*d.N)
		for i := range slab {
			slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		d.Slabs[s] = slab
	}
	return d, nil
}

// journalState is the outcome of replaying one job's journal: identity, the
// original request body, the accumulated checkpoint, and whether the job had
// already finished.
type journalState struct {
	id        string
	body      []byte
	cp        *core.Checkpoint
	done      bool
	doneKind  string
	truncated int // corrupt tail bytes dropped (0 = clean)
	path      string
}

// applyRecord folds one CRC-valid payload into the state. Errors mean the
// record is semantically invalid — the caller treats it exactly like a CRC
// failure (corrupt tail) unless it is the first record.
func (st *journalState) applyRecord(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("serve: empty journal record")
	}
	switch payload[0] {
	case recStart:
		if st.id != "" {
			return errors.New("serve: duplicate start record")
		}
		if len(payload) < 1+4 {
			return errors.New("serve: short start record")
		}
		idLen := int(binary.LittleEndian.Uint32(payload[1:5]))
		if idLen <= 0 || idLen > 256 || len(payload) < 5+idLen {
			return errors.New("serve: start record id length out of range")
		}
		st.id = string(payload[5 : 5+idLen])
		st.body = append([]byte(nil), payload[5+idLen:]...)
		return nil
	case recDelta:
		if st.id == "" {
			return errors.New("serve: delta before start record")
		}
		d, err := decodeCheckpointDelta(payload)
		if err != nil {
			return err
		}
		if st.cp == nil {
			st.cp = &core.Checkpoint{}
		}
		return st.cp.ApplyCheckpoint(d)
	case recDone:
		if st.id == "" {
			return errors.New("serve: done before start record")
		}
		st.done = true
		st.doneKind = string(payload[1:])
		return nil
	default:
		return fmt.Errorf("serve: unknown journal record type %q", payload[0])
	}
}

// replayJobJournal reads one journal file frame by frame, stopping at the
// first torn, CRC-damaged, or semantically invalid frame. The surviving
// prefix becomes the job's recovered state and the corrupt tail is truncated
// in place; a journal with no usable start record is rejected with an error.
// The function never panics on hostile input — FuzzJournalReplay holds it to
// that.
func replayJobJournal(path string) (*journalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &journalState{path: path}
	off := 0
	for {
		if off+frameHeader > len(data) {
			break // torn frame header
		}
		ln := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if ln <= 0 || ln > maxJournalRecord || off+frameHeader+ln > len(data) {
			break // corrupt length or torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+ln]
		if crc32.Checksum(payload, journalCRC) != crc {
			break // bit rot
		}
		if err := st.applyRecord(payload); err != nil {
			if st.id == "" {
				return nil, fmt.Errorf("serve: journal %s: %w", filepath.Base(path), err)
			}
			break // semantically corrupt tail
		}
		off += frameHeader + ln
	}
	if st.id == "" {
		return nil, fmt.Errorf("serve: journal %s has no valid start record", filepath.Base(path))
	}
	st.truncated = len(data) - off
	if st.truncated > 0 {
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, fmt.Errorf("%w: truncating corrupt tail: %v", errJournalWrite, err)
		}
	}
	return st, nil
}

// recoverJournalDir replays every journal in dir in name order. Journals of
// finished jobs are deleted; unreadable or start-damaged journals are
// renamed aside (".rejected") so they stop matching the journal glob but
// stay available for post-mortems. The returned states are the incomplete
// jobs to re-admit.
func recoverJournalDir(dir string) (states []*journalState, rejected int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), journalExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		st, rerr := replayJobJournal(path)
		if rerr != nil {
			rejected++
			_ = os.Rename(path, path+".rejected")
			continue
		}
		if st.done {
			_ = os.Remove(path)
			continue
		}
		states = append(states, st)
	}
	return states, rejected, nil
}
