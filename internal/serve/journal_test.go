package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
)

// makeDelta builds a small well-formed checkpoint delta for journal tests.
func makeDelta(from, to, n, m, k int) *core.CheckpointDelta {
	d := &core.CheckpointDelta{From: from, To: to, N: n, M: m, K: k, T: 1.5, Engine: "exact"}
	d.Slabs = make([][]float64, k)
	for s := range d.Slabs {
		slab := make([]float64, (to-from)*n)
		for i := range slab {
			slab[i] = float64(s*1000+from*10+i) + 0.25
		}
		d.Slabs[s] = slab
	}
	return d
}

// oldFormatDelta encodes d the way 'C' records were written before they
// carried the SMW crossover rank: the engine name runs straight into the
// slabs.
func oldFormatDelta(d *core.CheckpointDelta) []byte {
	p := []byte{recDelta}
	for _, v := range [...]int{d.From, d.To, d.N, d.M, d.K} {
		p = binary.LittleEndian.AppendUint32(p, uint32(v))
	}
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(d.T))
	p = append(p, byte(len(d.Engine)))
	p = append(p, d.Engine...)
	for _, slab := range d.Slabs {
		for _, v := range slab {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
	}
	return p
}

func TestJournalDeltaRoundTrip(t *testing.T) {
	for _, rank := range []int{0, -1, 34, 215} {
		d := makeDelta(16, 32, 3, 64, 2)
		d.UpdateCrossoverRank = rank
		got, err := decodeCheckpointDelta(encodeCheckpointDelta(d))
		if err != nil {
			t.Fatal(err)
		}
		if got.From != d.From || got.To != d.To || got.N != d.N || got.M != d.M || got.K != d.K ||
			math.Float64bits(got.T) != math.Float64bits(d.T) || got.Engine != d.Engine ||
			got.UpdateCrossoverRank != d.UpdateCrossoverRank {
			t.Fatalf("header round trip: got %+v, want %+v", got, d)
		}
		for s := range d.Slabs {
			for i := range d.Slabs[s] {
				if math.Float64bits(got.Slabs[s][i]) != math.Float64bits(d.Slabs[s][i]) {
					t.Fatalf("slab %d[%d] round trip lost bits", s, i)
				}
			}
		}
		// A record written without the crossover rank fails to decode,
		// whatever the engine name, and a journal holding one keeps only
		// its start record.
		for _, eng := range []string{"", "exact", "fft"} {
			d.Engine = eng
			if got, err := decodeCheckpointDelta(oldFormatDelta(d)); err == nil {
				t.Fatalf("old-format record (engine %q) decoded as %+v", eng, got)
			}
		}
	}
	dir := t.TempDir()
	jw, err := createJobJournal(dir, "job-000003", []byte("body"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.appendJournalRecord(oldFormatDelta(makeDelta(0, 16, 3, 64, 2))); err != nil {
		t.Fatal(err)
	}
	if err := jw.closeJournal(); err != nil {
		t.Fatal(err)
	}
	st, err := replayJobJournal(journalPath(dir, "job-000003"))
	if err != nil {
		t.Fatal(err)
	}
	if st.cp != nil || st.truncated == 0 {
		t.Fatalf("old-format delta replayed: checkpoint %+v, %d bytes truncated", st.cp, st.truncated)
	}
}

func TestJournalWriteReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"netlist": "x"}`)
	jw, err := createJobJournal(dir, "job-000007", body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.appendCheckpointDelta(makeDelta(0, 16, 3, 64, 2)); err != nil {
		t.Fatal(err)
	}
	if err := jw.appendCheckpointDelta(makeDelta(16, 32, 3, 64, 2)); err != nil {
		t.Fatal(err)
	}
	if err := jw.closeJournal(); err != nil {
		t.Fatal(err)
	}

	st, err := replayJobJournal(journalPath(dir, "job-000007"))
	if err != nil {
		t.Fatal(err)
	}
	if st.id != "job-000007" || !bytes.Equal(st.body, body) {
		t.Fatalf("replayed identity = %q body %q", st.id, st.body)
	}
	if st.done || st.truncated != 0 {
		t.Fatalf("replay flags: done=%v truncated=%d", st.done, st.truncated)
	}
	if st.cp == nil || st.cp.Columns != 32 || st.cp.N != 3 || st.cp.K != 2 {
		t.Fatalf("replayed checkpoint = %+v", st.cp)
	}
}

// TestJournalCorruptTailTruncation damages the last record three ways — torn
// frame, flipped payload bit, garbage length — and requires recovery to keep
// the clean prefix and truncate the file in place, never panicking.
func TestJournalCorruptTailTruncation(t *testing.T) {
	write := func(t *testing.T, dir string, hooks *faultinject.ServeHooks) string {
		t.Helper()
		jw, err := createJobJournal(dir, "job-000001", []byte("body"), hooks)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.appendCheckpointDelta(makeDelta(0, 8, 2, 32, 1)); err != nil {
			t.Fatal(err)
		}
		if err := jw.appendCheckpointDelta(makeDelta(8, 16, 2, 32, 1)); err != nil {
			t.Fatal(err)
		}
		if err := jw.closeJournal(); err != nil {
			t.Fatal(err)
		}
		return journalPath(dir, "job-000001")
	}

	t.Run("torn-last-record", func(t *testing.T) {
		// Record 2 (0-based: start, delta, delta) written half-length.
		path := write(t, t.TempDir(), faultinject.TornRecord(2))
		st, err := replayJobJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.cp == nil || st.cp.Columns != 8 {
			t.Fatalf("surviving checkpoint columns = %v, want 8", st.cp)
		}
		if st.truncated == 0 {
			t.Fatal("replay did not report a truncated tail")
		}
		// Truncation is durable: a second replay sees a clean file.
		st2, err := replayJobJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st2.truncated != 0 || st2.cp.Columns != 8 {
			t.Fatalf("second replay: truncated=%d columns=%d", st2.truncated, st2.cp.Columns)
		}
	})

	t.Run("flipped-bit", func(t *testing.T) {
		path := write(t, t.TempDir(), faultinject.FlipBitInRecord(2, 40))
		st, err := replayJobJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.cp == nil || st.cp.Columns != 8 || st.truncated == 0 {
			t.Fatalf("bit rot not contained: %+v truncated=%d", st.cp, st.truncated)
		}
	})

	t.Run("garbage-appended", func(t *testing.T) {
		path := write(t, t.TempDir(), nil)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		st, err := replayJobJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.cp.Columns != 16 || st.truncated != 7 {
			t.Fatalf("columns=%d truncated=%d, want 16/7", st.cp.Columns, st.truncated)
		}
	})

	t.Run("damaged-start-record", func(t *testing.T) {
		dir := t.TempDir()
		path := write(t, dir, faultinject.FlipBitInRecord(0, 2))
		if _, err := replayJobJournal(path); err == nil {
			t.Fatal("replay accepted a journal with a damaged start record")
		}
	})
}

// TestJournalWriteFailureDegrades verifies an injected disk failure flips the
// entry to in-memory-only checkpoints without failing the solve.
func TestJournalWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	// First write (start record) succeeds, everything after fails.
	hooks := faultinject.FailJournalAfter(1)
	jw, err := createJobJournal(dir, "job-000003", []byte("body"), hooks)
	if err != nil {
		t.Fatal(err)
	}
	e := &jobEntry{id: "job-000003", jw: jw}
	if err := e.applyCheckpointDelta(makeDelta(0, 8, 2, 32, 1)); err == nil {
		t.Fatal("journal append did not report the injected failure")
	}
	if !e.journalBroken || e.jw != nil {
		t.Fatalf("entry did not degrade: broken=%v jw=%v", e.journalBroken, e.jw)
	}
	// The in-memory checkpoint still advanced, and further deltas apply
	// cleanly without touching the dead journal.
	if e.cp == nil || e.cp.Columns != 8 {
		t.Fatalf("in-memory checkpoint = %+v, want 8 columns", e.cp)
	}
	if err := e.applyCheckpointDelta(makeDelta(8, 16, 2, 32, 1)); err != nil {
		t.Fatalf("in-memory-only delta failed: %v", err)
	}
	if e.cp.Columns != 16 {
		t.Fatalf("checkpoint columns = %d, want 16", e.cp.Columns)
	}
}

// TestRecoverJournalDir exercises the startup sweep: done journals deleted,
// unreadable ones renamed aside, incomplete ones returned for re-admission.
func TestRecoverJournalDir(t *testing.T) {
	dir := t.TempDir()

	// Incomplete job with two deltas.
	jw, err := createJobJournal(dir, "job-000001", []byte("alpha"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.appendCheckpointDelta(makeDelta(0, 8, 2, 32, 1)); err != nil {
		t.Fatal(err)
	}
	if err := jw.closeJournal(); err != nil {
		t.Fatal(err)
	}

	// Finished job: done record present.
	jw2, err := createJobJournal(dir, "job-000002", []byte("beta"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw2.appendJournalDone(""); err != nil {
		t.Fatal(err)
	}
	if err := jw2.closeJournal(); err != nil {
		t.Fatal(err)
	}

	// Hopeless journal: random bytes, no valid start record.
	if err := os.WriteFile(filepath.Join(dir, "job-000003.opmj"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}

	states, rejected, err := recoverJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	if len(states) != 1 || states[0].id != "job-000001" || string(states[0].body) != "alpha" {
		t.Fatalf("recovered states = %+v", states)
	}
	if states[0].cp == nil || states[0].cp.Columns != 8 {
		t.Fatalf("recovered checkpoint = %+v", states[0].cp)
	}

	// Directory state: done journal gone, damaged renamed aside.
	if _, err := os.Stat(filepath.Join(dir, "job-000002.opmj")); !os.IsNotExist(err) {
		t.Fatal("finished job's journal survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "job-000003.opmj.rejected")); err != nil {
		t.Fatal("damaged journal was not renamed aside")
	}
}

// TestServerRecoversJournaledJob goes through the full stack: a server with a
// journal directory containing an incomplete job must list it and let a
// client resume it.
func TestServerRecoversJournaledJob(t *testing.T) {
	dir := t.TempDir()
	body := solveBody(tinyDeck, 16, 1, 1, 1, "")
	jw, err := createJobJournal(dir, "job-000042", []byte(body), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.closeJournal(); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 1, JournalDir: dir})
	if e := srv.reg.lookup("job-000042"); e == nil {
		t.Fatal("server did not adopt the journaled job")
	}
	// ID counter advanced past the recovered job: the next fresh job must not
	// collide.
	e := srv.reg.newEntry(nil, prioNormal)
	if e.id == "job-000042" || !strings.HasPrefix(e.id, "job-") {
		t.Fatalf("post-recovery ID = %q collides", e.id)
	}
}

// FuzzJournalReplay hammers replayJobJournal with arbitrary bytes: it must
// never panic, and when it does accept a file, a second replay of the
// (possibly truncated) file must agree — truncation converges.
func FuzzJournalReplay(f *testing.F) {
	// Seed: a valid journal, its torn prefix, and a bit-flipped variant.
	dir := f.TempDir()
	jw, err := createJobJournal(dir, "job-000001", []byte("seed body"), nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := jw.appendCheckpointDelta(makeDelta(0, 4, 2, 16, 1)); err != nil {
		f.Fatal(err)
	}
	smw := makeDelta(4, 8, 2, 16, 1)
	smw.UpdateCrossoverRank = 34
	if err := jw.appendCheckpointDelta(smw); err != nil {
		f.Fatal(err)
	}
	if err := jw.closeJournal(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(journalPath(dir, "job-000001"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	// A delta record in the format that predates the crossover rank, after
	// a valid start record.
	old := oldFormatDelta(makeDelta(0, 4, 2, 16, 1))
	start := append([]byte(nil), valid[:frameHeader+int(binary.LittleEndian.Uint32(valid))]...)
	start = binary.LittleEndian.AppendUint32(start, uint32(len(old)))
	start = binary.LittleEndian.AppendUint32(start, crc32.Checksum(old, journalCRC))
	f.Add(append(start, old...))
	// A frame with a huge length field.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31-1)
	huge = binary.LittleEndian.AppendUint32(huge, crc32.Checksum(nil, journalCRC))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.opmj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := replayJobJournal(path)
		if err != nil {
			return // rejected whole — fine, as long as it did not panic
		}
		if st.id == "" {
			t.Fatal("accepted journal with empty id")
		}
		// Idempotence: replaying the truncated file yields the same state
		// with no further truncation.
		st2, err := replayJobJournal(path)
		if err != nil {
			t.Fatalf("second replay rejected a file the first accepted: %v", err)
		}
		if st2.truncated != 0 {
			t.Fatalf("second replay truncated again (%d bytes): not convergent", st2.truncated)
		}
		if st2.id != st.id || !bytes.Equal(st2.body, st.body) || st2.done != st.done {
			t.Fatal("replay is not deterministic after truncation")
		}
	})
}
