package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFastExperiments(t *testing.T) {
	for _, name := range []string{"opmatrix", "bases", "adaptive"} {
		if err := run(name, false, 1, 0, 0, "", "", "", "", "", "", 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunTableIQuick(t *testing.T) {
	if err := run("table1", false, 1, 0, 0, "", "", "", "", "", "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunTableIISmallGrid(t *testing.T) {
	if err := run("table2", false, 1, 6, 0, "", "", "", "", "", "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunHistoryFFTWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("historyfft sweep solves up to m=4096; skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_history_fft.json")
	if err := run("historyfft", false, 1, 0, 2, out, "", "", "", "", "", 1); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("historyfft report not written: %v", err)
	}
	for _, key := range []string{"\"fft_over_exact\"", "\"max_rel_diff\"", "\"history_engine\"", "\"provenance\"", "\"commit\""} {
		if !strings.Contains(string(buf), key) {
			t.Fatalf("report missing %s:\n%s", key, buf)
		}
	}
}

func TestRunBatchWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_batch.json")
	if err := run("batch", false, 1, 6, 0, "", out, "", "", "", "", 1); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("batch report not written: %v", err)
	}
	for _, key := range []string{"\"speedup\"", "\"seq_cache_hits\"", "\"bitwise\": true", "\"repeat\": 1"} {
		if !strings.Contains(string(buf), key) {
			t.Fatalf("report missing %s:\n%s", key, buf)
		}
	}
}

func TestRunScaleWritesJSONAndGuards(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_scale.json")
	if err := run("scale", false, 1, 0, 0, "", "", "", out, "2000", "", 1); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("scale report not written: %v", err)
	}
	for _, key := range []string{"\"factor_speedup\"", "\"iface_n\"", "\"max_rel_diff\""} {
		if !strings.Contains(string(buf), key) {
			t.Fatalf("report missing %s:\n%s", key, buf)
		}
	}
	// A missing baseline is a hard error, not a silent pass.
	if err := run("scale", false, 1, 0, 0, "", "", "", filepath.Join(t.TempDir(), "again.json"), "2000", filepath.Join(t.TempDir(), "missing.json"), 1); err == nil {
		t.Fatal("guard accepted a missing baseline")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", false, 1, 0, 0, "", "", "", "", "", "", 1); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}
