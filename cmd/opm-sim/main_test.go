package main

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"opmsim/internal/core"
)

func writeDeck(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.cir")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const rcDeck = `rc lowpass
V1 in 0 STEP 1
R1 in out 1k
C1 out 0 1u
.tran 10u 5m
`

func TestRunOPM(t *testing.T) {
	path := writeDeck(t, rcDeck)
	if err := run(path, "opm", 0, "", "out", 10, 0, "", 0, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunPrintsInductorCurrent selects a branch current by its state label,
// the rule opm-serve's "nodes" field follows too, next to a bare node name.
func TestRunPrintsInductorCurrent(t *testing.T) {
	path := writeDeck(t, `rl step
V1 in 0 STEP 1
R1 in out 1
L1 out 0 1m
.tran 10u 5m
`)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(path, "opm", 0, "", "i(L1),out", 4, 0, "", 0, false)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[2] != "t\ti(L1)\tv(out)" {
		t.Fatalf("header %q, want the inductor current then v(out):\n%s", lines[2], out)
	}
	// i(t) = (1 − e^(−t/τ)) A with τ = L/R = 1 ms.
	f := strings.Fields(lines[len(lines)-1])
	tj, err1 := strconv.ParseFloat(f[0], 64)
	i, err2 := strconv.ParseFloat(f[1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("last row %q", lines[len(lines)-1])
	}
	if want := 1 - math.Exp(-tj/1e-3); math.Abs(i-want) > 1e-4 {
		t.Fatalf("i(L1)(%g) = %g, want %g", tj, i, want)
	}
}

func TestRunBaselines(t *testing.T) {
	path := writeDeck(t, rcDeck)
	for _, m := range []string{"beuler", "trap", "gear", "trbdf2"} {
		if err := run(path, m, 128, "", "out,in", 5, 0, "", 0, false); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestRunFractionalRequiresOPM(t *testing.T) {
	path := writeDeck(t, `frac
I1 0 n1 STEP 1
R1 n1 0 1
P1 n1 0 1 0.5
.tran 1m 1
`)
	if err := run(path, "opm", 0, "", "", 5, 0, "", 0, false); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "trap", 0, "", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("transient method accepted fractional netlist")
	}
	// The Grünwald–Letnikov stepper handles it.
	if err := run(path, "glet", 0, "", "n1", 5, 0, "", 0, false); err != nil {
		t.Fatalf("glet: %v", err)
	}
}

func TestRunGletRejectsMixedOrders(t *testing.T) {
	// C (order 1) + CPE (order ½) is multi-order: glet must refuse.
	path := writeDeck(t, `mixed
I1 0 n1 STEP 1
R1 n1 0 1
C1 n1 0 1
P1 n1 0 1 0.5
.tran 10m 1
`)
	if err := run(path, "glet", 0, "", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("glet accepted mixed-order netlist")
	}
	// OPM handles the same netlist fine.
	if err := run(path, "opm", 0, "", "", 5, 0, "", 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "opm", 0, "", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("accepted missing netlist")
	}
	if err := run("/nonexistent/file.cir", "opm", 0, "", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("accepted missing file")
	}
	path := writeDeck(t, rcDeck)
	if err := run(path, "wizardry", 0, "", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("accepted unknown method")
	}
	if err := run(path, "opm", 0, "", "nosuchnode", 5, 0, "", 0, false); err == nil {
		t.Fatal("accepted unknown node")
	}
	if err := run(path, "opm", 0, "bogus", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("accepted bad tstop")
	}
	// Deck without .tran and no -tstop.
	noTran := writeDeck(t, "t\nV1 a 0 DC 1\nR1 a 0 1\n")
	if err := run(noTran, "opm", 16, "", "", 5, 0, "", 0, false); err == nil {
		t.Fatal("accepted missing span")
	}
	if err := run(noTran, "opm", 16, "1m", "", 5, 0, "", 0, false); err != nil {
		t.Fatalf("explicit -tstop failed: %v", err)
	}
}

func TestRunHistoryMode(t *testing.T) {
	// Fractional deck so -history actually selects an engine.
	path := writeDeck(t, `frac
I1 0 n1 STEP 1
R1 n1 0 1
P1 n1 0 1 0.5
.tran 10m 1
`)
	for _, mode := range []string{"auto", "exact", "fft"} {
		if err := run(path, "opm", 64, "", "n1", 5, 0, mode, 0, false); err != nil {
			t.Fatalf("-history %s: %v", mode, err)
		}
	}
	if err := run(path, "opm", 64, "", "n1", 5, 0, "fast", 0, false); err == nil {
		t.Fatal("accepted unknown -history mode")
	}
}

func TestRunAC(t *testing.T) {
	path := writeDeck(t, rcDeck)
	if err := runAC(path, "100,1meg,20", "out"); err != nil {
		t.Fatal(err)
	}
	if err := runAC(path, "bogus", "out"); err == nil {
		t.Fatal("accepted malformed -ac spec")
	}
	if err := runAC(path, "1,2", "out"); err == nil {
		t.Fatal("accepted two-field -ac spec")
	}
	if err := runAC("", "1,10,5", ""); err == nil {
		t.Fatal("accepted missing netlist")
	}
	if err := runAC(path, "10,1,5", ""); err == nil {
		t.Fatal("accepted inverted sweep")
	}
}

func TestRunWithInitialConditions(t *testing.T) {
	// RC discharge from .ic: both OPM and trapezoidal honor it.
	path := writeDeck(t, `discharge
I1 0 n1 DC 0
R1 n1 0 1k
C1 n1 0 1u
.ic n1=1
.tran 10u 3m
`)
	for _, m := range []string{"opm", "trap"} {
		if err := run(path, m, 0, "", "n1", 8, 0, "", 0, false); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestRunOP(t *testing.T) {
	path := writeDeck(t, `divider
V1 in 0 DC 2
R1 in out 1k
R2 out 0 1k
`)
	if err := runOP(path); err != nil {
		t.Fatal(err)
	}
	if err := runOP(""); err == nil {
		t.Fatal("accepted missing netlist")
	}
	if err := runOP("/nonexistent.cir"); err == nil {
		t.Fatal("accepted missing file")
	}
	// Nonlinear DC through the same entry point.
	diode := writeDeck(t, `diode op
V1 in 0 DC 5
R1 in d 1k
D1 d 0 0
`)
	if err := runOP(diode); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeoutAndVerbose(t *testing.T) {
	path := writeDeck(t, rcDeck)
	// A nanosecond budget expires before the first column; the run must end
	// with the typed cancellation error, not hang or crash.
	err := run(path, "opm", 4096, "", "out", 5, 0, "", time.Nanosecond, true)
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("errors.Is(err, core.ErrCancelled) is false; err = %v", err)
	}
	// A generous budget with -verbose succeeds.
	if err := run(path, "opm", 0, "", "out", 5, 0, "", time.Minute, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorners(t *testing.T) {
	path := writeDeck(t, rcDeck)
	if err := runCorners(path, 0.1, 0, 0, 16, "", "out", 0, "", true); err != nil {
		t.Fatal(err)
	}
	if err := runCorners("", 0.1, 0, 0, 16, "", "", 0, "", false); err == nil {
		t.Fatal("accepted missing netlist")
	}
	// Corners start from rest; .ic decks are rejected.
	ic := writeDeck(t, `discharge
I1 0 n1 DC 0
R1 n1 0 1k
C1 n1 0 1u
.ic n1=1
.tran 10u 3m
`)
	if err := runCorners(ic, 0.1, 0, 0, 16, "", "", 0, "", false); err == nil {
		t.Fatal("accepted an .ic deck")
	}
	// Nonlinear netlists share no pencil factorization across corners.
	diode := writeDeck(t, `diode
V1 in 0 STEP 1
R1 in d 1k
D1 d 0 0
.tran 10u 1m
`)
	if err := runCorners(diode, 0.1, 0, 0, 16, "", "", 0, "", false); err == nil {
		t.Fatal("accepted a nonlinear netlist")
	}
}
