package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"opmsim/internal/core"
)

// marshalColumn is the reference encoding: encoding/json on the equivalent
// columnRecord, plus json.Encoder's newline. Each scenario gets a slice of its
// own, never nil, as the streamed records always had.
func marshalColumn(t testing.TB, j int, tj float64, vals []float64, k int) []byte {
	t.Helper()
	rec := columnRecord{Type: "column", J: j, T: tj, X: make([][]float64, k)}
	width := 0
	if k > 0 {
		width = len(vals) / k
	}
	for s := range rec.X {
		rec.X[s] = append(make([]float64, 0, width), vals[s*width:(s+1)*width]...)
	}
	b, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestColumnEncoderMatchesJSON holds appendColumn to encoding/json byte for
// byte, across random values and every formatting edge: signed zeros,
// subnormals, the extremes, the 'f'/'e' cutoffs at 1e-6 and 1e21 (and the
// e-07 → e-7 cleanup just below them), and integral values.
func TestColumnEncoderMatchesJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1e-7, -1e-7, 1.5e-7, 9.999999999999999e-7, 1e-6, -1e-6,
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		1e20, 1, -1, 2, 42, 1e15, 1 << 53, -(1 << 62), 0.1, 1.0 / 3,
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 240)
	for i := range random {
		switch i % 3 {
		case 0:
			random[i] = rng.NormFloat64()
		case 1:
			random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			random[i] = math.Float64frombits(rng.Uint64())
			if math.IsNaN(random[i]) || math.IsInf(random[i], 0) {
				random[i] = 0
			}
		}
	}
	cases := []struct {
		name string
		j    int
		t    float64
		vals []float64
		k    int
	}{
		{"one scenario", 0, 0.5e-3, edges, 1},
		{"edges split", 7, 1.25e-7, edges, 2},
		{"random", 123456, 3.999e21, random, 12},
		{"random one state", 1 << 30, 1, random, len(random)},
		{"empty subset", 3, 2.5, nil, 4},
		{"no scenarios", 0, 0, nil, 0},
	}
	for _, tc := range cases {
		got, err := appendColumn(nil, tc.j, tc.t, tc.vals, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := marshalColumn(t, tc.j, tc.t, tc.vals, tc.k); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
	// Each edge alone, as t and as a value, so a mismatch names the value.
	for _, v := range edges {
		got, err := appendColumn([]byte("prefix"), 1, v, []float64{v, -v}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalColumn(t, 1, v, []float64{v, -v}, 1); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("%v:\n got %s\nwant %s", v, got, want)
		}
	}
}

// FuzzColumnEncode runs the byte-identity comparison on fuzzed float bits.
func FuzzColumnEncode(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(math.Float64bits(1e-7)), 3)
	f.Add(math.Float64bits(1e21), math.Float64bits(-1e-6), uint64(1<<63), 0)
	f.Add(math.Float64bits(math.MaxFloat64), uint64(1), math.Float64bits(0.1), -42)
	f.Fuzz(func(t *testing.T, a, b, c uint64, j int) {
		vals := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(a ^ c)}
		tj := math.Float64frombits(b ^ c)
		got, err := appendColumn(nil, j, tj, vals, 2)
		finite := !math.IsNaN(tj) && !math.IsInf(tj, 0)
		for _, v := range vals {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if !finite {
			if err == nil {
				t.Fatalf("non-finite input encoded without error: %s", got)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalColumn(t, j, tj, vals, 2); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}

// TestStreamWriterNonFiniteLatches feeds a NaN column through the writer:
// like encoding/json, the encoder refuses it, the error latches, and nothing
// after it — not even the terminal record — is written. The columns before
// it still go out, and every line written is valid JSON.
func TestStreamWriterNonFiniteLatches(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := newStreamWriter(rec, &streamCounters{})
	defer sw.close()
	cols := [][]float64{{1, 2, 3}, {4, 5, 6}}
	stateIdx := []int{2, 0}
	for j := 0; j < 6; j++ {
		if j == 3 {
			cols[1][0] = math.NaN()
		}
		sw.column(j, float64(j)+0.5, cols, stateIdx)
	}
	sw.done(6, &core.SolveReport{})

	lines := strings.SplitAfter(rec.Body.String(), "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Fatalf("stream ends mid-record: %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != 3 {
		t.Fatalf("wrote %d records, want the 3 columns before the NaN:\n%s", len(lines), rec.Body)
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %q", i, line)
		}
		var c columnRecord
		if err := json.Unmarshal([]byte(line), &c); err != nil || c.J != i {
			t.Fatalf("line %d: %q (%v)", i, line, err)
		}
	}
	if sw.err == nil || !strings.Contains(sw.err.Error(), "unsupported value: NaN") {
		t.Fatalf("latched error = %v, want encoding/json's unsupported-value error", sw.err)
	}
}

// TestStreamDoneTrailerCountsEveryTier checks that the done trailer carries
// the column solves of every factorization tier, the supernodal one
// included (pencils of DefaultSupernodalMinN states and more solve nowhere
// else), and the SMW crossover rank, while zero fields stay off the wire.
func TestStreamDoneTrailerCountsEveryTier(t *testing.T) {
	for _, tc := range []struct {
		rep  core.SolveReport
		want string
	}{
		{core.SolveReport{}, `"report":{"factorizations":0,"cacheHits":0,"cacheMisses":0,"sparseLUSolves":0}`},
		{func() core.SolveReport {
			r := core.SolveReport{Factorizations: 1, UpdateCrossoverRank: 3}
			r.TierSolves[core.TierSupernodal] = 128
			return r
		}(), `"report":{"factorizations":1,"cacheHits":0,"updateCrossoverRank":3,"cacheMisses":0,"supernodalSolves":128,"sparseLUSolves":0}`},
	} {
		rec := httptest.NewRecorder()
		sw := newStreamWriter(rec, &streamCounters{})
		sw.done(0, &tc.rep)
		sw.close()
		if body := rec.Body.String(); !strings.Contains(body, tc.want) {
			t.Fatalf("done trailer %q, want %s", body, tc.want)
		}
	}
}

// TestStreamCountersMatchClient checks the /metrics stream counters against
// what the client actually read for one job.
func TestStreamCountersMatchClient(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBody(quickstartDeck, 200, 3, 0.5, 1.5, "")))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	records := int64(bytes.Count(body, []byte("\n")))
	if records != 202 {
		t.Fatalf("read %d records, want header + 200 columns + done", records)
	}
	st := scrapeMetrics(t, ts.Client(), ts.URL).Stream
	if st.Bytes != int64(len(body)) || st.Records != records {
		t.Fatalf("stream counters bytes=%d records=%d, client read %d bytes in %d records",
			st.Bytes, st.Records, len(body), records)
	}
	if st.Flushes < 1 || st.Flushes > st.Records {
		t.Fatalf("flushes = %d, want 1..%d", st.Flushes, st.Records)
	}
}

// BenchmarkStreamColumn encodes a 16-scenario × 20-state column record with
// the hand-written encoder and with json.Encoder.
func BenchmarkStreamColumn(b *testing.B) {
	const k, width = 16, 20
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, k*width)
	x := make([][]float64, k)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	for s := range x {
		x[s] = vals[s*width : (s+1)*width]
	}
	size := int64(len(marshalColumn(b, 1234, 0.0123, vals, k)))
	b.Run("append", func(b *testing.B) {
		b.SetBytes(size)
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendColumn(buf[:0], 1234, 0.0123, vals, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(size)
		enc := json.NewEncoder(bufio.NewWriter(io.Discard))
		rec := &columnRecord{Type: "column", J: 1234, T: 0.0123, X: x}
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestShortestDecimalMatchesStrconv holds shortestDecimal to strconv's
// shortest digits, and formatJSONFloat to json.Marshal, on random bit
// patterns, solver-like values, and every class where a shortest-digit
// algorithm tends to slip: powers of two (the asymmetric interval), powers
// of ten and their neighbours, subnormals, and integers around 2^53.
func TestShortestDecimalMatchesStrconv(t *testing.T) {
	var vals []float64
	rng := rand.New(rand.NewSource(2))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()),
			rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	near := func(v float64) {
		b := math.Float64bits(v)
		for d := uint64(0); d <= 3; d++ {
			vals = append(vals, math.Float64frombits(b+d), math.Float64frombits(b-d))
		}
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		near(math.Pow(10, float64(e)))
	}
	for b := uint64(1); b < 5000; b++ {
		vals = append(vals, math.Float64frombits(b), math.Float64frombits(1<<52-b))
	}
	for i := 0; i < 5000; i++ {
		vals = append(vals, float64(i), float64(1<<53-i), float64(1<<53+2*i), float64(i)*1e15, float64(i)*1e20)
	}
	var js []byte
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || isExactZero(v) {
			continue
		}
		ref := strconv.AppendFloat(nil, math.Abs(v), 'e', -1, 64)
		mant, exp, _ := strings.Cut(string(ref), "e")
		digits := strings.Replace(mant, ".", "", 1)
		x, err := strconv.Atoi(exp)
		if err != nil {
			t.Fatal(err)
		}
		f, e := shortestDecimal(math.Abs(v))
		if got := strconv.FormatUint(f, 10); got != digits || e != x-(len(digits)-1) {
			t.Fatalf("%x (%v): got %se%d, strconv %s", math.Float64bits(v), v, got, e, ref)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if js, err = formatJSONFloat(js[:0], v); err != nil || !bytes.Equal(js, want) {
			t.Fatalf("%x: formatted %s, json %s (%v)", math.Float64bits(v), js, want, err)
		}
	}
}
