package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// These tests run every workload for a few ops (serve-mix at 5 req/s for
// 2 s), check what the benchmark prints against BENCHMARK.json, check that
// the traced split adds up, and check that -compare flags a slowdown and a
// failed check. Run them from this directory: go test ./...

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

const specPath = "../BENCHMARK.json"

// smokeRuns caches one outcome per workload and mode: several tests inspect
// the same runs.
var smokeRuns = map[string]*outcome{}

func smoke(t *testing.T, name string, trace bool) *outcome {
	t.Helper()
	key := name + map[bool]string{false: "", true: "/traced"}[trace]
	if o, ok := smokeRuns[key]; ok {
		return o
	}
	cfg := runConfig{seed: 7, seconds: 60, trace: trace, maxOps: 3, setupRuns: 1}
	if name == "serve-mix" {
		cfg = runConfig{seed: 7, seconds: 2, trace: trace, rate: 5, setupRuns: 1}
	}
	for _, w := range workloads {
		if w.name == name {
			o, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			smokeRuns[key] = o
			return o
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

func TestNamesMatchSpec(t *testing.T) {
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads []string
	for _, w := range s.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	if got, want := strings.Join(workloadNames(), " "), strings.Join(specWorkloads, " "); got != want {
		t.Errorf("workloads %q, BENCHMARK.json lists %q", got, want)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, s.EndToEnd}, {"per_layer", perLayer, s.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", c.kind, len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if sm := c.spec[i]; d.name != sm.Name || d.unit != sm.Unit {
				t.Errorf("%s[%d]: printed %s (%s), BENCHMARK.json has %s (%s)", c.kind, i, d.name, d.unit, sm.Name, sm.Unit)
			}
		}
	}
	names := append(workloadNames(), "setup_s")
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}
	for _, m := range s.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := smoke(t, name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			r, err := o.result(defs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; notes: %v", name, trace, r.Correct, r.Attempted, r.Failed, o.notes)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(defs))
			}
			if !trace {
				for n, m := range r.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
					}
				}
			}
		}
	}
}

// TestCommandLine runs one workload the way the benchmark is invoked and
// checks the last line of its output.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "frac-line", "--seed", "3", "--seconds", "0.3", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, lines[len(lines)-1])
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestTraceConsistency checks the traced split. An mc-sweep op is timed in
// separately stamped parts — each scenario's draw and stamp, then the
// SolveBatch call cut at its first and last column callback, the envelope
// fold lying inside those cuts — and the parts must cover the op's span to
// within 1%. Every serve-mix span must nest in its job's op span.
func TestTraceConsistency(t *testing.T) {
	parts := map[int]float64{}
	ops := map[int]float64{}
	for _, s := range smoke(t, "mc-sweep", true).spans {
		d := float64(s.EndNS - s.StartNS)
		switch s.Name {
		case "netgen.perturb", "circuit.stamp_delta", "core.first_col", "core.cols", "core.tail":
			parts[s.Op] += d
		case "op":
			ops[s.Op] = d
		}
	}
	if len(ops) == 0 {
		t.Fatal("mc-sweep: no op spans")
	}
	for op, d := range ops {
		if math.Abs(parts[op]-d) > 0.01*d {
			t.Errorf("mc-sweep op %d: perturb+stamp+first_col+cols+tail = %.0f ns, op span %.0f ns", op, parts[op], d)
		}
	}

	o := smoke(t, "serve-mix", true)
	byOp := map[int]map[string]span{}
	for _, s := range o.spans {
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string]span{}
		}
		byOp[s.Op][s.Name] = s
	}
	if len(byOp) == 0 {
		t.Fatal("serve-mix: no spans")
	}
	for op, spans := range byOp {
		root, ok := spans["op"]
		if !ok {
			t.Errorf("serve-mix job %d has spans but no op span", op)
			continue
		}
		for _, s := range spans {
			if s.Name == "op" {
				continue
			}
			if _, ok := spans[s.Parent]; !ok {
				t.Errorf("serve-mix job %d: span %s names parent %q, not a span of the job", op, s.Name, s.Parent)
			}
			if s.StartNS < root.StartNS || s.EndNS > root.EndNS || s.EndNS < s.StartNS {
				t.Errorf("serve-mix job %d: span %s [%d,%d] is outside its op [%d,%d]", op, s.Name, s.StartNS, s.EndNS, root.StartNS, root.EndNS)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareFlagsRegressions feeds -compare two sets of runs written the
// way the benchmark prints them.
func TestCompareFlagsRegressions(t *testing.T) {
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(scale map[string]float64, incorrect bool) string {
		var b bytes.Buffer
		for _, w := range s.Workloads {
			for i := 0; i < 5; i++ {
				r := result{Correct: !(incorrect && i == 2), Attempted: 10, Metrics: map[string]metric{}}
				for _, m := range s.EndToEnd {
					f := scale[m.Name]
					if f == 0 {
						f = 1
					}
					r.Metrics[m.Name] = metric{Value: 100 * f * (1 + 0.005*float64(i)), Unit: m.Unit}
				}
				if err := writeJSONLine(&b, map[string]any{"provenance": provenance{Workload: w.Name, Seed: uint64(i)}}); err != nil {
					t.Fatal(err)
				}
				if err := writeJSONLine(&b, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.String()
	}
	dir := t.TempDir()
	file := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := file("base", runs(nil, false))

	var out, errOut bytes.Buffer
	if code := compareFiles(specPath, base, file("same", runs(nil, false)), &out, &errOut); code != 0 {
		t.Errorf("identical sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical sets were not all the same:\n%s", out.String())
	}

	out.Reset()
	slow := file("slow", runs(map[string]float64{"op_mean_ms": 2}, false))
	if code := compareFiles(specPath, base, slow, &out, &errOut); code == 0 {
		t.Errorf("a 2x slower op_mean_ms exited 0:\n%s", out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " op_mean_ms ") && !strings.HasSuffix(line, "worse") {
			t.Errorf("2x slower op_mean_ms not flagged worse: %s", line)
		}
	}

	out.Reset()
	if code := compareFiles(specPath, base, file("bad", runs(nil, true)), &out, &errOut); code == 0 || !strings.Contains(out.String(), "failed its checks") {
		t.Errorf("a run that failed its reference check was not flagged:\n%s", out.String())
	}
}
