package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads back.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is a file of runs: for each workload, every run's result.
type runSet map[string][]result

// readRuns reads the output of one or more runs: provenance lines, each
// naming the workload of the result line that follows it. Other lines are
// ignored.
func readRuns(r io.Reader) (runSet, error) {
	set := runSet{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var probe struct {
			Provenance *provenance `json:"provenance"`
			Metrics    map[string]metric
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, err
		}
		switch {
		case probe.Provenance != nil:
			workload = probe.Provenance.Workload
		case probe.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("result line without a provenance line before it")
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, err
			}
			set[workload] = append(set[workload], res)
			workload = ""
		}
	}
	return set, sc.Err()
}

// verdict compares one metric of one workload across two sets of runs.
type verdict struct {
	workload, metric string
	a, b             [3]float64 // quartiles: q1, median, q3
	change           float64    // B's median against A's, as a share of A's; positive is better
	spread           float64    // the wider of the two sets' quartile spreads, as a share of the median
	verdict          string     // better, same, worse or unresolved
}

// compareMetric applies a metric's bound to two sets of values. A change
// within the bound is "same"; beyond it, "better" or "worse" — unless the
// run-to-run spread of either set is wider than the bound, which leaves the
// metric "unresolved", except when every run of B beats every run of A.
func compareMetric(m specMetric, a, b []float64) verdict {
	v := verdict{metric: m.Name}
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	v.change = sign * (v.b[1] - v.a[1]) / math.Abs(v.a[1])
	v.spread = math.Max((v.a[2]-v.a[0])/math.Abs(v.a[1]), (v.b[2]-v.b[0])/math.Abs(v.b[1]))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if !(sign*(y-x) > 0) {
				allBetter = false
			}
		}
	}
	switch {
	case v.spread > m.Bound && allBetter:
		v.verdict = "better"
	case v.spread > m.Bound || math.IsNaN(v.change):
		v.verdict = "unresolved"
	case v.change < -m.Bound:
		v.verdict = "worse"
	case v.change > m.Bound:
		v.verdict = "better"
	default:
		v.verdict = "same"
	}
	return v
}

// compareSets compares every end-to-end metric of every workload the spec
// names, and lists the problems that void a comparison: a workload without
// runs, or a run that failed its checks.
func compareSets(s *spec, a, b runSet) (vs []verdict, problems []string) {
	sides := []struct {
		name string
		set  runSet
	}{{"A", a}, {"B", b}}
	for _, w := range s.Workloads {
		for _, side := range sides {
			runs := side.set[w.Name]
			if len(runs) == 0 {
				problems = append(problems, fmt.Sprintf("%s: no runs of %s", side.name, w.Name))
			}
			for _, r := range runs {
				if !r.Correct || r.Failed > 0 {
					problems = append(problems, fmt.Sprintf("%s: a run of %s failed its checks (%d of %d ops failed)", side.name, w.Name, r.Failed, r.Attempted))
				}
			}
		}
		if len(a[w.Name]) == 0 || len(b[w.Name]) == 0 {
			continue
		}
		for _, m := range s.EndToEnd {
			v := compareMetric(m, values(a[w.Name], m.Name), values(b[w.Name], m.Name))
			v.workload = w.Name
			vs = append(vs, v)
		}
	}
	return vs, problems
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles is -compare: it prints one row per workload and end-to-end
// metric and exits non-zero if any metric got worse or any run failed.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var sets [2]runSet
	for i, p := range []string{pathA, pathB} {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sets[i], err = readRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", p, err)
			return 2
		}
	}
	vs, problems := compareSets(s, sets[0], sets[1])
	fmt.Fprintf(stdout, "%-10s %-13s %-32s %-32s %8s %7s  %s\n", "workload", "metric", "A q1/median/q3", "B q1/median/q3", "change", "spread", "verdict")
	status := 0
	for _, v := range vs {
		fmt.Fprintf(stdout, "%-10s %-13s %-32s %-32s %+7.1f%% %6.1f%%  %s\n", v.workload, v.metric,
			fmt.Sprintf("%.4g/%.4g/%.4g", v.a[0], v.a[1], v.a[2]),
			fmt.Sprintf("%.4g/%.4g/%.4g", v.b[0], v.b[1], v.b[2]),
			100*v.change, 100*v.spread, v.verdict)
		if v.verdict == "worse" {
			status = 1
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "problem:", p)
		status = 1
	}
	return status
}
