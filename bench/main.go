// Command bench is the repository's benchmark: four workloads that drive
// the OPM solver through its public packages and its HTTP service, the
// end-to-end metrics of each, and a traced variant that splits every op
// into the time each layer took, measured from outside the program. Build
// and run it from the repository root through run.sh:
//
//	bash bench/run.sh --workload grid-6k --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload all --seed 1 >> runs.jsonl
//	bash bench/run.sh --workload frac-line --trace 1 --spans spans.json
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// Each run prints a provenance line and, last, one JSON result line:
// correct, attempted, failed, and the metrics by name with units. A failed
// reference check makes the run exit non-zero. README.md has the workload
// and metric catalog.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// maxOps, when positive, ends the timed phase after that many ops.
	maxOps int
	// setupRuns is how many times set-up is timed (0: defaultSetups).
	setupRuns int
	// rate is serve-mix's offered load in requests per second (0: serveRate).
	rate float64
}

// defaultSetups is how many times each run sets up; setup_s is the median.
const defaultSetups = 3

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c runConfig) setups() int {
	if c.setupRuns > 0 {
		return c.setupRuns
	}
	return defaultSetups
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"frac-line", func(c runConfig) (*outcome, error) { return runOffline("frac-line", fracLine(), c) }},
	{"grid-6k", func(c runConfig) (*outcome, error) { return runOffline("grid-6k", grid6k(), c) }},
	{"mc-sweep", func(c runConfig) (*outcome, error) { return runOffline("mc-sweep", &mcSweep{}, c) }},
	{"serve-mix", runServeMix},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two files of runs given as arguments: -compare A B")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A B")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "all" {
		return runAll(cfg, *spans, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == *name {
			return runOne(w, cfg, *spans, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
	return 2
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, cfg runConfig, spansPath string, stdout, stderr io.Writer) int {
	if err := writeJSONLine(stdout, map[string]any{"provenance": newProvenance(w.name, cfg)}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	r, err := o.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	writeTable(stderr, w.name, r, o.notes)
	if cfg.trace && spansPath != "" {
		if err := writeSpans(spansPath, o.spans); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if err := writeJSONLine(stdout, r); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !r.Correct {
		fmt.Fprintf(stderr, "%s: outputs failed their checks\n", w.name)
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process, one after another.
func runAll(cfg runConfig, spansPath string, stdout, stderr io.Writer) int {
	status := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
		if cfg.trace {
			args[len(args)-1] = "1"
			if spansPath != "" {
				args = append(args, "--spans", strings.TrimSuffix(spansPath, ".json")+"-"+w.name+".json")
			}
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// provenance heads every run's output, so a result can be traced to the
// toolchain, machine and commit that produced it.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"numcpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
}

func newProvenance(workload string, cfg runConfig) provenance {
	return provenance{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Date: now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision the binary was built from, else the checkout's
// git HEAD, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
