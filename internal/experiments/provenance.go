package experiments

import (
	"bytes"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Provenance records what produced a BENCH file: the toolchain, the
// platform, the parallelism, the commit and the date.
type Provenance struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

// benchProcs are the GOMAXPROCS settings the timed ablations measure at:
// every CPU, then one (just one on a single-CPU machine).
func benchProcs() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{n, 1}
	}
	return []int{1}
}

// NewProvenance describes the running process and the checkout it runs in.
func NewProvenance() Provenance {
	return Provenance{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision stamped into the binary, else the checkout's
// git HEAD, else "unknown"; "+dirty" marks a tree with uncommitted changes
// to tracked files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		rev += "+dirty"
	}
	return rev
}
