package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// Request is the POST /v1/solve submission body.
//
//	{
//	  "netlist":  "title\nR1 in out 1k\n...",   // SPICE-flavoured deck (required)
//	  "steps":    512,                          // BPF columns m (default: from .tran)
//	  "tstop":    "6m",                         // span T: number or SPICE-suffixed string (default: from .tran)
//	  "sweep":    {"count": 8, "lo": 0.5, "hi": 1.5}, // amplitude sweep (default: one unit-scale scenario)
//	  "history":  "auto",                       // fractional-history engine: auto|exact|fft
//	  "priority": "normal",                     // admission class: high|normal|low
//	  "nodes":    ["out", "n2"]                 // states to stream (default: all)
//	}
type Request struct {
	Netlist  string     `json:"netlist"`
	Steps    int        `json:"steps"`
	TStop    *Value     `json:"tstop"`
	Sweep    *SweepSpec `json:"sweep"`
	History  string     `json:"history"`
	Priority string     `json:"priority"`
	Nodes    []string   `json:"nodes"`
	// Deadline is the job's wall-clock budget in seconds, measured from
	// worker-slot grant (0 or absent → Config.DefaultDeadline). On expiry the
	// job suspends resumably with kind "deadline".
	Deadline *Value `json:"deadline"`
}

// SweepSpec describes the scenario sweep. Count scenarios take input scale
// factors spaced linearly from Lo to Hi (matching opm-sim -batch/-sweep);
// Count 0 or 1 solves a single scenario at scale Lo (default 1). A non-zero
// Tol additionally perturbs component values: scenario 0 keeps the nominal
// netlist and scenarios 1..Count−1 draw every perturbable element (R, C, L,
// CPE; Elements caps how many, netlist order) uniformly from nominal·(1±Tol)
// with a counter-based RNG keyed by Seed — same seed, same scenarios. The
// perturbed pencils are solved against the shared nominal factorization via
// Sherman–Morrison–Woodbury updates (matching opm-sim -montecarlo), so
// tolerance sweeps cost far less than Count independent factorizations.
type SweepSpec struct {
	Count    int    `json:"count"`
	Lo       *Value `json:"lo"`
	Hi       *Value `json:"hi"`
	Tol      *Value `json:"tol"`
	Seed     uint64 `json:"seed"`
	Elements int    `json:"elements"`
}

// Value is a float64 that also accepts SPICE magnitude-suffixed strings
// ("10m", "1meg") in JSON, so request fields read like netlist cards.
type Value struct {
	V float64
}

// UnmarshalJSON accepts a JSON number or a SPICE-suffixed string.
func (v *Value) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		f, err := circuit.ParseValue(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		v.V = f
		return nil
	}
	return json.Unmarshal(data, &v.V)
}

// MarshalJSON writes the plain number.
func (v Value) MarshalJSON() ([]byte, error) { return json.Marshal(v.V) }

// RequestError is the typed rejection for malformed or unservable
// submissions: Status is always a 4xx code, so the fuzz contract "malformed
// bodies yield 4xx, never panics or 5xx" is checkable by type.
type RequestError struct {
	Status int
	Msg    string
}

func (e *RequestError) Error() string { return e.Msg }

// badRequest tags a syntactically invalid submission (400).
func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// unservable tags a well-formed submission the engine cannot run (422).
func unservable(format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusUnprocessableEntity, Msg: fmt.Sprintf(format, args...)}
}

// job is one validated, admitted unit of work: everything the solve needs,
// resolved before the request enters the queue so rejections never consume a
// slot.
type job struct {
	title     string
	mna       *circuit.MNA
	scenarios []core.Scenario
	scales    []float64
	m         int
	T         float64
	history   core.HistoryMode
	prio      int
	stateIdx  []int
	labels    []string
	deadline  time.Duration // 0 → Config.DefaultDeadline
}

// parseRequest turns a raw body into a validated job or a typed 4xx error.
// It is the single decode path shared by the handler and FuzzServeRequest:
// JSON decoding, netlist parsing, MNA assembly, span/sweep resolution, and
// state selection all happen here; only the solve itself is deferred to the
// worker slot.
func parseRequest(body []byte, cfg *Config) (*job, *RequestError) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("invalid JSON request: %v", err)
	}
	if strings.TrimSpace(req.Netlist) == "" {
		return nil, badRequest("request needs a non-empty \"netlist\"")
	}
	deck, err := circuit.Parse(strings.NewReader(req.Netlist))
	if err != nil {
		return nil, badRequest("netlist: %v", err)
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return nil, unservable("netlist does not assemble: %v", err)
	}
	if mna.Nonlinear != nil {
		return nil, unservable("netlist is nonlinear (diodes); the batch service shares one pencil factorization and requires linear netlists")
	}

	// Span: request fields override the deck's .tran directive.
	var stop *float64
	if req.TStop != nil {
		stop = &req.TStop.V
	}
	T, m, err := deck.Span(stop, req.Steps)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if m > cfg.MaxSteps {
		return nil, badRequest("steps %d exceeds the service limit %d", m, cfg.MaxSteps)
	}

	// Sweep: K scenarios with linearly spaced input amplitude scales, plus
	// optional component-tolerance perturbations.
	count, lo, hi, tol, seed, elems := 1, 1.0, 1.0, 0.0, uint64(1), 0
	if req.Sweep != nil {
		if req.Sweep.Count > 0 {
			count = req.Sweep.Count
		}
		if req.Sweep.Lo != nil {
			lo = req.Sweep.Lo.V
		}
		hi = lo
		if req.Sweep.Hi != nil {
			hi = req.Sweep.Hi.V
		}
		if req.Sweep.Tol != nil {
			tol = req.Sweep.Tol.V
		}
		if req.Sweep.Seed != 0 {
			seed = req.Sweep.Seed
		}
		elems = req.Sweep.Elements
	}
	if count > cfg.MaxScenarios {
		return nil, badRequest("sweep count %d exceeds the service limit %d", count, cfg.MaxScenarios)
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return nil, badRequest("sweep bounds must be finite, got lo=%g hi=%g", lo, hi)
	}
	if math.IsNaN(tol) || tol < 0 || tol >= 1 {
		return nil, badRequest("sweep tol must be in [0,1), got %g", tol)
	}
	var perturbNames []string
	if tol > 0 {
		perturbNames = netgen.PerturbableElements(deck.Netlist, elems)
		if len(perturbNames) == 0 {
			return nil, unservable("sweep tol set but the netlist has no perturbable elements (R, C, L, or CPE)")
		}
	}

	hist, err := core.ParseHistoryMode(req.History)
	if err != nil {
		return nil, badRequest("%v", err)
	}

	prio := prioNormal
	switch strings.ToLower(strings.TrimSpace(req.Priority)) {
	case "", "normal":
	case "high":
		prio = prioHigh
	case "low":
		prio = prioLow
	default:
		return nil, badRequest("unknown priority %q (want high, normal, or low)", req.Priority)
	}

	stateIdx, labels, err := mna.SelectStates(req.Nodes)
	if err != nil {
		return nil, badRequest("%v", err)
	}

	var deadline time.Duration
	if req.Deadline != nil {
		sec := req.Deadline.V
		if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
			return nil, badRequest("deadline must be a non-negative finite number of seconds, got %g", sec)
		}
		deadline = time.Duration(sec * float64(time.Second))
	}

	var x0 []float64
	if len(deck.ICs) > 0 {
		x0, err = mna.InitialState(deck.ICs)
		if err != nil {
			return nil, unservable("initial conditions: %v", err)
		}
	}

	scales := make([]float64, count)
	scenarios := make([]core.Scenario, count)
	for s := 0; s < count; s++ {
		scale := lo
		if count > 1 {
			scale = lo + (hi-lo)*float64(s)/float64(count-1)
		}
		scales[s] = scale
		u := make([]waveform.Signal, len(mna.Inputs))
		for i, base := range mna.Inputs {
			base, scale := base, scale
			u[i] = func(t float64) float64 { return scale * base(t) }
		}
		scenarios[s] = core.Scenario{U: u, X0: x0}
		if tol > 0 && s > 0 {
			perts, err := netgen.MonteCarloPerturb(deck.Netlist, perturbNames, seed, s, tol)
			if err != nil {
				return nil, badRequest("sweep tolerance draw: %v", err)
			}
			d, err := deck.Netlist.StampDelta(mna, perts)
			if err != nil {
				return nil, unservable("sweep tolerance delta: %v", err)
			}
			if d.Rank() > 0 {
				scenarios[s].Delta = d
			}
		}
	}

	return &job{
		title:     deck.Title,
		mna:       mna,
		scenarios: scenarios,
		scales:    scales,
		m:         m,
		T:         T,
		history:   hist,
		prio:      prio,
		stateIdx:  stateIdx,
		labels:    labels,
		deadline:  deadline,
	}, nil
}
