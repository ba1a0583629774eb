// Command opm-sim simulates a SPICE-flavoured netlist with the OPM method
// (or a classical baseline) and prints the requested node voltages as
// tab-separated series.
//
// Usage:
//
//	opm-sim -netlist circuit.cir [-method opm|beuler|trap|gear|glet] \
//	        [-steps 512] [-tstop 1m] [-nodes out,n2] [-points 100] \
//	        [-timeout 30s] [-verbose]
//
// -timeout aborts an OPM solve after a wall-clock budget (the run ends with a
// typed cancellation error); -verbose prints the solver report — which
// factorization tier served the solves, any fallbacks, and retry counters —
// to stderr.
//
// The netlist's ".tran step stop" directive supplies defaults for -steps and
// -tstop. Fractional elements (CPE cards "P<name> a b value alpha") require
// -method opm or -method glet (the Grünwald–Letnikov cross-check).
//
// -montecarlo N fans N component-tolerance scenarios (±-tol on every R, C,
// L, and CPE, counter-seeded by -mcseed) through the parameter-varying batch
// engine — Sherman–Morrison–Woodbury factor updates against the shared
// nominal factorization — and prints per-node waveform envelopes (min, p05,
// mean, p95, max) at quartile probe columns. -mcrank pins or disables the
// SMW/refactorize crossover; -mcelems caps how many elements are perturbed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/experiments"
	"opmsim/internal/glet"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
	"opmsim/internal/transient"
	"opmsim/internal/waveform"
)

// interpAt linearly interpolates (ts, vs) at t, clamping outside the range.
func interpAt(ts, vs []float64, t float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	if t <= ts[0] {
		return vs[0]
	}
	last := len(ts) - 1
	if t >= ts[last] {
		return vs[last]
	}
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - ts[lo]) / (ts[hi] - ts[lo])
	return vs[lo] + frac*(vs[hi]-vs[lo])
}

func main() {
	var (
		netlistPath = flag.String("netlist", "", "netlist file (required)")
		method      = flag.String("method", "opm", "solver: opm, beuler, trap, gear, trbdf2, glet")
		steps       = flag.Int("steps", 0, "number of time steps (default from .tran)")
		tstop       = flag.String("tstop", "", "simulation span, SPICE units (default from .tran)")
		nodes       = flag.String("nodes", "", "comma-separated states to print: node names or state labels such as i(L1) (default: all)")
		points      = flag.Int("points", 50, "number of output sample points")
		ac          = flag.String("ac", "", "AC sweep instead of transient: \"wstart,wstop,points\" (rad/s, SPICE units ok)")
		op          = flag.Bool("op", false, "print the DC operating point instead of a transient")
		workers     = flag.Int("workers", 0, "goroutines for the OPM solver's parallel phases: FFT history fan-out and BBD domains (0 = GOMAXPROCS; results are identical for any value)")
		history     = flag.String("history", "", "OPM fractional-history engine: auto (default; FFT on large grids), exact, or fft")
		timeout     = flag.Duration("timeout", 0, "abort the solve after this wall-clock duration (0 = no limit; OPM method only)")
		verbose     = flag.Bool("verbose", false, "print the solver report (factorization tiers, fallbacks, retries) to stderr")
		batch       = flag.Int("batch", 0, "simulate this many input-amplitude scenarios as one batched OPM solve (linear netlists only)")
		sweep       = flag.String("sweep", "0.5:1.5", "amplitude scale range \"lo:hi\" swept across the -batch scenarios")
		montecarlo  = flag.Int("montecarlo", 0, "run this many component-tolerance Monte-Carlo scenarios (scenario 0 is nominal) and print waveform envelopes (linear netlists only)")
		tol         = flag.Float64("tol", 0.1, "Monte-Carlo relative tolerance band: each perturbed value is nominal·(1±tol)")
		mcseed      = flag.Uint64("mcseed", 1, "Monte-Carlo RNG seed; same seed, same scenarios, bit-identical envelopes")
		mcelems     = flag.Int("mcelems", 0, "cap on perturbed elements, netlist order (0 = every R, C, L, and CPE)")
		mcrank      = flag.Int("mcrank", 0, "pencil-update rank limit: 0 resolves the SMW/refactor crossover from the pencil's counts, >0 pins it, <0 forces refactorization")
		corners     = flag.Bool("corners", false, "solve the deterministic tolerance corners (each element at ±tol alone, plus all-high/all-low) in one batched sweep and report the worst corner (linear netlists only)")
	)
	flag.Parse()
	if *corners {
		if err := runCorners(*netlistPath, *tol, *mcelems, *mcrank, *steps, *tstop, *nodes, *workers, *history, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "opm-sim:", err)
			os.Exit(1)
		}
		return
	}
	if *montecarlo > 0 {
		if err := runMonteCarlo(*netlistPath, *montecarlo, *tol, *mcseed, *mcelems, *mcrank, *steps, *tstop, *nodes, *workers, *history, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "opm-sim:", err)
			os.Exit(1)
		}
		return
	}
	if *batch > 0 {
		if err := runBatch(*netlistPath, *batch, *sweep, *steps, *tstop, *nodes, *workers, *history, *timeout, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "opm-sim:", err)
			os.Exit(1)
		}
		return
	}
	if *op {
		if err := runOP(*netlistPath); err != nil {
			fmt.Fprintln(os.Stderr, "opm-sim:", err)
			os.Exit(1)
		}
		return
	}
	if *ac != "" {
		if err := runAC(*netlistPath, *ac, *nodes); err != nil {
			fmt.Fprintln(os.Stderr, "opm-sim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*netlistPath, *method, *steps, *tstop, *nodes, *points, *workers, *history, *timeout, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "opm-sim:", err)
		os.Exit(1)
	}
}

// runOP prints the DC operating point (Newton-based for diode netlists).
func runOP(netlistPath string) error {
	if netlistPath == "" {
		return fmt.Errorf("-netlist is required")
	}
	f, err := os.Open(netlistPath)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := circuit.Parse(f)
	if err != nil {
		return err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return err
	}
	x, err := mna.DCOperatingPoint()
	if err != nil {
		return err
	}
	if deck.Title != "" {
		fmt.Printf("# %s\n", deck.Title)
	}
	fmt.Println("# DC operating point")
	for i, name := range mna.StateNames {
		fmt.Printf("%s\t%.6g\n", name, x[i])
	}
	return nil
}

// runAC performs a small-signal frequency sweep and prints a Bode table for
// the first input channel.
func runAC(netlistPath, spec, nodes string) error {
	if netlistPath == "" {
		return fmt.Errorf("-netlist is required")
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-ac needs \"wstart,wstop,points\", got %q", spec)
	}
	w0, err := circuit.ParseValue(parts[0])
	if err != nil {
		return fmt.Errorf("bad -ac start: %w", err)
	}
	w1, err := circuit.ParseValue(parts[1])
	if err != nil {
		return fmt.Errorf("bad -ac stop: %w", err)
	}
	var np int
	if _, err := fmt.Sscan(parts[2], &np); err != nil {
		return fmt.Errorf("bad -ac points: %w", err)
	}
	f, err := os.Open(netlistPath)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := circuit.Parse(f)
	if err != nil {
		return err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return err
	}
	stateIdx, labels, err := mna.SelectStates(nodeFlag(nodes))
	if err != nil {
		return err
	}
	omega, err := circuit.LogSpace(w0, w1, np)
	if err != nil {
		return err
	}
	res, err := mna.AC(omega)
	if err != nil {
		return err
	}
	fmt.Print("omega")
	for _, l := range labels {
		fmt.Printf("\t|%s| dB\targ %s deg", l, l)
	}
	fmt.Println()
	for k, w := range res.Omega {
		fmt.Printf("%.6g", w)
		for _, s := range stateIdx {
			fmt.Printf("\t%.4f\t%.3f", res.MagDB(s, 0)[k], res.PhaseDeg(s, 0)[k])
		}
		fmt.Println()
	}
	return nil
}

func run(netlistPath, method string, steps int, tstop, nodes string, points, workers int, history string, timeout time.Duration, verbose bool) error {
	if netlistPath == "" {
		return fmt.Errorf("-netlist is required")
	}
	histMode, err := core.ParseHistoryMode(history)
	if err != nil {
		return err
	}
	f, err := os.Open(netlistPath)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := circuit.Parse(f)
	if err != nil {
		return err
	}
	stop, err := stopFlag(tstop)
	if err != nil {
		return err
	}
	T, m, err := deck.Span(stop, steps)
	if err != nil {
		return err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return err
	}
	stateIdx, labels, err := mna.SelectStates(nodeFlag(nodes))
	if err != nil {
		return err
	}
	if points < 2 {
		points = 50
	}
	times := waveform.UniformTimes(points, T)
	var x0 []float64
	if len(deck.ICs) > 0 {
		x0, err = mna.InitialState(deck.ICs)
		if err != nil {
			return err
		}
	}

	var series [][]float64
	switch method {
	case "opm":
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		rep := &core.SolveReport{}
		var sol *core.Solution
		var err error
		if mna.Nonlinear != nil {
			if x0 != nil {
				return fmt.Errorf(".ic is not supported for nonlinear netlists")
			}
			sol, err = core.SolveNonlinearCtx(ctx, mna.Sys, mna.Nonlinear, mna.Inputs, m, T,
				core.NonlinearOptions{Options: core.Options{Workers: workers, HistoryMode: histMode, Report: rep}})
		} else {
			sol, err = core.SolveCtx(ctx, mna.Sys, mna.Inputs, m, T,
				core.Options{X0: x0, Workers: workers, HistoryMode: histMode, Report: rep})
		}
		if verbose {
			// Also on failure: the partial report shows how far the run got.
			fmt.Fprintln(os.Stderr, rep.Summary())
		}
		if err != nil {
			return err
		}
		series = make([][]float64, len(stateIdx))
		for i, s := range stateIdx {
			series[i] = make([]float64, len(times))
			for k, t := range times {
				series[i][k] = sol.StateAt(s, t)
			}
		}
	case "glet":
		// Grünwald–Letnikov stepper for single-order fractional netlists.
		if mna.Nonlinear != nil {
			return fmt.Errorf("glet cannot simulate nonlinear netlists (use -method opm)")
		}
		alpha := mna.Sys.MaxOrder()
		var e *sparse.CSR
		var g *sparse.CSR
		for _, term := range mna.Sys.Terms {
			switch term.Order {
			case alpha:
				e = term.Coeff
			case 0:
				g = term.Coeff
			default:
				return fmt.Errorf("glet requires a single differential order, found %g and %g", term.Order, alpha)
			}
		}
		if e == nil || g == nil {
			return fmt.Errorf("glet needs one differential and one conductance term")
		}
		res, err := glet.Solve(e, g.Scale(-1), mna.Sys.B, mna.Inputs, alpha, T, T/float64(m))
		if err != nil {
			return err
		}
		series = make([][]float64, len(stateIdx))
		for i, s := range stateIdx {
			row := res.X.Row(s)
			series[i] = make([]float64, len(times))
			for k, t := range times {
				series[i][k] = interpAt(res.Times, row, t)
			}
		}
	case "beuler", "trap", "gear", "trbdf2":
		e, a, b, err := mna.DAE()
		if err != nil {
			return fmt.Errorf("%s requires an integer-order netlist: %w", method, err)
		}
		tm := map[string]transient.Method{
			"beuler": transient.BackwardEuler,
			"trap":   transient.Trapezoidal,
			"gear":   transient.Gear2,
			"trbdf2": transient.TRBDF2,
		}[method]
		res, err := transient.Simulate(e, a, b, mna.Inputs, T, T/float64(m), tm, transient.Options{X0: x0})
		if err != nil {
			return err
		}
		series = make([][]float64, len(stateIdx))
		for i, s := range stateIdx {
			series[i] = res.SampleState(s, times)
		}
	default:
		return fmt.Errorf("unknown method %q", method)
	}

	if deck.Title != "" {
		fmt.Printf("# %s\n", deck.Title)
	}
	fmt.Printf("# method=%s steps=%d tstop=%g states=%d\n", method, m, T, mna.Sys.N())
	fmt.Print("t")
	for _, l := range labels {
		fmt.Printf("\t%s", l)
	}
	fmt.Println()
	for k, t := range times {
		fmt.Printf("%.6g", t)
		for i := range series {
			fmt.Printf("\t%.6g", series[i][k])
		}
		fmt.Println()
	}
	return nil
}

// runBatch simulates k amplitude-scaled copies of the netlist's inputs as one
// batched OPM solve (shared pencil factorization, panel kernels) and prints a
// per-scenario table of the selected states' final values.
func runBatch(netlistPath string, k int, sweep string, steps int, tstop, nodes string, workers int, history string, timeout time.Duration, verbose bool) error {
	if netlistPath == "" {
		return fmt.Errorf("-netlist is required")
	}
	lo, hi, err := parseSweep(sweep)
	if err != nil {
		return err
	}
	histMode, err := core.ParseHistoryMode(history)
	if err != nil {
		return err
	}
	f, err := os.Open(netlistPath)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := circuit.Parse(f)
	if err != nil {
		return err
	}
	stop, err := stopFlag(tstop)
	if err != nil {
		return err
	}
	T, m, err := deck.Span(stop, steps)
	if err != nil {
		return err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return err
	}
	if mna.Nonlinear != nil {
		return fmt.Errorf("-batch requires a linear netlist (the batch engine shares one pencil factorization)")
	}
	stateIdx, labels, err := mna.SelectStates(nodeFlag(nodes))
	if err != nil {
		return err
	}
	var x0 []float64
	if len(deck.ICs) > 0 {
		x0, err = mna.InitialState(deck.ICs)
		if err != nil {
			return err
		}
	}
	scales := make([]float64, k)
	scenarios := make([]core.Scenario, k)
	for s := 0; s < k; s++ {
		scale := lo
		if k > 1 {
			scale = lo + (hi-lo)*float64(s)/float64(k-1)
		}
		scales[s] = scale
		u := make([]waveform.Signal, len(mna.Inputs))
		for i, base := range mna.Inputs {
			base, scale := base, scale
			u[i] = func(t float64) float64 { return scale * base(t) }
		}
		scenarios[s] = core.Scenario{U: u, X0: x0}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rep := &core.SolveReport{}
	sols, err := core.SolveBatchCtx(ctx, mna.Sys, scenarios, m, T, core.BatchOptions{
		Options: core.Options{
			Workers:     workers,
			HistoryMode: histMode,
			Report:      rep,
			FactorCache: core.NewFactorCache(0),
		},
	})
	if verbose {
		fmt.Fprintln(os.Stderr, rep.Summary())
	}
	if err != nil {
		return err
	}
	if deck.Title != "" {
		fmt.Printf("# %s\n", deck.Title)
	}
	fmt.Printf("# batch=%d sweep=%g:%g steps=%d tstop=%g states=%d\n", k, lo, hi, m, T, mna.Sys.N())
	fmt.Print("scenario\tscale")
	for _, l := range labels {
		fmt.Printf("\t%s(T)", l)
	}
	fmt.Println()
	tEnd := T * (1 - 0.5/float64(m)) // last BPF interval midpoint
	for s, sol := range sols {
		fmt.Printf("%d\t%.6g", s, scales[s])
		for _, idx := range stateIdx {
			fmt.Printf("\t%.6g", sol.StateAt(idx, tEnd))
		}
		fmt.Println()
	}
	return nil
}

// runMonteCarlo fans N component-tolerance scenarios of the netlist through
// the parameter-varying batch engine (Sherman–Morrison–Woodbury factor
// updates below the crossover rank, refactorization above) and prints the
// per-node waveform envelope — min, p05, mean, p95, max — at the envelope's
// quantile probe columns. Scenario 0 is always the unperturbed nominal.
func runMonteCarlo(netlistPath string, n int, tol float64, seed uint64, elems, rankLimit, steps int, tstop, nodes string, workers int, history string, verbose bool) error {
	if netlistPath == "" {
		return fmt.Errorf("-netlist is required")
	}
	histMode, err := core.ParseHistoryMode(history)
	if err != nil {
		return err
	}
	f, err := os.Open(netlistPath)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := circuit.Parse(f)
	if err != nil {
		return err
	}
	stop, err := stopFlag(tstop)
	if err != nil {
		return err
	}
	T, m, err := deck.Span(stop, steps)
	if err != nil {
		return err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return err
	}
	if mna.Nonlinear != nil {
		return fmt.Errorf("-montecarlo requires a linear netlist (scenarios share one pencil factorization)")
	}
	if len(deck.ICs) > 0 {
		return fmt.Errorf("-montecarlo does not support .ic (scenarios start from rest)")
	}
	stateIdx, labels, err := mna.SelectStates(nodeFlag(nodes))
	if err != nil {
		return err
	}
	names := netgen.PerturbableElements(deck.Netlist, elems)
	if len(names) == 0 {
		return fmt.Errorf("netlist has no perturbable elements (R, C, L, or CPE)")
	}
	res, err := experiments.MonteCarloSweep(experiments.MonteCarloConfig{
		Netlist: deck.Netlist, Model: mna,
		N: n, Tol: tol, Seed: seed, Elements: names,
		M: m, T: T,
		UpdateRankLimit: rankLimit,
		Options: core.Options{
			Workers:     workers,
			HistoryMode: histMode,
			FactorCache: core.NewFactorCache(0),
		},
	})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "montecarlo: %d scenarios over %d elements (tol ±%g, seed %d): %d SMW updates, %d refactorizations, crossover rank %d, %d factorizations, %d columns\n",
			res.Scenarios, len(names), tol, seed,
			res.PencilUpdates, res.PencilRefactors, res.CrossoverRank, res.Factorizations, res.Columns)
	}
	if deck.Title != "" {
		fmt.Printf("# %s\n", deck.Title)
	}
	fmt.Printf("# montecarlo=%d tol=%g seed=%d elements=%d steps=%d tstop=%g states=%d\n",
		n, tol, seed, len(names), m, T, mna.Sys.N())
	fmt.Println("node\tt\tmin\tp05\tmean\tp95\tmax")
	env := res.Envelope
	for i, s := range stateIdx {
		for _, j := range env.ProbeColumns() {
			tj := T * (float64(j) + 0.5) / float64(m)
			p05, err := env.Quantile(s, j, 0.05)
			if err != nil {
				return err
			}
			p95, err := env.Quantile(s, j, 0.95)
			if err != nil {
				return err
			}
			fmt.Printf("%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\n",
				labels[i], tj, env.Min(s, j), p05, env.Mean(s, j), p95, env.Max(s, j))
		}
	}
	return nil
}

// runCorners solves the deterministic tolerance corners of the netlist —
// scenario 0 nominal, each perturbable element alone at its ±tol extremes,
// and the two global all-high/all-low corners — as one parameter-varying
// batch (the per-element corners are rank-1 pencil deltas served by the SMW
// update path), printing per-corner worst-case deviations and envelope
// bounds at the probe columns.
func runCorners(netlistPath string, tol float64, elems, rankLimit, steps int, tstop, nodes string, workers int, history string, verbose bool) error {
	if netlistPath == "" {
		return fmt.Errorf("-netlist is required")
	}
	histMode, err := core.ParseHistoryMode(history)
	if err != nil {
		return err
	}
	f, err := os.Open(netlistPath)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := circuit.Parse(f)
	if err != nil {
		return err
	}
	stop, err := stopFlag(tstop)
	if err != nil {
		return err
	}
	T, m, err := deck.Span(stop, steps)
	if err != nil {
		return err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return err
	}
	if mna.Nonlinear != nil {
		return fmt.Errorf("-corners requires a linear netlist (corners share one pencil factorization)")
	}
	if len(deck.ICs) > 0 {
		return fmt.Errorf("-corners does not support .ic (corners start from rest)")
	}
	stateIdx, labels, err := mna.SelectStates(nodeFlag(nodes))
	if err != nil {
		return err
	}
	names := netgen.PerturbableElements(deck.Netlist, elems)
	if len(names) == 0 {
		return fmt.Errorf("netlist has no perturbable elements (R, C, L, or CPE)")
	}
	res, err := experiments.CornerSweep(experiments.CornerConfig{
		Netlist: deck.Netlist, Model: mna,
		Elements: names, Tol: tol,
		M: m, T: T,
		UpdateRankLimit: rankLimit,
		Options: core.Options{
			Workers:     workers,
			HistoryMode: histMode,
			FactorCache: core.NewFactorCache(0),
		},
	})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "corners: %d corners over %d elements (tol ±%g): %d SMW updates, %d refactorizations\n",
			len(res.Corners)-1, len(names), tol, res.PencilUpdates, res.PencilRefactors)
	}
	if deck.Title != "" {
		fmt.Printf("# %s\n", deck.Title)
	}
	fmt.Printf("# corners=%d tol=%g elements=%d steps=%d tstop=%g states=%d\n",
		len(res.Corners), tol, len(names), m, T, mna.Sys.N())
	fmt.Println("corner\tmax|dx|\tstate\tcolumn\tworst")
	for c, corner := range res.Corners {
		if c == 0 {
			continue
		}
		mark := ""
		if c == res.Worst {
			mark = "*"
		}
		fmt.Printf("%s\t%.6g\t%s\t%d\t%s\n",
			corner.Label, corner.MaxDeviation, mna.StateNames[corner.AtState], corner.AtColumn, mark)
	}
	env := res.Envelope
	fmt.Println("node\tt\tmin\tmax")
	for i, s := range stateIdx {
		for _, j := range env.ProbeColumns() {
			tj := T * (float64(j) + 0.5) / float64(m)
			fmt.Printf("%s\t%.6g\t%.6g\t%.6g\n", labels[i], tj, env.Min(s, j), env.Max(s, j))
		}
	}
	return nil
}

// parseSweep parses an amplitude range "lo:hi" (a bare "x" means x:x).
func parseSweep(s string) (lo, hi float64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if lo, err = circuit.ParseValue(strings.TrimSpace(parts[0])); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep: %w", err)
	}
	if len(parts) == 1 {
		return lo, lo, nil
	}
	if hi, err = circuit.ParseValue(strings.TrimSpace(parts[1])); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep: %w", err)
	}
	return lo, hi, nil
}

// stopFlag parses -tstop (SPICE units) into Deck.Span's override: nil when
// the flag is unset, so the span comes from .tran.
func stopFlag(tstop string) (*float64, error) {
	if tstop == "" {
		return nil, nil
	}
	v, err := circuit.ParseValue(tstop)
	if err != nil {
		return nil, fmt.Errorf("bad -tstop: %w", err)
	}
	return &v, nil
}

// nodeFlag splits -nodes into the names MNA.SelectStates resolves; an unset
// flag selects every state.
func nodeFlag(nodes string) []string {
	if nodes == "" {
		return nil
	}
	return strings.Split(nodes, ",")
}
