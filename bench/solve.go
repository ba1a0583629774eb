package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/mat"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// solveLoad is a closed loop of core.Solve calls on one circuit with default
// Options and no FactorCache, as a one-shot opm-sim run would make them:
// frac-line and grid-6k.
type solveLoad struct {
	m     int
	T     float64
	alpha float64 // the order the basis probe uses
	// gen builds the netlist from seed; asm assembles its model.
	gen func(seed uint64) (*circuit.Netlist, error)
	asm func(nl *circuit.Netlist) (*circuit.MNA, error)
	// ref is the reference route's Options and ceiling its worst relative
	// difference from the timed route.
	ref     core.Options
	refName string
	ceiling float64
	// twin, when set, builds the same model through another generator; the
	// reference check asserts both pencils have the same fingerprint.
	twin func() (*circuit.MNA, error)

	nl     *circuit.Netlist
	mna    *circuit.MNA
	digest uint64
	last   *core.Solution
	tier   core.Tier
	clk    colClock
}

func (w *solveLoad) build(seed uint64) (gen, asm time.Duration, err error) {
	t0 := now()
	if w.nl, err = w.gen(seed); err != nil {
		return 0, 0, err
	}
	t1 := now()
	if w.mna, err = w.asm(w.nl); err != nil {
		return 0, 0, err
	}
	w.digest, w.last = 0, nil
	return t1.Sub(t0), time.Since(t1), nil
}

// op solves once. Every op solves the same inputs, so every op must return
// the bits of the first: a digest mismatch fails the op.
func (w *solveLoad) op(id int, r *opRecord) error {
	w.clk.reset(r.traced, w.m)
	opt := core.Options{Report: &r.report, OnColumn: func(int, float64, []float64) { w.clk.tick() }}
	r.start = now()
	r.callStart = r.start
	sol, err := core.Solve(w.mna.Sys, w.mna.Inputs, w.m, w.T, opt)
	r.end = now()
	r.callEnd = r.end
	r.first, r.clk = w.clk.first, &w.clk
	if err != nil {
		return err
	}
	x := sol.Coefficients()
	r.cols = x.Cols()
	r.bytes = 8 * x.Rows() * x.Cols()
	d := digest(x)
	switch {
	case w.digest == 0:
		w.digest = d
	case d != w.digest:
		return fmt.Errorf("solution differs from the first op's (digest %x, want %x)", d, w.digest)
	}
	w.last, w.tier = sol, servedTier(&r.report)
	return nil
}

func (w *solveLoad) verify(o *outcome) error {
	if w.last == nil {
		o.correct = false
		o.notef("no op produced a solution to check")
		return nil
	}
	ref, err := core.Solve(w.mna.Sys, w.mna.Inputs, w.m, w.T, w.ref)
	if err != nil {
		return err
	}
	rel := relDiff(w.last.Coefficients().Data(), ref.Coefficients().Data())
	o.notef("max_rel_err %.3g against %s (ceiling %.0e)", rel, w.refName, w.ceiling)
	if !(rel <= w.ceiling) {
		o.correct = false
	}
	if w.twin != nil {
		twin, err := w.twin()
		if err != nil {
			return err
		}
		a, err := core.PencilFingerprint(w.mna.Sys, w.m, w.T)
		if err != nil {
			return err
		}
		b, err := core.PencilFingerprint(twin.Sys, w.m, w.T)
		if err != nil {
			return err
		}
		if a != b {
			o.correct = false
			o.notef("pencil fingerprint %x differs from the netgen model's %x", a, b)
		}
	}
	return nil
}

func (w *solveLoad) problem() problem {
	p := problem{sys: w.mna.Sys, m: w.m, T: w.T, alpha: w.alpha, netlist: w.nl, model: w.mna, tier: w.tier}
	if w.last != nil {
		p.samples = []*mat.Dense{w.last.Coefficients()}
	}
	return p
}

// digest hashes a matrix's bits, one multiply per value (FNV-1a over
// 64-bit words), so checking every op costs little next to the op.
func digest(x *mat.Dense) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x.Data() {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// jitter returns v scaled by a factor drawn uniformly from [1−tol, 1+tol].
func jitter(rng *rand.Rand, v, tol float64) float64 {
	return v * (1 + tol*(2*rng.Float64()-1))
}

// fracLine is the paper's fractional case (eqs. 21–28, Table I): a 32-section
// CPE ladder, α = 0.5, over 2.7 ns at m = 8192. HistoryAuto picks the FFT
// engine, and factoring a 32×32 pencil costs nothing, so the history layer
// does almost all the work. The seed draws the section values and the drive
// amplitude within ±5% of netgen.DefaultFractionalLine.
func fracLine() *solveLoad {
	var cfg netgen.FractionalLineConfig
	var drive waveform.Signal
	w := &solveLoad{
		m: 8192, T: 2.7e-9, alpha: 0.5,
		ref: core.Options{HistoryMode: core.HistoryExact}, refName: "the exact history engine", ceiling: 1e-10,
	}
	w.gen = func(seed uint64) (*circuit.Netlist, error) {
		rng := rand.New(rand.NewSource(int64(seed)))
		cfg = netgen.DefaultFractionalLine()
		cfg.Sections = 32
		cfg.SectionR = jitter(rng, cfg.SectionR, 0.05)
		cfg.SectionC = jitter(rng, cfg.SectionC, 0.05)
		cfg.TermR = jitter(rng, cfg.TermR, 0.05)
		drive = waveform.Pulse(0, jitter(rng, 1e-3, 0.05), 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
		return cpeLadder(cfg, drive)
	}
	w.asm = func(nl *circuit.Netlist) (*circuit.MNA, error) {
		mna, err := nl.MNA()
		if err != nil {
			return nil, err
		}
		c, err := mna.VoltageSelector(nl.Node("v1"), nl.Node("v"+strconv.Itoa(cfg.Sections)))
		if err != nil {
			return nil, err
		}
		if mna.Sys, err = mna.Sys.WithOutput(c); err != nil {
			return nil, err
		}
		return mna, nil
	}
	w.twin = func() (*circuit.MNA, error) { return netgen.FractionalLine(cfg, drive, waveform.Zero()) }
	return w
}

// cpeLadder builds, element for element, the netlist netgen.FractionalLine
// assembles internally. The benchmark needs the netlist itself: to time
// generation and assembly apart and to perturb the CPEs in the layer probes.
// The reference check asserts the two models have the same pencil.
func cpeLadder(cfg netgen.FractionalLineConfig, drive waveform.Signal) (*circuit.Netlist, error) {
	nl := circuit.New()
	k := cfg.Sections
	v := make([]int, k+1)
	for i := 1; i <= k; i++ {
		v[i] = nl.Node("v" + strconv.Itoa(i))
	}
	errs := []error{nl.AddI("Iin1", 0, v[1], drive), nl.AddI("Iin2", 0, v[k], waveform.Zero())}
	for i := 1; i < k; i++ {
		errs = append(errs, nl.AddR("Rs"+strconv.Itoa(i), v[i], v[i+1], cfg.SectionR))
	}
	for i := 1; i <= k; i++ {
		errs = append(errs, nl.AddCPE("P"+strconv.Itoa(i), v[i], 0, cfg.SectionC, cfg.Order))
	}
	errs = append(errs, nl.AddR("Rt1", v[1], 0, cfg.TermR), nl.AddR("Rt2", v[k], 0, cfg.TermR))
	return nl, errors.Join(errs...)
}

// grid6k is the paper's Table II case on the supernodal tier: an NA power
// grid of about 6075 states (second order) solved at m = 128 over 10 ns.
// Integer orders take the O(p·n) recurrence, so factorization and
// substitution do the work and the history engine is bypassed. The seed
// places the switching loads.
func grid6k() *solveLoad {
	return &solveLoad{
		m: 128, T: 10e-9, alpha: 2,
		ref: core.Options{Supernodal: -1}, refName: "the scalar sparse LU", ceiling: 1e-8,
		gen: func(seed uint64) (*circuit.Netlist, error) {
			cfg := netgen.PowerGridN(6000)
			cfg.Seed = int64(seed)
			g, err := netgen.PowerGrid3D(cfg)
			if err != nil {
				return nil, err
			}
			return g.Netlist, nil
		},
		asm: func(nl *circuit.Netlist) (*circuit.MNA, error) { return nl.NA() },
	}
}
