package main

import (
	"fmt"
	"math"
	"syscall"
	"time"

	"opmsim/internal/basis"
	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/mat"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// problem is what the layer probes of a traced run work on: the workload's
// own model, grid and netlist.
type problem struct {
	sys   *core.System
	m     int
	T     float64
	alpha float64 // the order the basis probe expands
	// basisM is the basis probe's grid when it differs from m.
	basisM  int
	netlist *circuit.Netlist
	model   *circuit.MNA
	// tier served the workload's solves; the sparse probes factor with it.
	tier core.Tier
	// samples are solved waveforms (one n×m matrix per scenario) for the
	// envelope probe, when the workload's ops do not fold into an envelope.
	samples []*mat.Dense
}

// probeBudget bounds the repetitions of one probe; every probe runs at
// least probeMinReps times and reports the median.
const (
	probeBudget  = 300 * time.Millisecond
	probeMinReps = 3
	panelWidth   = 32
)

// probeLayers times single layers on the workload's inputs, outside the
// timed phase, and records every per-layer metric the ops did not already
// measure.
func probeLayers(p problem, v map[string]float64) error {
	set := func(name string, val float64) {
		if _, ok := v[name]; !ok {
			v[name] = val
		}
	}
	bm := p.basisM
	if bm == 0 {
		bm = p.m
	}
	bpf, err := basis.NewBPF(bm, p.T)
	if err != nil {
		return err
	}
	d, err := timeMedian(probeMinReps, probeBudget, func() error {
		if c := bpf.DiffCoeffs(p.alpha); len(c) != bm {
			return fmt.Errorf("DiffCoeffs returned %d coefficients, want %d", len(c), bm)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("basis.diffcoeffs_ms", ms(d))

	var pencil *sparse.CSR
	d, err = timeMedian(probeMinReps, probeBudget, func() (err error) {
		pencil, _, err = core.LeadingPencil(p.sys, p.m, p.T)
		return err
	})
	if err != nil {
		return err
	}
	set("core.pencil_ms", ms(d))
	if err := probeSparse(pencil, p.tier, set); err != nil {
		return err
	}
	if err := probePerturb(p, set); err != nil {
		return err
	}
	return probeObserve(p.samples, set)
}

// probeSparse factors the leading pencil with the tier that served the
// workload and times each stage: ordering, factorization (ordering
// included), condition estimate, one solve and one 32-wide panel solve.
func probeSparse(a *sparse.CSR, tier core.Tier, set func(string, float64)) error {
	n := a.R
	b := make([]float64, n)
	x := make([]float64, n)
	bp := mat.NewDense(n, panelWidth)
	xp := mat.NewDense(n, panelWidth)
	for i := range b {
		b[i] = 1 + float64(i%7)
		for k := 0; k < panelWidth; k++ {
			bp.Set(i, k, b[i]+float64(k))
		}
	}
	var f interface {
		Cond1Est() float64
		SolveInto(x, b []float64) error
		NNZFactors() int
	}
	var order, factor time.Duration
	var panel func() error
	var err error
	parts, iface := 0, 0
	if tier == core.TierSupernodal {
		var bb *sparse.BBD
		if factor, err = timeMedian(probeMinReps, probeBudget, func() (err error) {
			bb, err = sparse.FactorBBD(a, sparse.BBDOptions{})
			return err
		}); err != nil {
			return err
		}
		req := 2
		for req < bb.Parts() {
			req *= 2
		}
		if order, err = timeMedian(probeMinReps, probeBudget, func() error {
			if len(sparse.Dissect(a, req).Domains) < 2 {
				return fmt.Errorf("dissection of the pencil produced no split")
			}
			return nil
		}); err != nil {
			return err
		}
		s := bb.NewPanelScratch(panelWidth)
		panel = func() error { return bb.SolvePanelInto(xp, bp, s) }
		f, parts, iface = bb, bb.Parts(), bb.IfaceN()
	} else {
		var sf *sparse.Factorization
		if factor, err = timeMedian(probeMinReps, probeBudget, func() (err error) {
			sf, err = sparse.Factor(a, sparse.Options{})
			return err
		}); err != nil {
			return err
		}
		if order, err = timeMedian(probeMinReps, probeBudget, func() error {
			if len(sparse.RCM(a)) != n {
				return fmt.Errorf("RCM returned a short permutation")
			}
			return nil
		}); err != nil {
			return err
		}
		s := sf.NewPanelScratch(panelWidth)
		panel = func() error { return sf.SolvePanelInto(xp, bp, s) }
		f = sf
	}
	cond, err := timeMedian(probeMinReps, probeBudget, func() error {
		if c := f.Cond1Est(); !(c >= 1) {
			return fmt.Errorf("condition estimate %g", c)
		}
		return nil
	})
	if err != nil {
		return err
	}
	solve, err := timeMedian(probeMinReps, probeBudget, func() error { return f.SolveInto(x, b) })
	if err != nil {
		return err
	}
	panelT, err := timeMedian(probeMinReps, probeBudget, panel)
	if err != nil {
		return err
	}
	set("sparse.order_ms", ms(order))
	set("sparse.factor_ms", ms(factor))
	set("sparse.cond1est_ms", ms(cond))
	set("sparse.solve_us", us(solve))
	set("sparse.panel_solve_us", us(panelT))
	set("sparse.fill_nnz", float64(f.NNZFactors()))
	set("sparse.bbd_parts", float64(parts))
	set("sparse.bbd_iface_n", float64(iface))
	return nil
}

// probePerturb times one tolerance scenario on the workload's netlist: the
// draw (±5% on 8 elements) and its stamp as a pencil delta.
func probePerturb(p problem, set func(string, float64)) error {
	names := netgen.PerturbableElements(p.netlist, mcElements)
	var perts []circuit.Perturbation
	scenario := 0
	d, err := timeMedian(probeMinReps, probeBudget, func() (err error) {
		scenario++
		perts, err = netgen.MonteCarloPerturb(p.netlist, names, 1, scenario, mcTol)
		return err
	})
	if err != nil {
		return err
	}
	set("netgen.perturb_us", us(d))
	d, err = timeMedian(probeMinReps, probeBudget, func() error {
		_, err := p.netlist.StampDelta(p.model, perts)
		return err
	})
	if err != nil {
		return err
	}
	set("circuit.stamp_delta_us", us(d))
	return nil
}

// probeObserve folds solved waveforms into an envelope column by column and
// times each column barrier (every scenario's column j).
func probeObserve(samples []*mat.Dense, set func(string, float64)) error {
	if len(samples) == 0 {
		return nil
	}
	n, m := samples[0].Rows(), samples[0].Cols()
	env, err := waveform.NewEnvelope(n, m)
	if err != nil {
		return err
	}
	cols := make([][]float64, len(samples))
	for s := range cols {
		cols[s] = make([]float64, n)
	}
	ds := make([]float64, 0, m)
	for j := 0; j < m; j++ {
		for s, x := range samples {
			for i := range cols[s] {
				cols[s][i] = x.Row(i)[j]
			}
		}
		t0 := now()
		for s := range cols {
			if err := env.ObserveColumn(j, cols[s]); err != nil {
				return err
			}
		}
		ds = append(ds, us(time.Since(t0)))
	}
	set("waveform.observe_us", median(ds))
	return nil
}

// peakRSSMB is the process's peak resident set so far, in MB; NaN, which
// fails the run, if the kernel will not say.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
