package main

import (
	"math"
	"time"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// mcSweep is a Monte-Carlo tolerance sweep chunked into core.SolveBatch
// calls. Each op draws 64 scenarios (±5% on 8 elements, netgen.
// MonteCarloPerturb), stamps them as pencil deltas (Netlist.StampDelta) on
// the 768-state NA power grid of netgen.DefaultPowerGrid, and solves them at
// m = 64 with DiscardSolutions, folding every column into one
// waveform.Envelope through OnColumn. One FactorCache is shared across
// calls, so the SMW update path, the panel solves and the envelope do the
// work while history and refactorization are bypassed. Scenario indices
// run on from op to op, so the run is one long sweep.
type mcSweep struct {
	seed     uint64
	nl       *circuit.Netlist
	mna      *circuit.MNA
	elements []string
	cache    *core.FactorCache
	env      *waveform.Envelope
	clk      colClock
	tier     core.Tier
}

const (
	mcScenarios = 64
	mcM         = 64
	mcT         = 10e-9
	mcTol       = 0.05
	mcElements  = 8
)

func (w *mcSweep) build(seed uint64) (gen, asm time.Duration, err error) {
	t0 := now()
	cfg := netgen.DefaultPowerGrid()
	cfg.Seed = int64(seed)
	g, err := netgen.PowerGrid3D(cfg)
	if err != nil {
		return 0, 0, err
	}
	t1 := now()
	if w.mna, err = g.Netlist.NA(); err != nil {
		return 0, 0, err
	}
	asm = time.Since(t1)
	w.seed, w.nl = seed, g.Netlist
	w.elements = netgen.PerturbableElements(w.nl, mcElements)
	w.cache = core.NewFactorCache(0)
	if w.env, err = waveform.NewEnvelope(w.mna.Sys.N(), mcM); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0), asm, nil
}

// scenarios draws and stamps the scenarios of op id; with stamps non-nil it
// times each scenario's draw and stamp.
func (w *mcSweep) scenarios(id int, stamps *[]prepStamp) ([]core.Scenario, error) {
	scs := make([]core.Scenario, mcScenarios)
	for k := range scs {
		var p prepStamp
		if stamps != nil {
			p.perturbAt = now()
		}
		perts, err := netgen.MonteCarloPerturb(w.nl, w.elements, w.seed, id*mcScenarios+k, mcTol)
		if err != nil {
			return nil, err
		}
		if stamps != nil {
			p.stampAt = now()
		}
		scs[k] = core.Scenario{U: w.mna.Inputs}
		if len(perts) > 0 {
			d, err := w.nl.StampDelta(w.mna, perts)
			if err != nil {
				return nil, err
			}
			if d.Rank() > 0 {
				scs[k].Delta = d
			}
		}
		if stamps != nil {
			p.stampEnd = now()
			*stamps = append(*stamps, p)
		}
	}
	return scs, nil
}

// batch solves scenarios into env through the shared cache.
func (w *mcSweep) batch(scs []core.Scenario, env *waveform.Envelope, limit int, rep *core.SolveReport, clk *colClock) error {
	var obsErr error
	_, err := core.SolveBatch(w.mna.Sys, scs, mcM, mcT, core.BatchOptions{
		Options:          core.Options{FactorCache: w.cache, Report: rep},
		UpdateRankLimit:  limit,
		DiscardSolutions: true,
		OnColumn: func(j int, _ float64, cols [][]float64) {
			clk.tick()
			for _, c := range cols {
				if err := env.ObserveColumn(j, c); err != nil && obsErr == nil {
					obsErr = err
				}
			}
			clk.done()
		},
	})
	if err != nil {
		return err
	}
	return obsErr
}

func (w *mcSweep) op(id int, r *opRecord) error {
	w.clk.reset(r.traced, mcM)
	r.start = now()
	var stamps *[]prepStamp
	if r.traced {
		stamps = &r.prep
	}
	scs, err := w.scenarios(id, stamps)
	if err == nil {
		r.callStart = now()
		err = w.batch(scs, w.env, 0, &r.report, &w.clk)
		r.callEnd = now()
	}
	r.end = now()
	r.first, r.clk = w.clk.first, &w.clk
	if err != nil {
		return err
	}
	r.cols = mcM * mcScenarios
	r.bytes = 8 * w.mna.Sys.N() * r.cols
	w.tier = servedTier(&r.report)
	return nil
}

// verify re-solves the first timed op's scenarios through the timed route
// and with the SMW update path disabled (every perturbed scenario
// refactored) into two fresh envelopes, which must agree to 1e-12.
func (w *mcSweep) verify(o *outcome) error {
	if math.IsInf(w.env.Min(0, 0), 0) {
		o.correct = false
		o.notef("the sweep envelope observed no scenario")
	}
	scs, err := w.scenarios(warmupOps, nil)
	if err != nil {
		return err
	}
	var envs [2]*waveform.Envelope
	var reps [2]core.SolveReport
	for i, limit := range []int{0, -1} {
		if envs[i], err = waveform.NewEnvelope(w.mna.Sys.N(), mcM); err != nil {
			return err
		}
		var clk colClock
		if err := w.batch(scs, envs[i], limit, &reps[i], &clk); err != nil {
			return err
		}
	}
	rel := envelopeRelDiff(envs[0], envs[1])
	o.notef("max_rel_err %.3g of the SMW envelope against refactoring every scenario (ceiling 1e-12); %d updates, %d refactors",
		rel, reps[0].PencilUpdates, reps[0].PencilRefactors)
	if !(rel <= 1e-12) {
		o.correct = false
	}
	return nil
}

func (w *mcSweep) problem() problem {
	return problem{sys: w.mna.Sys, m: mcM, T: mcT, alpha: 2, netlist: w.nl, model: w.mna, tier: w.tier}
}

// envelopeRelDiff compares the min, max and mean surfaces of two envelopes,
// relative to the largest magnitude on b's surfaces.
func envelopeRelDiff(a, b *waveform.Envelope) float64 {
	var x, y []float64
	for i := 0; i < a.States(); i++ {
		for j := 0; j < a.Columns(); j++ {
			x = append(x, a.Min(i, j), a.Max(i, j), a.Mean(i, j))
			y = append(y, b.Min(i, j), b.Max(i, j), b.Mean(i, j))
		}
	}
	return relDiff(x, y)
}

// servedTier is the factorization tier that served most of a run's column
// solves.
func servedTier(rep *core.SolveReport) core.Tier {
	best := core.TierSparseLU
	for t, n := range rep.TierSolves {
		if n > rep.TierSolves[best] {
			best = core.Tier(t)
		}
	}
	return best
}
