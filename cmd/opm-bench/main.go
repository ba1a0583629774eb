// Command opm-bench regenerates every table and figure of the paper's
// evaluation (plus the ablations listed in DESIGN.md) and prints them with
// the paper's reference numbers alongside.
//
// Usage:
//
//	opm-bench -experiment table1|table2|waveforms|adaptive|opmatrix|bases|scaling|historyfft|batch|all [flags]
//
// The paper-scale Table II instance (NA ≈ 75 K states) is gated behind
// -full; the default grid is laptop-scale. -experiment historyfft sweeps the
// FFT fast-convolution history tier against the exact tier across the auto
// crossover and writes BENCH_history_fft.json (see -histfftout, -workers).
// -experiment batch compares K sequential solves of the
// Table II grid (sharing a factorization cache) against one batched
// SolveBatch call and writes BENCH_batch.json (see -batchout); each leg runs
// -repeat times (default 10, so about ten times the table's summed times)
// and the report records the count.
// -experiment montecarlo ablates Sherman–Morrison–Woodbury factor updates
// against refactorize-every-scenario on Monte-Carlo parameter sweeps of the
// quickstart RC ladder and the power-grid fixture at N ∈ {1k, 10k}
// scenarios, at GOMAXPROCS = NumCPU and 1, and writes BENCH_montecarlo.json
// (see -mcout); it is excluded from -experiment all because the measured
// legs take minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"opmsim/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: table1, table2, waveforms, adaptive, opmatrix, bases, scaling, mor, fracfit, walshtrend, historyfft, batch, montecarlo, all (montecarlo is not part of all)")
		full       = flag.Bool("full", false, "run Table II at paper scale (~75K NA states; needs several GB and minutes)")
		repeat     = flag.Int("repeat", 10, "timing repetitions for table1, historyfft and batch: each timed leg runs this many times and keeps its fastest run")
		gridRows   = flag.Int("grid", 0, "override Table II grid rows/cols (0 = default 16)")
		workers    = flag.Int("workers", 0, "worker goroutines for the historyfft and scale experiments (0 = GOMAXPROCS)")
		histFFTOut = flag.String("histfftout", "BENCH_history_fft.json", "machine-readable output path for -experiment historyfft")
		batchOut   = flag.String("batchout", "BENCH_batch.json", "machine-readable output path for -experiment batch")
		mcOut      = flag.String("mcout", "BENCH_montecarlo.json", "machine-readable output path for -experiment montecarlo")
		scaleOut   = flag.String("scaleout", "BENCH_scale.json", "machine-readable output path for -experiment scale")
		scaleSizes = flag.String("scalesizes", "", "comma-separated grid node counts for -experiment scale (default 1000,10000,100000; \"smoke\" = the CI-sized instance)")
		scaleBase  = flag.String("scalebaseline", "", "baseline BENCH_scale.json to guard against: fail when the fill changes or the factorization or solve speedup regresses >25% at any shared size")
		seed       = flag.Int64("seed", 1, "seed for generated benchmark networks (Table II grid loads, MOR, scaling); same seed, same netlist")
	)
	flag.Parse()
	if err := run(*experiment, *full, *repeat, *gridRows, *workers, *histFFTOut, *batchOut, *mcOut, *scaleOut, *scaleSizes, *scaleBase, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "opm-bench:", err)
		os.Exit(1)
	}
}

func run(experiment string, full bool, repeat, gridRows, workers int, histFFTOut, batchOut, mcOut, scaleOut, scaleSizes, scaleBase string, seed int64) error {
	runOne := func(name string) error {
		switch name {
		case "table1":
			cfg := experiments.DefaultTableI()
			cfg.Repeat = repeat
			tbl, _, err := experiments.TableI(cfg)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "table2":
			cfg := experiments.DefaultTableII()
			if full {
				cfg = experiments.FullTableII()
				fmt.Println("running paper-scale grid; this takes minutes and several GB...")
			}
			if gridRows > 0 {
				cfg.Grid.Rows, cfg.Grid.Cols = gridRows, gridRows
			}
			cfg.Grid.Seed = seed
			tbl, _, err := experiments.TableII(cfg)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "waveforms":
			tbl, err := experiments.Waveforms(experiments.DefaultTableI(), 27)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "adaptive":
			tbl, err := experiments.Adaptive(experiments.DefaultAdaptive())
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "opmatrix":
			tbl, err := experiments.OpMatrix()
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "bases":
			tbl, err := experiments.Bases(32, 2)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "scaling":
			tbl, err := experiments.Scaling(seed)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "mor":
			tbl, err := experiments.MOR(seed)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "fracfit":
			tbl, err := experiments.FracFit()
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "walshtrend":
			tbl, err := experiments.WalshTrend()
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
		case "historyfft":
			cfg := experiments.DefaultHistoryFFT()
			cfg.Workers = workers
			if repeat > 0 {
				cfg.Repeat = repeat
			}
			tbl, rep, err := experiments.HistoryFFT(cfg)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
			if histFFTOut != "" {
				if err := rep.WriteJSON(histFFTOut); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", histFFTOut)
			}
		case "batch":
			cfg := experiments.DefaultBatch()
			if gridRows > 0 {
				cfg.Grid.Rows, cfg.Grid.Cols = gridRows, gridRows
			}
			cfg.Grid.Seed = seed
			if repeat > 0 {
				cfg.Repeat = repeat
			}
			tbl, rep, err := experiments.Batch(cfg)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
			if batchOut != "" {
				if err := rep.WriteJSON(batchOut); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", batchOut)
			}
		case "montecarlo":
			cfg := experiments.DefaultMonteCarloBench()
			if gridRows > 0 {
				cfg.Grid.Rows, cfg.Grid.Cols = gridRows, gridRows
			}
			if seed > 0 {
				cfg.Seed = uint64(seed)
			}
			tbl, rep, err := experiments.MonteCarloBench(cfg)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
			if mcOut != "" {
				if err := rep.WriteJSON(mcOut); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", mcOut)
			}
		case "scale":
			cfg := experiments.DefaultScale()
			cfg.Workers = workers
			if scaleSizes == "smoke" {
				cfg = experiments.SmokeScale()
			} else if scaleSizes != "" {
				var sizes []int
				for _, s := range strings.Split(scaleSizes, ",") {
					v, err := strconv.Atoi(strings.TrimSpace(s))
					if err != nil {
						return fmt.Errorf("bad -scalesizes entry %q: %w", s, err)
					}
					sizes = append(sizes, v)
				}
				cfg.Sizes = sizes
			}
			var base *experiments.ScaleReport
			if scaleBase != "" {
				b, err := experiments.ReadScaleReport(scaleBase)
				if err != nil {
					return err
				}
				base = b
			}
			tbl, rep, err := experiments.ScaleBench(cfg)
			if err != nil {
				return err
			}
			tbl.Fprint(os.Stdout)
			if scaleOut != "" {
				if err := rep.WriteJSON(scaleOut); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", scaleOut)
			}
			if base != nil {
				if err := experiments.CompareScaleReports(rep, base, 0.25); err != nil {
					return err
				}
				fmt.Printf("scale guard: fill equal to and speedups within 25%% of %s\n", scaleBase)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	if experiment == "all" {
		for _, name := range []string{"table1", "table2", "waveforms", "adaptive", "opmatrix", "bases", "scaling", "mor", "fracfit", "walshtrend", "historyfft", "batch"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(experiment)
}
