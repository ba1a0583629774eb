package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// BatchConfig parameterizes the batched-solve ablation: K amplitude-scaled
// input corners of the Table II power grid solved first sequentially (K Solve
// calls sharing a factorization cache) and then as one SolveBatch call
// (shared factorization + blocked multi-RHS panel solves).
type BatchConfig struct {
	Grid netgen.PowerGridConfig
	// T and H define the block-pulse grid exactly as in Table II.
	T, H float64
	// Ks are the batch sizes to sweep.
	Ks []int
	// Repeat re-runs each leg and keeps the minimum time.
	Repeat int
}

// DefaultBatch sweeps the laptop-scale Table II grid across the batch sizes
// the acceptance criteria name.
func DefaultBatch() BatchConfig {
	return BatchConfig{
		Grid:   netgen.DefaultPowerGrid(),
		T:      10e-9,
		H:      10e-12,
		Ks:     []int{8, 32, 128},
		Repeat: 1,
	}
}

// BatchRow is one K-point of the sweep. Bitwise reports whether every batch
// waveform matched its sequential counterpart bit for bit — the engine's
// core contract, so anything but true fails the experiment.
type BatchRow struct {
	K            int     `json:"k"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	SequentialNS int64   `json:"sequential_ns"`
	BatchNS      int64   `json:"batch_ns"`
	Speedup      float64 `json:"speedup"` // sequential / batch
	// Factorization-cache counters of the sequential leg: K solves of one
	// pencil through a shared cache give 1 miss and K−1 hits.
	SeqCacheHits   int  `json:"seq_cache_hits"`
	SeqCacheMisses int  `json:"seq_cache_misses"`
	Bitwise        bool `json:"bitwise"`
}

// BatchReport is the machine-readable result written to BENCH_batch.json by
// cmd/opm-bench.
type BatchReport struct {
	Provenance Provenance `json:"provenance"`
	Fixture    string     `json:"fixture"`
	PanelWidth int        `json:"panel_width"`
	// Repeat is how many times each leg ran; its times are the fastest run.
	Repeat int        `json:"repeat"`
	Rows   []BatchRow `json:"rows"`
}

// WriteJSON writes the report to path.
func (r *BatchReport) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// hashSolution folds a solution's coefficient bits into an FNV-1a hash, so
// the sequential leg's K solutions can be compared against the batch leg
// without holding both in memory.
func hashSolution(sol *core.Solution) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range sol.Coefficients().Data() {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// batchScenarios builds K amplitude-scaled corners of the grid's inputs,
// the workload shape SolveBatch exists for: one pencil, K drive corners.
func batchScenarios(inputs []waveform.Signal, k int) []core.Scenario {
	scs := make([]core.Scenario, k)
	for s := 0; s < k; s++ {
		scale := 0.5
		if k > 1 {
			scale = 0.5 + float64(s)/float64(k-1)
		}
		u := make([]waveform.Signal, len(inputs))
		for i, base := range inputs {
			base, scale := base, scale
			u[i] = func(t float64) float64 { return scale * base(t) }
		}
		scs[s] = core.Scenario{U: u}
	}
	return scs
}

// Batch runs the batched-solve ablation: for each K it times K sequential
// Solve calls sharing one factorization cache against one SolveBatch call,
// and verifies the two legs agree bit for bit.
func Batch(cfg BatchConfig) (*Table, *BatchReport, error) {
	if cfg.Repeat < 1 {
		cfg.Repeat = 1
	}
	grid, err := netgen.PowerGrid3D(cfg.Grid)
	if err != nil {
		return nil, nil, err
	}
	na, err := grid.Netlist.NA()
	if err != nil {
		return nil, nil, err
	}
	m := int(cfg.T/cfg.H + 0.5)
	if m < 2 {
		return nil, nil, fmt.Errorf("experiments: T/H = %d steps is too few", m)
	}
	rep := &BatchReport{
		Provenance: NewProvenance(),
		Fixture:    fmt.Sprintf("power grid NA n=%d", na.Sys.N()),
		PanelWidth: 32,
		Repeat:     cfg.Repeat,
	}
	tbl := &Table{
		Title: fmt.Sprintf("Batched multi-scenario solve — power grid (n=%d, m=%d, GOMAXPROCS=%d)",
			na.Sys.N(), m, rep.Provenance.GOMAXPROCS),
		Header: []string{"K", "sequential", "batch", "speedup", "cache h/m", "bitwise"},
	}
	for _, k := range cfg.Ks {
		scs := batchScenarios(na.Inputs, k)

		// Sequential leg: K independent Solve calls through one shared
		// factorization cache — the pre-batch fast path, and the source of
		// the 1-miss/K−1-hit accounting the row records.
		var seqHashes []uint64
		var seqHits, seqMisses int
		seqTime, err := minTime(cfg.Repeat, func() error {
			cache := core.NewFactorCache(0)
			hashes := make([]uint64, k)
			for s, sc := range scs {
				sol, err := core.Solve(na.Sys, sc.U, m, cfg.T, core.Options{FactorCache: cache})
				if err != nil {
					return fmt.Errorf("sequential scenario %d: %w", s, err)
				}
				hashes[s] = hashSolution(sol)
			}
			seqHashes = hashes
			seqHits, _, seqMisses = cache.Stats()
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: batch K=%d: %w", k, err)
		}

		var batchHashes []uint64
		batchTime, err := minTime(cfg.Repeat, func() error {
			sols, err := core.SolveBatch(na.Sys, scs, m, cfg.T, core.BatchOptions{
				Options: core.Options{FactorCache: core.NewFactorCache(0)},
			})
			if err != nil {
				return err
			}
			hashes := make([]uint64, k)
			for s, sol := range sols {
				hashes[s] = hashSolution(sol)
			}
			batchHashes = hashes
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: batch K=%d: %w", k, err)
		}

		bitwise := true
		for s := range seqHashes {
			if seqHashes[s] != batchHashes[s] {
				bitwise = false
			}
		}
		row := BatchRow{
			K: k, N: na.Sys.N(), M: m,
			SequentialNS: seqTime.Nanoseconds(),
			BatchNS:      batchTime.Nanoseconds(),
			Speedup:      float64(seqTime) / float64(batchTime),
			SeqCacheHits: seqHits, SeqCacheMisses: seqMisses,
			Bitwise: bitwise,
		}
		rep.Rows = append(rep.Rows, row)
		tbl.AddRow(
			fmt.Sprintf("%d", k),
			seqTime.Round(time.Microsecond).String(),
			batchTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d/%d", seqHits, seqMisses),
			fmt.Sprintf("%v", bitwise),
		)
		if !bitwise {
			return nil, nil, fmt.Errorf("experiments: batch K=%d diverged from the sequential solves", k)
		}
	}
	return tbl, rep, nil
}
