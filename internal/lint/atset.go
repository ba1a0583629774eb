package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// atsetHotPackages are the import-path suffixes whose inner loops are on the
// solve-time critical path; only these are held to the slab/row-view idiom.
var atsetHotPackages = []string{
	"internal/core", "internal/mat", "internal/sparse", "internal/serve",
	// PR 9: the envelope extractor walks every waveform sample per measure
	// call and the Monte-Carlo driver re-walks every scenario's waveforms per
	// sweep; both are per-sample loops over m×K data.
	"internal/waveform", "internal/experiments",
	// The FFT history tier runs the transform kernels once per row pair per
	// segment firing.
	"internal/fft",
}

// atsetHotFiles restricts the rule within the hot packages to the files on
// the per-step solve path (the PR 4 alloc-elimination surface). Factorization
// kernels like eigen.go/svd.go/qr.go walk matrices in pivoted or column-major
// order where indexed access is the algorithm, not an accident; holding them
// to the row-view idiom would bury the signal in suppressions.
var atsetHotFiles = map[string]bool{
	"history.go":    true,
	"historyfft.go": true,
	"solve.go":      true,
	"factor.go":     true,
	"generic.go":    true,
	"dense.go":      true,
	"triangular.go": true,
	// PR 5 batch-engine surface: the panel kernels and the batch column loop
	// are the hottest per-step code in the tree.
	"batch.go": true,
	"panel.go": true,
	"lu.go":    true,
	// PR 6 service surface: the per-column streaming path runs once per BPF
	// column per job, concurrently across worker slots.
	"stream.go": true,
	"serve.go":  true,
	// PR 7 resilience surface: checkpoint capture/replay copies column slabs
	// (core/checkpoint.go), the journal encodes them (serve/journal.go), and
	// the entry fold applies them (serve/jobs.go) — all per-checkpoint-interval
	// hot loops over m×n×K data.
	"checkpoint.go": true,
	"journal.go":    true,
	"jobs.go":       true,
	// PR 8 parameter-varying surface: the SMW capacitance solve and the
	// param-batch column loop run per column per scenario, and the sparse
	// rank-one factors (vec.go) are dotted/scattered inside them.
	"smw.go":        true,
	"parambatch.go": true,
	"delta.go":      true,
	"vec.go":        true,
	// Supernodal/BBD surface: the domain-decomposed solve with its
	// Schur patch assembly (bbd.go) runs per column per solve on n=10⁵
	// grids; the domain factors' row substitution plan and the dense Schur
	// interface factor (internal/mat) both live in lu.go, listed above.
	"bbd.go": true,
}

// atsetHotOnly narrows the watchlist within specific packages: for these
// package suffixes only the listed files are hot, regardless of the global
// file set. The PR 9 extension targets the envelope extractor and the
// Monte-Carlo sweep driver without dragging in sibling driver files
// (figures.go, table.go) whose loops format output tables, not samples —
// some of which share basenames (batch.go) with the core watchlist.
var atsetHotOnly = map[string]map[string]bool{
	"internal/waveform": {"envelope.go": true},
	// PR 10 adds the scale sweep (per-size factor/solve timing loops) and the
	// corner sweep (per-column deviation fold over every corner scenario).
	"internal/experiments": {"montecarlo.go": true, "scale.go": true, "corners.go": true},
	// Only the plan kernels (DIT/DIF stages, the fused convolution pass, the
	// packed real transforms) are hot in internal/fft; fft.go's one-shot
	// helpers allocate their results by design.
	"internal/fft": {"plan.go": true},
}

// atsetFileHot reports whether base in the package at pkgPath is on the hot
// watchlist.
func atsetFileHot(pkgPath, base string) bool {
	for suffix, files := range atsetHotOnly {
		if strings.HasSuffix(pkgPath, suffix) {
			return files[base]
		}
	}
	return atsetHotFiles[base]
}

// AnalyzerAtSet (advisory) flags element-wise At/Set calls on mat matrix
// types inside doubly-nested loops in the hot packages (internal/core,
// internal/mat). Each At/Set pays a bounds-checked multiply per element; the
// PR 4 alloc-elimination work showed the Row/slab-view idiom is 2-4x faster
// on these paths. Advisory because the transform is a judgment call —
// pivoting and column-major walks sometimes genuinely need indexed access.
var AnalyzerAtSet = &Analyzer{
	Name:     "atset",
	Doc:      "element-wise At/Set in doubly-nested loops on hot paths; prefer Row/slab views",
	Severity: SeverityAdvisory,
	Run:      runAtSet,
}

func runAtSet(p *Pass) {
	hot := false
	for _, suffix := range atsetHotPackages {
		if strings.HasSuffix(p.Pkg.Path(), suffix) {
			hot = true
		}
	}
	if !hot {
		return
	}
	for _, f := range p.Files {
		if !atsetFileHot(p.Pkg.Path(), filepath.Base(p.Fset.Position(f.Pos()).Filename)) {
			continue
		}
		checkAtSetDepth(p, f, 0)
	}
}

// checkAtSetDepth walks n tracking loop nesting depth; At/Set matrix calls at
// depth >= 2 are reported once per call site.
func checkAtSetDepth(p *Pass, n ast.Node, depth int) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			checkAtSetDepth(p, m.Body, depth+1)
			return false
		case *ast.RangeStmt:
			checkAtSetDepth(p, m.Body, depth+1)
			return false
		case *ast.CallExpr:
			if depth < 2 {
				return true
			}
			if name, ok := matElementCall(p.Info, m); ok {
				p.Reportf(m.Pos(), "element-wise %s inside a doubly-nested loop; hoist a Row/slab view outside the inner loop (see DESIGN §7)", name)
			}
		}
		return true
	})
}

// matElementCall reports whether call is m.At(i,j) or m.Set(i,j,v) on a type
// defined in the module's mat package.
func matElementCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "At" && name != "Set" {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "internal/mat") {
		return "", false
	}
	return types.ExprString(sel.X) + "." + name, true
}
