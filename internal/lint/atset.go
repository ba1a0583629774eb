package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerAtSet (advisory) flags element-wise At/Set calls on mat matrix
// types inside doubly-nested loops in the files marked //lint:hot. Each
// At/Set pays a bounds-checked multiply per element; the PR 4
// alloc-elimination work showed the Row/slab-view idiom is 2-4x faster on
// these paths. Advisory because the transform is a judgment call —
// pivoting and column-major walks sometimes genuinely need indexed access.
var AnalyzerAtSet = &Analyzer{
	Name:     "atset",
	Doc:      "element-wise At/Set in doubly-nested loops on hot paths; prefer Row/slab views",
	Severity: SeverityAdvisory,
	Run:      runAtSet,
}

func runAtSet(p *Pass) {
	for _, f := range p.Files {
		if fileHot(f) {
			checkAtSetDepth(p, f, 0)
		}
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
