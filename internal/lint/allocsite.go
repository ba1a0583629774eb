package lint

import (
	"go/ast"
	"go/types"

	"opmsim/internal/lint/cfg"
)

// AnalyzerAllocSite (advisory) flags allocation sites inside the per-column
// hot loops of the files marked //lint:hot: make/new per iteration, formatting
// (boxing) calls, and append growth whose backing slice is (re)defined inside
// the loop. Flow-sensitive via reaching definitions so the approved idiom —
// `buf := make(..., cap)` hoisted above the loop, `buf = buf[:0]` reslices
// and `buf = append(buf, ...)` inside it — is recognized as allocation-free.
// Advisory because a lazily-initialized once-per-job buffer inside a guard is
// sometimes the right shape; suppress those with a reason.
var AnalyzerAllocSite = &Analyzer{
	Name:     "allocsite",
	Doc:      "per-iteration allocation (make/new, formatting, growing append) in a hot-path loop; hoist or pre-size outside the loop",
	Severity: SeverityAdvisory,
	Run:      runAllocSite,
}

func runAllocSite(p *Pass) {
	for _, f := range p.Files {
		if !fileHot(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkAllocFunc(fd)
		}
	}
}

func (p *Pass) checkAllocFunc(fd *ast.FuncDecl) {
	g := p.CFG(fd)
	fl := cfg.DefsFlow(p.Info)
	var defs *cfg.Result[cfg.DefSites] // built lazily: only when a loop holds an append
	getDefs := func() *cfg.Result[cfg.DefSites] {
		if defs == nil {
			defs = cfg.ReachingDefs(g, p.Info, p.entryObjs(fd))
		}
		return defs
	}
	// Walk for outermost loops; everything inside one is per-iteration work.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			p.checkAllocLoop(g, fl, getDefs, loop, loop.Body)
			return false
		case *ast.RangeStmt:
			p.checkAllocLoop(g, fl, getDefs, loop, loop.Body)
			return false
		}
		return true
	})
}

// entryObjs lists fd's parameter and receiver objects: defined-at-entry for
// the reaching-defs seed.
func (p *Pass) entryObjs(fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					objs = append(objs, obj)
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return objs
}

// checkAllocLoop reports allocation sites inside one outermost hot loop.
// Two shapes are exempt as not-per-iteration cost: anything inside a return
// or panic (the cold path out of the loop, executed at most once), and the
// buffer-table fill idiom `for i := range tbl { tbl[i] = make(...) }`, where
// the loop's purpose is the one-time allocation itself.
func (p *Pass) checkAllocLoop(g *cfg.Graph, fl cfg.Flow[cfg.DefSites], getDefs func() *cfg.Result[cfg.DefSites], loop ast.Node, body *ast.BlockStmt) {
	var walk func(n ast.Node, rangeOps map[string]bool)
	walk = func(n ast.Node, rangeOps map[string]bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit, *ast.ReturnStmt:
				return false
			case *ast.RangeStmt:
				ops := map[string]bool{types.ExprString(m.X): true}
				for k := range rangeOps {
					ops[k] = true
				}
				if m.Key != nil {
					walk(m.Key, rangeOps)
				}
				walk(m.X, rangeOps)
				walk(m.Body, ops)
				return false
			case *ast.AssignStmt:
				if dest, ok := selfAppendDest(m); ok {
					p.checkAppendGrowth(g, fl, getDefs, loop, m, dest)
					return true
				}
				if isTableFill(m, rangeOps) {
					return false
				}
			case *ast.CallExpr:
				switch fun := ast.Unparen(m.Fun).(type) {
				case *ast.Ident:
					if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin {
						if fun.Name == "panic" {
							return false
						}
						if fun.Name == "make" || fun.Name == "new" {
							p.Reportf(m.Pos(), "%s allocates on every iteration of a hot loop; hoist the buffer above the loop and reuse it", fun.Name)
						}
					}
				case *ast.SelectorExpr:
					// Errorf is exempt: error construction is the cold path
					// out of a solve loop, not per-iteration cost.
					if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() != "Errorf" {
						p.Reportf(m.Pos(), "fmt.%s boxes its operands on every iteration of a hot loop; format outside the loop or index into a prebuilt table", fn.Name())
					}
				}
			}
			return true
		})
	}
	seed := map[string]bool{}
	if rs, ok := loop.(*ast.RangeStmt); ok {
		seed[types.ExprString(rs.X)] = true
	}
	walk(body, seed)
}

// isTableFill matches `tbl[i] = make(...)` where tbl is the operand of an
// enclosing range: a one-time fill of a buffer table, not per-element churn.
func isTableFill(as *ast.AssignStmt, rangeOps map[string]bool) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	ix, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
	if !ok || !rangeOps[types.ExprString(ix.X)] {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && (fun.Name == "make" || fun.Name == "new")
}

// selfAppendDest matches the growth forms `x = append(x, ...)` and
// `x = append(x[:k], ...)` (capacity reuse) and returns the destination
// identifier.
func selfAppendDest(as *ast.AssignStmt) (*ast.Ident, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	dest, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok || dest.Name == "_" {
		return nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" || len(call.Args) == 0 {
		return nil, false
	}
	arg0 := ast.Unparen(call.Args[0])
	if sl, ok := arg0.(*ast.SliceExpr); ok {
		arg0 = ast.Unparen(sl.X)
	}
	id, ok := arg0.(*ast.Ident)
	return dest, ok && id.Name == dest.Name
}

// checkAppendGrowth decides whether `dest = append(dest, ...)` inside loop
// can grow per iteration: it is fine when every definition of dest reaching
// the append is either hoisted above the loop, the loop-carried append
// itself, or a capacity-preserving self-reslice (`dest = dest[:0]`). A make,
// literal or fresh declaration of dest inside the loop means the append
// re-grows from scratch every iteration.
func (p *Pass) checkAppendGrowth(g *cfg.Graph, fl cfg.Flow[cfg.DefSites], getDefs func() *cfg.Result[cfg.DefSites], loop ast.Node, as *ast.AssignStmt, dest *ast.Ident) {
	obj := p.Info.Uses[dest]
	if obj == nil {
		obj = p.Info.Defs[dest]
	}
	if obj == nil {
		return
	}
	blk, idx := findNode(g, as)
	if blk == nil {
		return
	}
	fact, ok := getDefs().FactAt(fl, blk, idx)
	if !ok {
		return
	}
	for site := range fact[obj] {
		if site == nil || site == ast.Node(as) {
			continue // defined at entry, or this append's own loop-carried def
		}
		if neutralRedef(site, obj, p.Info) {
			continue
		}
		if site.Pos() >= loop.Pos() && site.End() <= loop.End() {
			p.Reportf(as.Pos(), "append to %s re-grows per iteration (its backing slice is defined inside the loop); make it once with capacity above the loop", dest.Name)
			return
		}
	}
}

// neutralRedef reports whether site redefines obj without releasing its
// backing array: another self-append, or a self-reslice like `x = x[:0]`.
func neutralRedef(site ast.Node, obj types.Object, info *types.Info) bool {
	as, ok := site.(*ast.AssignStmt)
	if !ok {
		return false
	}
	if dest, ok := selfAppendDest(as); ok && (info.Uses[dest] == obj || info.Defs[dest] == obj) {
		return true
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dest, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok || (info.Uses[dest] != obj && info.Defs[dest] != obj) {
		return false
	}
	sl, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr)
	if !ok {
		return false
	}
	base, ok := ast.Unparen(sl.X).(*ast.Ident)
	return ok && (info.Uses[base] == obj || info.Defs[base] == obj)
}

// findNode locates the block and index holding node n (by identity).
func findNode(g *cfg.Graph, n ast.Node) (*cfg.Block, int) {
	for _, blk := range g.Blocks {
		for i, m := range blk.Nodes {
			if m == n {
				return blk, i
			}
		}
	}
	return nil, -1
}
