// Package lint is a small static-analysis framework, built only on the
// standard library's go/ast, go/parser and go/types, that enforces the
// solver's project-specific invariants: bitwise determinism across worker
// counts, float-comparison hygiene, typed never-swallowed diagnostics, and
// allocation discipline on the hot paths.
//
// The framework deliberately mirrors the shape of golang.org/x/tools/go/
// analysis (Analyzer, Pass, Reportf) without depending on it — the module is
// dependency-free and stays that way. Analyzers register in Registry;
// cmd/opm-lint loads the module's packages and runs them all.
//
// Findings can be suppressed with a directive comment on the offending line
// or the line directly above it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory: a suppression without a justification is itself
// reported (rule "directive").
//
// A file puts its loops on the solve-time hot path, where the atset and
// allocsite rules hold them to the row-view and no-allocation idioms, with
// one file-level directive before its first declaration:
//
//	//lint:hot
//
// It takes no arguments; one with arguments or below a declaration is
// reported as rule "directive" and not honored.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"opmsim/internal/lint/cfg"
)

// Severity classifies a rule's findings. Error findings fail the CLI run;
// advisory findings are printed (and kept at zero by the self-lint test) but
// do not flip the exit code unless -strict is given.
type Severity int

const (
	SeverityError Severity = iota
	SeverityAdvisory
)

func (s Severity) String() string {
	if s == SeverityAdvisory {
		return "advisory"
	}
	return "error"
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Rule     string
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	sev := ""
	if d.Severity == SeverityAdvisory {
		sev = " (advisory)"
	}
	return fmt.Sprintf("%s:%d:%d: [%s]%s %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, sev, d.Message)
}

// Analyzer is one named rule. Run inspects the package held by the Pass and
// reports findings through it.
type Analyzer struct {
	Name     string
	Doc      string
	Severity Severity
	Run      func(*Pass)
}

// Registry lists every analyzer the suite ships, in reporting order.
// Each entry corresponds to a row of DESIGN.md §9.
var Registry = []*Analyzer{
	AnalyzerFloatEq,
	AnalyzerMapOrder,
	AnalyzerNonDet,
	AnalyzerUncheckedErr,
	AnalyzerPoolPut,
	AnalyzerAtSet,
	AnalyzerLockHold,
	AnalyzerCtxFlow,
	AnalyzerGoroLeak,
	AnalyzerFsyncOrder,
	AnalyzerAllocSite,
}

// AnalyzerByName returns the registered analyzer with the given name, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ModulePath is the module's import-path prefix ("opmsim"); analyzers use
	// it to restrict themselves to functions defined in this module.
	ModulePath string

	pkg   *Package
	diags *[]Diagnostic
}

// CFG returns the control-flow graph of fn's body, building it lazily and
// caching it on the package so every flow-aware analyzer in a run shares one
// graph per function. Returns nil for bodyless declarations.
func (p *Pass) CFG(fn *ast.FuncDecl) *cfg.Graph {
	if fn == nil || fn.Body == nil {
		return nil
	}
	if p.pkg == nil {
		return cfg.New(fn.Body)
	}
	if p.pkg.cfgs == nil {
		p.pkg.cfgs = map[*ast.FuncDecl]*cfg.Graph{}
	}
	g, ok := p.pkg.cfgs[fn]
	if !ok {
		g = cfg.New(fn.Body)
		p.pkg.cfgs[fn] = g
	}
	return g
}

// Reportf records a finding at pos with the pass's rule and severity.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Rule:     p.Analyzer.Name,
		Severity: p.Analyzer.Severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunPackage applies every analyzer in analyzers to the package, filters the
// findings through //lint:ignore directives, and returns them sorted by
// position. Malformed directives surface as rule "directive" findings.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			ModulePath: pkg.ModulePath,
			pkg:        pkg,
			diags:      &diags,
		}
		a.Run(pass)
	}
	sup, bad := collectSuppressions(pkg.Fset, pkg.Files)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.matches(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return kept
}

// suppRange is one parsed //lint:ignore directive, widened to the line span
// it governs: the directive's own line, the line directly below it, and —
// when that line starts a statement — the statement's full extent, so a
// directive above a multi-line call or condition silences findings on every
// continuation line.
type suppRange struct {
	from, to int
	rules    map[string]bool
}

type suppressionIndex struct {
	byFile map[string][]suppRange
}

func (s suppressionIndex) matches(d Diagnostic) bool {
	for _, r := range s.byFile[d.Pos.Filename] {
		if d.Pos.Line >= r.from && d.Pos.Line <= r.to && (r.rules[d.Rule] || r.rules["all"]) {
			return true
		}
	}
	return false
}

var directiveRe = regexp.MustCompile(`^//lint:ignore\s+([A-Za-z0-9_,-]+)(\s+(.*))?$`)

// parseDirective parses the text of one //lint: comment (as it appears in
// source, "//" included). ok is false when the comment is not a well-formed
// ignore directive: missing rule list, empty rule names, or missing reason.
func parseDirective(text string) (rules []string, reason string, ok bool) {
	m := directiveRe.FindStringSubmatch(text)
	if m == nil {
		return nil, "", false
	}
	reason = strings.TrimSpace(m[3])
	if reason == "" {
		return nil, "", false
	}
	for _, r := range strings.Split(m[1], ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil, "", false
	}
	return rules, reason, true
}

// collectSuppressions scans every comment for //lint:ignore directives.
// A directive missing its rule list or its reason is reported as a
// "directive" finding instead of being honored.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressionIndex, []Diagnostic) {
	idx := suppressionIndex{byFile: map[string][]suppRange{}}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//lint:") {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.HasPrefix(text, hotDirective) {
					if !hotComment(f, c) {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Rule:     "directive",
							Severity: SeverityError,
							Message:  "malformed lint directive; //lint:hot stands alone on its line, before the file's first declaration",
						})
					}
					continue
				}
				ruleList, _, ok := parseDirective(text)
				if !ok {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Rule:     "directive",
						Severity: SeverityError,
						Message:  "malformed lint directive; use //lint:ignore <rule>[,<rule>] <reason> (reason is mandatory)",
					})
					continue
				}
				rules := map[string]bool{}
				for _, r := range ruleList {
					rules[r] = true
				}
				from, to := directiveExtent(fset, f, pos.Line)
				idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], suppRange{from: from, to: to, rules: rules})
			}
		}
	}
	return idx, bad
}

// hotDirective marks a file whose loops are on the solve-time hot path.
const hotDirective = "//lint:hot"

// hotComment reports whether c is a well-formed //lint:hot directive of f:
// the bare directive, before the file's first declaration.
func hotComment(f *ast.File, c *ast.Comment) bool {
	return strings.TrimSpace(c.Text) == hotDirective && (len(f.Decls) == 0 || c.Pos() < f.Decls[0].Pos())
}

// fileHot reports whether f carries a well-formed //lint:hot directive.
func fileHot(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if hotComment(f, c) {
				return true
			}
		}
	}
	return false
}

// directiveExtent widens a directive's default two-line window [line, line+1]
// to the full extent of the outermost statement starting on either of those
// lines. Compound statements extend only through their header (up to the
// opening brace of their body): a directive above an if or for silences the
// multi-line condition, never the whole body.
func directiveExtent(fset *token.FileSet, f *ast.File, line int) (from, to int) {
	from, to = line, line+1
	var best ast.Stmt
	var bestSpan token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		start := fset.Position(s.Pos()).Line
		if start == line || start == line+1 {
			if span := s.End() - s.Pos(); best == nil || span > bestSpan {
				best, bestSpan = s, span
			}
		}
		return true
	})
	if best != nil {
		if l := fset.Position(stmtHeaderEnd(best)).Line; l > to {
			to = l
		}
	}
	return from, to
}

// stmtHeaderEnd returns the position at which a directive's reach over s
// ends: the whole statement for atomic statements, the body's opening brace
// for compound ones.
func stmtHeaderEnd(s ast.Stmt) token.Pos {
	for {
		switch t := s.(type) {
		case *ast.LabeledStmt:
			s = t.Stmt
		case *ast.IfStmt:
			return t.Body.Pos()
		case *ast.ForStmt:
			return t.Body.Pos()
		case *ast.RangeStmt:
			return t.Body.Pos()
		case *ast.SwitchStmt:
			return t.Body.Pos()
		case *ast.TypeSwitchStmt:
			return t.Body.Pos()
		case *ast.SelectStmt:
			return t.Body.Pos()
		default:
			return s.End()
		}
	}
}

// enclosingFuncName returns the name of the innermost function declaration
// containing pos, or "" when pos is at package scope. Used by floateq to
// exempt the approved guard helpers.
func enclosingFuncName(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			return fd.Name.Name
		}
	}
	return ""
}

// isFloaty reports whether t's underlying type is a floating-point or complex
// basic type — the types whose == is a determinism/accuracy trap.
func isFloaty(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// funcObj resolves the *types.Func called by e, looking through parentheses.
// Returns nil for calls through function-typed variables, conversions and
// builtins.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
