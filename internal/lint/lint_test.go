package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"testing"
)

// checkSource type-checks a single-file package from source (no imports) and
// runs the given analyzers over it.
func checkSource(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("fixture/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking inline fixture: %v", err)
	}
	pkg := &Package{
		ImportPath: "fixture/p",
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		Info:       info,
	}
	return RunPackage(pkg, analyzers)
}

// TestMalformedDirectives: a //lint:ignore without a rule list or without a
// reason is reported as a "directive" finding and does NOT suppress the
// finding beneath it.
func TestMalformedDirectives(t *testing.T) {
	src := `package p

func noReason(v float64) bool {
	//lint:ignore floateq
	return v == 0
}

func noRule(v float64) bool {
	//lint:ignore
	return v == 0
}

func wellFormed(v float64) bool {
	//lint:ignore floateq pivot sentinel, not a tolerance test
	return v == 0
}
`
	diags := checkSource(t, src, []*Analyzer{AnalyzerFloatEq})
	byRuleLine := map[string]bool{}
	for _, d := range diags {
		byRuleLine[d.Rule+":"+strconv.Itoa(d.Pos.Line)] = true
	}
	for _, want := range []string{
		"directive:4", // no reason
		"floateq:5",   // malformed directive must not suppress
		"directive:9", // no rule list
		"floateq:10",
	} {
		if !byRuleLine[want] {
			t.Errorf("missing expected finding %s; got %v", want, diags)
		}
	}
	for _, d := range diags {
		if d.Pos.Line >= 13 {
			t.Errorf("well-formed directive failed to suppress: %s", d)
		}
	}
	if len(diags) != 4 {
		t.Errorf("want exactly 4 findings, got %d: %v", len(diags), diags)
	}
}

// TestHotDirective: only a bare //lint:hot before the first declaration
// puts a file on the hot path; one with arguments or inside a declaration
// is a "directive" finding and leaves the file's loops unchecked.
func TestHotDirective(t *testing.T) {
	const body = `
func perColumn(m, n int) [][]float64 {
	%s
	out := make([][]float64, m)
	for j := range out {
		buf := make([]float64, n)
		out[j] = buf
	}
	return out
}
`
	cases := []struct {
		name, header, inner string
		want                []string
	}{
		{"hot", "//lint:hot", "", []string{"allocsite:9"}},
		{"arguments", "//lint:hot per-column loops", "", []string{"directive:3"}},
		{"inside a declaration", "", "//lint:hot", []string{"directive:6"}},
		{"absent", "", "", nil},
	}
	for _, tc := range cases {
		src := "package p\n\n" + tc.header + "\n" + fmt.Sprintf(body, tc.inner)
		var got []string
		for _, d := range checkSource(t, src, []*Analyzer{AnalyzerAllocSite}) {
			got = append(got, d.Rule+":"+strconv.Itoa(d.Pos.Line))
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s: findings %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSuppressionScope: a directive silences only its own line and the line
// directly below, and only the named rules.
func TestSuppressionScope(t *testing.T) {
	src := `package p

func f(a, b float64) bool {
	//lint:ignore floateq golden-value comparison in a fixture
	x := a == b
	y := a != b
	return x && y
}

func g(a float64) bool {
	//lint:ignore nondet wrong rule name for this finding
	return a == 0
}
`
	diags := checkSource(t, src, []*Analyzer{AnalyzerFloatEq})
	if len(diags) != 2 {
		t.Fatalf("want 2 findings, got %d: %v", len(diags), diags)
	}
	if diags[0].Pos.Line != 6 {
		t.Errorf("line 5 should be suppressed, line 6 not: got line %d", diags[0].Pos.Line)
	}
	if diags[1].Pos.Line != 12 {
		t.Errorf("a directive for another rule must not suppress floateq: got line %d", diags[1].Pos.Line)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Rule:    "floateq",
		Message: "raw float == comparison",
	}
	if got, want := d.String(), "a/b.go:3:7: [floateq] raw float == comparison"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	d.Rule, d.Severity = "atset", SeverityAdvisory
	if !strings.Contains(d.String(), "[atset] (advisory)") {
		t.Errorf("advisory findings must be marked: %q", d.String())
	}
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Registry {
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName should return nil for unknown rules")
	}
}
