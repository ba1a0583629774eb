package lint

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture packages live in testdata/src/<rule>/ and encode their expected
// findings as // want "regexp" comments on the offending line; a line may
// carry several quoted patterns when several diagnostics land on it. A
// fixture file may open with a `// fixturepath: <import/path>` directive to
// control the import path it is type-checked under (the atset fixture uses
// this to claim an internal/mat-suffixed path).
var (
	fixturePathRe = regexp.MustCompile(`(?m)^// fixturepath:\s*(\S+)`)
	wantRe        = regexp.MustCompile(`//\s*want\s+(".+")\s*$`)
	wantArgRe     = regexp.MustCompile(`"([^"]+)"`)
)

type wantExpect struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// loadFixture parses and type-checks one fixture directory into a *Package
// ready for RunPackage. Standard-library imports resolve through the source
// importer, exactly as in the real loader.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s: %v", dir, err)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	pkgPath := "fixture/" + filepath.Base(dir)
	var files []*ast.File
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if m := fixturePathRe.FindSubmatch(src); m != nil {
			pkgPath = string(m[1])
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(pkgPath, fset, files, info)
	if len(typeErrs) > 0 {
		t.Fatalf("type-checking fixture %s: %v", dir, typeErrs[0])
	}
	return &Package{
		Dir:        dir,
		ImportPath: pkgPath,
		ModulePath: "",
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
}

// collectWants extracts the // want expectations from every fixture file.
func collectWants(t *testing.T, dir string) []*wantExpect {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	sort.Strings(names)
	var wants []*wantExpect
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				pat := arg[1]
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, line, pat, err)
				}
				wants = append(wants, &wantExpect{file: name, line: line, re: re, raw: pat})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// TestAnalyzerFixtures runs each registered analyzer over its fixture package
// and checks the findings against the // want expectations: every diagnostic
// must match exactly one unused want on its line, every want must be consumed,
// and each fixture must demonstrate at least one true positive and one
// honored //lint:ignore suppression (ISSUE acceptance).
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Registry {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			runFixtureDir(t, a, dir)
			if !fixtureHasSuppression(t, dir, a.Name) {
				t.Errorf("fixture %s demonstrates no //lint:ignore %s suppression", dir, a.Name)
			}
		})
	}
}

// runFixtureDir checks one analyzer against one fixture directory: every
// diagnostic must match exactly one unused want on its line, and every want
// must be consumed.
func runFixtureDir(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg := loadFixture(t, dir)
	diags := RunPackage(pkg, []*Analyzer{a})
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations; each analyzer must demonstrate a true positive", dir)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a %s finding matching %q; got none", w.file, w.line, a.Name, w.raw)
		}
	}
}

// fixtureHasSuppression reports whether any fixture file carries a
// well-formed //lint:ignore directive for rule. The suppressed site is
// implicitly verified by the unexpected-diagnostic check above: if the
// directive were not honored, the finding it hides would fail the test.
func fixtureHasSuppression(t *testing.T, dir, rule string) bool {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if i := strings.Index(line, "//lint:ignore "); i >= 0 {
				rest := strings.Fields(line[i+len("//lint:ignore "):])
				if len(rest) >= 2 && rest[0] == rule {
					return true
				}
			}
		}
	}
	return false
}
