// Package analyzertest runs an analyzer over fixture packages under the
// calling test's testdata/src directory and checks reported diagnostics
// against `// want` comments, mirroring x/tools' analysistest:
//
//	_, _ = os.Create("x") // want `direct os\.Create`
//
// Every diagnostic must be matched by a want-comment regexp on its line,
// and every want comment must be matched by a diagnostic. Fixtures must
// compile — they are type-checked with the same loader aiclint uses, so a
// fixture exercises exactly what the real run sees.
package analyzertest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"aic/internal/analysis"
)

// wantRe extracts the backquoted pattern from a `// want` comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// Run loads each fixture (a directory name under testdata/src relative to
// the caller's package directory), runs the analyzer, and reports any
// mismatch against the fixtures' want comments. A fixture is loaded with a
// trailing /... pattern, so it may be a single package or a tree of
// packages importing each other — interprocedural analyzers need
// cross-package fixtures, and all packages of one fixture are analyzed
// together as one program.
//
//aiclint:ignore testonly the fixture harness every analyzer test drives; it exists for tests
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		pkgs, err := analysis.Load(cwd, fixturePattern(fx))
		if err != nil {
			t.Fatalf("%s: loading fixture: %v", fx, err)
		}
		diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: running %s: %v", fx, a.Name, err)
		}
		checkWants(t, fx, pkgs, diags)
	}
}

// RunExpectClean loads the fixtures and requires the analyzer to report
// nothing, disregarding want comments — used to prove a scoped analyzer
// ignores packages outside its target list even when they violate the rule.
//
//aiclint:ignore testonly the fixture harness every analyzer test drives; it exists for tests
func RunExpectClean(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		pkgs, err := analysis.Load(cwd, fixturePattern(fx))
		if err != nil {
			t.Fatalf("%s: loading fixture: %v", fx, err)
		}
		diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: running %s: %v", fx, a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected diagnostic: %s", fx, d)
		}
	}
}

// fixturePattern widens a fixture directory into a package-tree pattern so
// multi-package fixtures load every subpackage in one program.
func fixturePattern(fx string) string {
	return "./" + filepath.ToSlash(filepath.Join("testdata", "src", fx)) + "/..."
}

// wantKey identifies one want comment by file and line.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func checkWants(t *testing.T, fixture string, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.Contains(c.Text, "// want") {
							pos := pkg.Fset.Position(c.Pos())
							t.Errorf("%s: %s: malformed want comment (need a backquoted regexp): %s", fixture, pos, c.Text)
						}
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", fixture, m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	for _, d := range diags {
		var hit *want
		for _, w := range wants {
			if w.file == d.Position.Filename && w.line == d.Position.Line && w.pattern.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", fixture, d)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched `%s`", fixture, w.file, w.line, w.pattern)
		}
	}
}
