// Package analysis is the project's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, diagnostics, a loader, and a fixture-driven test
// harness) sufficient to host aiclint's project-invariant analyzers.
//
// The repo's correctness rests on conventions the compiler cannot see: the
// write-temp→fsync→rename discipline in internal/storage, context threading
// through storage.Store calls, errors.Is on wrapped sentinel chains, no I/O
// under mutexes, and byte-determinism in the simulation packages. Each
// analyzer in the subpackages proves one of those rules per build, so a
// violation fails CI in seconds instead of surfacing as a flaky soak run.
//
// A diagnostic can be suppressed where the rule is deliberately broken by
// attaching a directive comment on the flagged line, the line above it, or
// the enclosing function's doc comment:
//
//	//aiclint:ignore lockio r.mu is the connection-ownership lock by design
//
// The directive names one analyzer (or a comma-separated list) and must give
// a reason; bare suppressions are themselves reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunProgram is set: Run is invoked once per loaded package for
// single-package syntax checks, RunProgram once per invocation with every
// loaded package for checks that need the whole program: the
// interprocedural ones over the call graph (durableflow, lockorder,
// goroleak, atomicfield) and testonly's program-wide use scan.
type Analyzer struct {
	Name       string // short lower-case identifier, used in directives and output
	Doc        string // one-paragraph description of the invariant enforced
	Run        func(*Pass) error
	RunProgram func(*ProgramPass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Path      string // import path as the build system knows it
	IsMain    bool   // package main (command); entry points may mint contexts
	diags     *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression directives are applied
// by the runner, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ProgramPass is one whole-program analyzer's view of every loaded
// package at once. All packages share one FileSet (the loader guarantees
// it), so positions are comparable across packages.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	// Shared is a scratch cache living for one Run invocation, shared by
	// every program analyzer in the suite. The interprocedural engine
	// stores its call graph and effect summaries here under a private key,
	// so four analyzers pay for one program build.
	Shared map[any]any
	diags  *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression directives are applied
// by the runner, not here.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Run executes each analyzer — per-package analyzers over each package,
// whole-program analyzers once over all of them — applies //aiclint:ignore
// directives, and returns the surviving diagnostics in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				IsMain:    pkg.Types.Name() == "main",
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if len(pkgs) > 0 {
		shared := map[any]any{}
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			pass := &ProgramPass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Pkgs:     pkgs,
				Shared:   shared,
				diags:    &diags,
			}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	for _, pkg := range pkgs {
		diags = filterSuppressed(pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ignoreDirective is one parsed //aiclint:ignore comment.
type ignoreDirective struct {
	names  map[string]bool
	line   int  // line the directive comment sits on
	reason bool // a justification was given
}

const directivePrefix = "//aiclint:ignore"

func parseDirectives(fset *token.FileSet, file *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
			// Allow a trailing comment after the directive without it
			// counting as the justification.
			if i := strings.Index(rest, "//"); i >= 0 {
				rest = strings.TrimSpace(rest[:i])
			}
			fields := strings.Fields(rest)
			d := ignoreDirective{names: map[string]bool{}, line: fset.Position(c.Pos()).Line}
			if len(fields) > 0 {
				for _, n := range strings.Split(fields[0], ",") {
					d.names[n] = true
				}
				d.reason = len(fields) > 1
			}
			out = append(out, d)
		}
	}
	return out
}

// filterSuppressed drops diagnostics covered by a directive on the same
// line, the line above, or in the enclosing function's doc comment. A
// directive without a reason does not suppress — it is replaced by a
// diagnostic of its own, so suppressions stay auditable.
func filterSuppressed(pkg *Package, diags []Diagnostic) []Diagnostic {
	type fileDirs struct {
		dirs []ignoreDirective
		file *ast.File
	}
	byFile := map[string]fileDirs{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		byFile[name] = fileDirs{dirs: parseDirectives(pkg.Fset, f), file: f}
	}
	kept := diags[:0]
	for _, d := range diags {
		fd, ok := byFile[d.Position.Filename]
		if !ok {
			kept = append(kept, d)
			continue
		}
		if suppressed(pkg, fd.file, fd.dirs, d) {
			continue
		}
		kept = append(kept, d)
	}
	// A directive without a justification suppresses nothing and is itself
	// reported, so every suppression in the tree stays auditable.
	for name, fd := range byFile {
		for _, dir := range fd.dirs {
			if !dir.reason {
				kept = append(kept, Diagnostic{
					Position: token.Position{Filename: name, Line: dir.line},
					Analyzer: "aiclint",
					Message:  "suppression directive needs a reason: //aiclint:ignore <analyzer> <why this is safe>",
				})
			}
		}
	}
	return kept
}

func suppressed(pkg *Package, file *ast.File, dirs []ignoreDirective, d Diagnostic) bool {
	for _, dir := range dirs {
		if !dir.names[d.Analyzer] || !dir.reason {
			continue
		}
		if dir.line == d.Position.Line || dir.line == d.Position.Line-1 {
			return true
		}
		// Statement-scoped: a directive above a multi-line statement covers
		// diagnostics anywhere inside it, not only on its first line — the
		// flagged call may sit on a continuation line of a wrapped
		// expression.
		for _, line := range enclosingStmtLines(pkg.Fset, file, d.Pos) {
			if dir.line == line-1 {
				return true
			}
		}
		// Function-scoped: the directive lives in the doc comment of the
		// function declaration enclosing the diagnostic.
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			if d.Pos < fn.Pos() || d.Pos >= fn.End() {
				continue
			}
			docStart := pkg.Fset.Position(fn.Doc.Pos()).Line
			docEnd := pkg.Fset.Position(fn.Doc.End()).Line
			if dir.line >= docStart && dir.line <= docEnd {
				return true
			}
		}
	}
	return false
}

// enclosingStmtLines returns the start lines of every statement enclosing
// pos, innermost last. A diagnostic on line 3 of a wrapped call is covered
// by a directive above line 1 of the statement.
func enclosingStmtLines(fset *token.FileSet, file *ast.File, pos token.Pos) []int {
	var lines []int
	if pos == token.NoPos {
		return nil
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		if _, ok := n.(ast.Stmt); ok {
			lines = append(lines, fset.Position(n.Pos()).Line)
		}
		return true
	})
	return lines
}
