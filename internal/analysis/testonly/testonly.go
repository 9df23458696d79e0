// Package testonly reports exported code that only tests call. An
// exported function or method declared in a non-test file under
// internal/ must be used by some non-test file in the program: a
// capability whose only callers are its own tests is code the product
// carries, reviews and keeps compiling for nothing. Each finding is
// settled one of three ways — delete it, unexport it when only its own
// package needs it, or keep it as a deliberate seam or oracle with a
// reasoned //aiclint:ignore testonly directive.
//
// A use is any reference the type checker records (types.Info.Uses) in a
// non-test file of any loaded package: calls, method values, method
// expressions and function values alike. Instantiations of a generic
// function count as uses of the generic function. Two kinds of method
// are exempt by rule, because the program calls them without naming
// them:
//
//   - a method that helps its receiver type satisfy an interface the
//     program names: any interface type appearing in a non-test file,
//     or taken as a parameter by a function a non-test file calls (so
//     heap.Interface's methods are exempt once container/heap is used);
//   - String, Error, Format, Unwrap, Is and As, which fmt and errors
//     find dynamically.
//
// The nested bench module is a separate program and is not loaded, so
// code only it calls needs a directive naming that.
package testonly

import (
	"go/ast"
	"go/types"
	"strings"

	"aic/internal/analysis"
)

// Analyzer is the testonly pass.
var Analyzer = &analysis.Analyzer{
	Name:       "testonly",
	Doc:        "exported functions and methods under internal/ have a non-test use",
	RunProgram: run,
}

// dynamicMethods are found by fmt and errors through interfaces the
// program never names.
var dynamicMethods = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
}

func run(pass *analysis.ProgramPass) error {
	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for id, obj := range info.Uses {
			if analysis.IsTestFile(pass.Fset, id.Pos()) {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for expr, tv := range info.Types {
			if tv.Type != nil && !analysis.IsTestFile(pass.Fset, expr.Pos()) {
				addIface(tv.Type)
			}
		}
		for _, file := range pkg.Files {
			if analysis.IsTestFile(pass.Fset, file.Pos()) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sig, ok := info.TypeOf(call.Fun).(*types.Signature)
				if !ok {
					return true
				}
				for i := 0; i < sig.Params().Len(); i++ {
					t := sig.Params().At(i).Type()
					if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
						t = s.Elem()
					}
					addIface(t)
				}
				return true
			})
		}
	}

	for _, pkg := range pass.Pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			if analysis.IsTestFile(pass.Fset, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] {
					continue
				}
				if fd.Recv != nil && (dynamicMethods[fn.Name()] || satisfies(fn, ifaces[fn.Name()])) {
					continue
				}
				pass.Reportf(fd.Name.Pos(), "%s has no non-test use: delete it, unexport it, or keep it with //aiclint:ignore testonly <reason>", display(fn))
			}
		}
	}
	return nil
}

// inScope reports whether a package is under internal/ (fixtures live
// under testdata/, which sits below internal/analysis).
func inScope(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// satisfies reports whether method fn's receiver type, or a pointer to
// it, implements one of the candidate interfaces (each of which declares
// a method of fn's name).
func satisfies(fn *types.Func, candidates []*types.Interface) bool {
	named := analysis.RecvNamed(fn)
	if named == nil {
		return false
	}
	if named.TypeParams().Len() > 0 {
		// Implements is unspecified for an uninstantiated generic type:
		// a method of the right name is the best the rule can check.
		return len(candidates) > 0
	}
	ptr := types.NewPointer(named)
	for _, it := range candidates {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// display names fn as pkg.Func or pkg.Type.Method.
func display(fn *types.Func) string {
	if named := analysis.RecvNamed(fn); named != nil {
		return fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
