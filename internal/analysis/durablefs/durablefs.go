// Package durablefs enforces the storage layer's durable-write discipline:
// all filesystem access inside the storage packages goes through the FS
// shim (so FaultFS can interpose crashes into every window), and every
// shim rename is preceded by an fsync of the file being renamed — the
// write-temp→fsync→rename protocol that makes checkpoint commits atomic.
package durablefs

import (
	"go/ast"
	"go/token"
	"go/types"

	"aic/internal/analysis"
)

// TargetSuffixes are the import-path suffixes of the packages the analyzer
// enforces; everything else is ignored. Tests override this to point at
// fixtures.
var TargetSuffixes = []string{"internal/storage"}

// Analyzer is the durablefs pass.
var Analyzer = &analysis.Analyzer{
	Name: "durablefs",
	Doc:  "storage packages must do filesystem I/O through the FS shim, and fsync temp files before renaming them",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathHasSuffix(pass.Path, TargetSuffixes) {
		return nil
	}
	fsIface := lookupFSInterface(pass.Pkg)
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(pass, fn, fsIface)
			}
		}
	}
	return nil
}

// lookupFSInterface finds the package's FS shim interface, if it has one.
func lookupFSInterface(pkg *types.Package) *types.Interface {
	obj := pkg.Scope().Lookup("FS")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// isShimMethod reports whether fn is a method on a type that itself
// implements the FS interface — the passthrough and fault-injection shims
// are the one place allowed to touch os directly, and their Rename methods
// are delegation, not protocol steps.
func isShimMethod(info *types.Info, fn *ast.FuncDecl, fsIface *types.Interface) bool {
	if fsIface == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	t := tv.Type
	return types.Implements(t, fsIface) || types.Implements(types.NewPointer(t), fsIface)
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, fsIface *types.Interface) {
	shim := isShimMethod(pass.TypesInfo, fn, fsIface)

	// First pass: record where each file expression was fsynced, keyed by
	// the exact source expression handed to SyncFile.
	synced := map[string][]token.Pos{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isFSMethod(pass.TypesInfo, call, fsIface, "SyncFile") && len(call.Args) == 1 {
			key := types.ExprString(call.Args[0])
			synced[key] = append(synced[key], call.Pos())
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := analysis.CalleeObj(pass.TypesInfo, call)
		if obj == nil {
			return true
		}
		if !shim && analysis.IsPkgFunc(obj, "os", analysis.OSFileFuncs...) {
			pass.Reportf(call.Pos(), "direct os.%s bypasses the FS shim; route it through the package's FS so fault injection covers it", obj.Name())
			return true
		}
		if shim {
			return true
		}
		if isFSMethod(pass.TypesInfo, call, fsIface, "Rename") && len(call.Args) == 2 {
			key := types.ExprString(call.Args[0])
			if !syncedBefore(synced[key], call.Pos()) {
				pass.Reportf(call.Pos(), "rename of %s is not preceded by SyncFile(%s) in this function; fsync the temp file before renaming it over the destination", key, key)
			}
		}
		return true
	})
}

func syncedBefore(positions []token.Pos, renamePos token.Pos) bool {
	for _, p := range positions {
		if p < renamePos {
			return true
		}
	}
	return false
}

// isFSMethod reports whether call invokes the named method through the FS
// shim interface (directly or via a concrete type implementing it).
func isFSMethod(info *types.Info, call *ast.CallExpr, fsIface *types.Interface, name string) bool {
	if fsIface == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	return types.Implements(recv, fsIface) || types.Implements(types.NewPointer(recv), fsIface)
}
