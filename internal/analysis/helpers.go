package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CalleeObj resolves a call expression to the function or method object it
// invokes, or nil for calls through function values, conversions and
// builtins.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.Uses[fn].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		if o, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return o // package-qualified call
		}
	}
	return nil
}

// OSFileFuncs are the package-level os functions that touch the file
// system: durablefs holds storage to reaching them through the FS shim,
// and the interprocedural engine counts them as I/O. Pure process-state
// accessors (Getenv, Getpid, ...) are deliberately absent.
var OSFileFuncs = []string{
	"Create", "CreateTemp", "Open", "OpenFile", "WriteFile", "ReadFile",
	"Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll", "MkdirTemp",
	"ReadDir", "Truncate", "Link", "Symlink", "Chtimes", "Stat", "Lstat",
	"ReadLink",
}

// IsPkgFunc reports whether obj is a package-level function of pkgPath
// named one of names (any name when names is empty).
func IsPkgFunc(obj types.Object, pkgPath string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// RecvNamed returns the named type of a method object's receiver (through
// one pointer), or nil for non-methods.
func RecvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsTestFile reports whether pos sits in a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PathHasSuffix reports whether import path has one of the given
// slash-delimited suffixes ("internal/storage" matches
// "aic/internal/storage" but not "aic/internal/storagex").
func PathHasSuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// IsTestdataPath reports whether an import path contains a "testdata"
// segment — an analyzer fixture package, where project-layout scoping
// rules (internal/storage, internal/remote, ...) are relaxed so fixtures
// can model the real packages.
func IsTestdataPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// IsErrorType reports whether t is the built-in error interface type.
func IsErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
