// Package interproc is the interprocedural engine under aiclint's
// whole-program analyzers. It builds a call graph over every loaded
// package at once — direct calls resolved through the type checker,
// interface method calls resolved against the method sets of every
// concrete type the program defines (storage.Store and the FS shim being
// the motivating interfaces) — computes a per-function summary
// (durability and network effects, file and network I/O, shutdown edges,
// unexitable spin loops, lock acquisitions), and propagates summaries
// bottom-up to a fixpoint. Analyzers then reason about a call site through
// its callee's transitive summary: "this ack is preceded by a call that
// eventually fsyncs", "this function eventually takes that lock", "this
// call under a held lock eventually does I/O". WalkHeld is the one
// held-lock walk the lock analyzers share.
//
// Approximations, chosen to keep the engine sound for the invariants it
// serves rather than in general:
//
//   - Function literals are inlined into their enclosing declaration: a
//     closure's effects and lock acquisitions count as the definer's.
//     This matches how the commit and fan-out code uses closures
//     (defined and invoked within one protocol step).
//   - Calls through plain function values are opaque (no targets); calls
//     into packages outside the loaded program contribute only their
//     recognized direct effects (os.Rename, net writes, ...).
//   - An interface call fans out to every concrete implementation in the
//     program, a superset of runtime behavior (sound for "must happen
//     before" checks run over each implementation, conservative for
//     lock-order edges).
package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"aic/internal/analysis"
)

// Program is the whole-program call graph plus computed summaries.
type Program struct {
	Fset *token.FileSet
	Pkgs []*analysis.Package

	// Funcs maps every function and method declared (with a body) in the
	// loaded packages to its node.
	Funcs map[*types.Func]*FuncInfo

	// ifaceImpls caches interface-method → implementing-methods resolution.
	ifaceImpls map[*types.Func][]*types.Func
	// namedTypes is every named, non-interface type defined in the program.
	namedTypes []*types.Named
}

// FuncInfo is one declared function's node in the call graph.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package

	// Calls lists the call sites in body source order, function literals
	// inlined. Targets is empty for calls the engine cannot resolve.
	Calls []Call

	// Direct is the function's own effect set; Summary adds the transitive
	// closure over everything it may call.
	Direct  Effect
	Summary Effect

	// Acquires maps each lock the function may take — itself or through
	// any callee — to one deterministic witness of how.
	Acquires map[string]LockWitness
}

// Call is one call site.
type Call struct {
	Site     *ast.CallExpr
	Pos      token.Pos
	Targets  []*types.Func // resolved callees with bodies in the program
	Deferred bool          // lexically under a defer
	Go       bool          // lexically under a go statement
}

// LockWitness records one way a function reaches a lock acquisition, for
// printing acquisition chains in diagnostics.
type LockWitness struct {
	Pos token.Pos // the m.Lock() call, possibly in a callee
	Via []string  // call chain from the summarized function, outermost first
}

type sharedKey struct{}

// Of returns the engine's Program for the pass's packages, building it on
// first use and caching it in the pass's shared map so the whole analyzer
// suite pays for one build.
func Of(pass *analysis.ProgramPass) *Program {
	if p, ok := pass.Shared[sharedKey{}]; ok {
		return p.(*Program)
	}
	p := Build(pass.Fset, pass.Pkgs)
	pass.Shared[sharedKey{}] = p
	return p
}

// Build constructs the call graph and runs the summary fixpoints.
func Build(fset *token.FileSet, pkgs []*analysis.Package) *Program {
	p := &Program{
		Fset:       fset,
		Pkgs:       pkgs,
		Funcs:      map[*types.Func]*FuncInfo{},
		ifaceImpls: map[*types.Func][]*types.Func{},
	}
	p.indexTypes()
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				p.Funcs[obj] = &FuncInfo{Obj: obj, Decl: fn, Pkg: pkg}
			}
		}
	}
	for _, fi := range p.Funcs {
		p.collect(fi)
	}
	p.effectFixpoint()
	p.lockFixpoint()
	return p
}

// indexTypes gathers every named non-interface type the program defines,
// the candidate set for interface-call resolution.
func (p *Program) indexTypes() {
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			p.namedTypes = append(p.namedTypes, named)
		}
	}
	sort.Slice(p.namedTypes, func(i, j int) bool {
		return p.namedTypes[i].String() < p.namedTypes[j].String()
	})
}

// collect walks one declaration's body recording call sites (closures
// inlined) and the function's direct effects.
func (p *Program) collect(fi *FuncInfo) {
	info := fi.Pkg.Info
	deferred := map[*ast.CallExpr]bool{}
	inGo := map[*ast.CallExpr]bool{}
	// Mark the lexical defer/go context of each call: every call inside a
	// go-statement's function literal runs concurrently with the definer.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			inGo[n.Call] = true
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					inGo[c] = true
				}
				return true
			})
		}
		return true
	})
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c := Call{
			Site:     call,
			Pos:      call.Pos(),
			Targets:  p.resolve(info, call),
			Deferred: deferred[call],
			Go:       inGo[call],
		}
		fi.Calls = append(fi.Calls, c)
		fi.Direct |= directEffect(info, call)
		return true
	})
	sort.SliceStable(fi.Calls, func(i, j int) bool { return fi.Calls[i].Pos < fi.Calls[j].Pos })
	fi.Direct |= syntaxEffects(fi.Decl.Body)
}

// resolve returns the possible targets of a call that have bodies in the
// program: the static callee for direct calls, every implementing method
// for interface calls.
func (p *Program) resolve(info *types.Info, call *ast.CallExpr) []*types.Func {
	obj := analysis.CalleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		if _, inProg := p.Funcs[fn]; inProg {
			return []*types.Func{fn}
		}
		return nil
	}
	if _, isIface := recv.Type().Underlying().(*types.Interface); !isIface {
		if _, inProg := p.Funcs[fn]; inProg {
			return []*types.Func{fn}
		}
		return nil
	}
	return p.implementations(fn)
}

// implementations resolves an interface method to the concrete methods of
// every program-defined type whose method set satisfies the interface.
func (p *Program) implementations(m *types.Func) []*types.Func {
	if impls, ok := p.ifaceImpls[m]; ok {
		return impls
	}
	iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	if iface != nil {
		for _, named := range p.namedTypes {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			impl, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if _, inProg := p.Funcs[impl]; inProg {
				impls = append(impls, impl)
			}
		}
	}
	p.ifaceImpls[m] = impls
	return impls
}

// DeclOrder returns the graph nodes in package/file/declaration order —
// the stable iteration order the fixpoints and analyzers use, so
// witnesses and diagnostics come out the same run to run.
func (p *Program) DeclOrder() []*FuncInfo {
	var out []*FuncInfo
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					if fi, ok := p.Funcs[obj]; ok {
						out = append(out, fi)
					}
				}
			}
		}
	}
	return out
}

// Implementers returns every program-defined named type whose method set
// (value or pointer) satisfies iface, in deterministic order.
func (p *Program) Implementers(iface *types.Interface) []*types.Named {
	var out []*types.Named
	for _, named := range p.namedTypes {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, named)
		}
	}
	return out
}

// MethodOf resolves a method by name on named (through a pointer
// receiver), or nil.
func (p *Program) MethodOf(named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

// ResolveCall exposes call-target resolution for analyzers inspecting
// syntax the engine did not pre-walk (e.g. a go statement's closure).
func (p *Program) ResolveCall(info *types.Info, call *ast.CallExpr) []*types.Func {
	return p.resolve(info, call)
}

// FuncName renders a function for diagnostics: pkg.Func or pkg.(*Recv).Method.
func FuncName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
	}
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	star := ""
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
		star = "*"
	}
	name := "?"
	if named, ok := t.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return pkg + ".(" + star + name + ")." + fn.Name()
}
