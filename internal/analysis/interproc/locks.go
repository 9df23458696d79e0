package interproc

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// LockOp is one mutex operation at a call site, with the lock's global
// identity. Identity abstracts instances to their declaration — every
// procState.mu is one lock node — which is the standard conservative
// choice for order graphs: two instances of the same field locked in both
// orders is itself a design worth flagging.
type LockOp struct {
	ID   string // e.g. "storage.procState.mu", "remote.Server.lnMu", "pkg.globalMu"
	Op   string // Lock, RLock, Unlock, RUnlock
	Expr string // the mutex expression as written, e.g. "s.mu"
}

// mutexOp classifies call as a mutex operation and returns the lock's
// global identity. It matches Lock/RLock/Unlock/RUnlock with a
// sync.Mutex/RWMutex receiver, reached directly, through a field, or
// through an embedded mutex.
func mutexOp(info *types.Info, call *ast.CallExpr) (LockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return LockOp{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return LockOp{}, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || !isSyncMutexMethod(fn) {
		return LockOp{}, false
	}
	id := lockIdentity(info, sel.X)
	if id == "" {
		return LockOp{}, false
	}
	return LockOp{ID: id, Op: sel.Sel.Name, Expr: types.ExprString(sel.X)}, true
}

// WalkHeld replays fi's call sites in source order against the locks fi
// holds at each. A Lock or RLock opens a held region and the matching
// Unlock closes it; a deferred Unlock pins its lock until fi returns.
// Other deferred calls run while the held set unwinds, and calls under a
// go statement run without it, so neither is visited. visit sees every
// remaining call made while at least one lock is held, with op, the
// call's own mutex operation (zero when it is none), and held, the locks
// held just before the call, outermost first; held is only valid during
// the visit.
func WalkHeld(fi *FuncInfo, visit func(call Call, op LockOp, held []LockOp)) {
	var held []LockOp
	pinned := map[string]bool{}
	for _, call := range fi.Calls {
		if call.Go {
			continue
		}
		op, _ := mutexOp(fi.Pkg.Info, call.Site)
		if call.Deferred {
			if op.Op == "Unlock" || op.Op == "RUnlock" {
				pinned[op.ID] = true
			}
			continue
		}
		if len(held) > 0 {
			visit(call, op, held)
		}
		switch op.Op {
		case "Lock", "RLock":
			if !slices.ContainsFunc(held, func(h LockOp) bool { return h.ID == op.ID }) {
				held = append(held, op)
			}
		case "Unlock", "RUnlock":
			if !pinned[op.ID] {
				held = slices.DeleteFunc(held, func(h LockOp) bool { return h.ID == op.ID })
			}
		}
	}
}

func isSyncMutexMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// lockIdentity names the mutex expression globally. Field mutexes become
// "pkg.Type.field", package-level mutexes "pkg.var", embedded mutexes
// "pkg.Type.Mutex"; local mutex variables are scoped to their position so
// distinct locals never alias.
func lockIdentity(info *types.Info, mx ast.Expr) string {
	switch mx := ast.Unparen(mx).(type) {
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[mx]; ok {
			obj := selection.Obj()
			recv := selection.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return typeID(named) + "." + obj.Name()
			}
			return obj.Name()
		}
		// Package-qualified global: pkg.Mu
		if obj, ok := info.Uses[mx.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		obj, ok := info.Uses[mx].(*types.Var)
		if !ok {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		// Receiver of an embedded mutex (t.Lock() where t embeds
		// sync.Mutex) or a local variable.
		t := obj.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
				return typeID(named) + ".Mutex"
			}
			// A plain local sync.Mutex: scope by declaration site.
			return fmt.Sprintf("local.%s@%d", obj.Name(), obj.Pos())
		}
	}
	return ""
}

func typeID(named *types.Named) string {
	if named.Obj().Pkg() == nil {
		return named.Obj().Name()
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// lockFixpoint computes each function's transitive may-acquire set with
// one deterministic witness per lock.
func (p *Program) lockFixpoint() {
	funcs := p.DeclOrder()
	for _, fi := range funcs {
		fi.Acquires = map[string]LockWitness{}
		for _, call := range fi.Calls {
			if call.Go || call.Deferred {
				continue
			}
			if op, ok := mutexOp(fi.Pkg.Info, call.Site); ok && (op.Op == "Lock" || op.Op == "RLock") {
				if _, seen := fi.Acquires[op.ID]; !seen {
					fi.Acquires[op.ID] = LockWitness{Pos: call.Pos}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			for _, call := range fi.Calls {
				// A go-spawned callee's acquisitions are concurrent, not
				// ordered under the caller's held set; a deferred callee
				// runs at return where the held set is unwinding.
				if call.Go || call.Deferred {
					continue
				}
				for _, tgt := range call.Targets {
					ti, ok := p.Funcs[tgt]
					if !ok {
						continue
					}
					ids := make([]string, 0, len(ti.Acquires))
					for id := range ti.Acquires {
						ids = append(ids, id)
					}
					sort.Strings(ids)
					for _, id := range ids {
						if _, seen := fi.Acquires[id]; seen {
							continue
						}
						w := ti.Acquires[id]
						via := append([]string{FuncName(tgt)}, w.Via...)
						fi.Acquires[id] = LockWitness{Pos: w.Pos, Via: via}
						changed = true
					}
				}
			}
		}
	}
}
