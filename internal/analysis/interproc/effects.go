package interproc

import (
	"go/ast"
	"go/token"
	"go/types"

	"aic/internal/analysis"
)

// Effect is a bitset of the behaviors a function may perform, directly or
// through any callee.
type Effect uint32

const (
	// EffFsync: file contents forced to stable storage (FS.SyncFile,
	// (*os.File).Sync).
	EffFsync Effect = 1 << iota
	// EffDirSync: a directory fsync pinning renames (FS.SyncDir).
	EffDirSync
	// EffRename: a rename into place (FS.Rename, os.Rename).
	EffRename
	// EffNetWrite: bytes written to a network connection — durability
	// delegated to the remote end of the wire.
	EffNetWrite
	// EffChanRecv: blocks on a channel receive or select — a shutdown or
	// completion edge a spawner can close.
	EffChanRecv
	// EffCtxDone: consults ctx.Done(), the canonical shutdown edge.
	EffCtxDone
	// EffSpin: contains a `for` loop with no condition, no escape
	// (return/break/goto/panic) and no channel operation — a goroutine
	// running it can never be stopped.
	EffSpin
	// EffIO: file or network I/O, as IOCall classifies it — what lockio
	// forbids under a held mutex.
	EffIO
)

// String renders the set for diagnostics, in declaration order.
func (e Effect) String() string {
	names := []struct {
		bit  Effect
		name string
	}{
		{EffFsync, "fsync"}, {EffDirSync, "dir-fsync"}, {EffRename, "rename"},
		{EffNetWrite, "net-write"}, {EffChanRecv, "chan-recv"},
		{EffCtxDone, "ctx-done"}, {EffSpin, "spin"}, {EffIO, "io"},
	}
	out := ""
	for _, n := range names {
		if e&n.bit != 0 {
			if out != "" {
				out += "+"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// Durable reports whether the set carries the full local durability
// sequence: data fsync, rename into place, directory fsync. A net write is
// deliberately not durable — a wire handoff's durability is the remote
// server's obligation, checked where the server emits its commit ack.
func (e Effect) Durable() bool {
	const local = EffFsync | EffDirSync | EffRename
	return e&local == local
}

// directEffect classifies one call site's own effect, independent of what
// the callee's body does.
func directEffect(info *types.Info, call *ast.CallExpr) Effect {
	obj := analysis.CalleeObj(info, call)
	if obj == nil {
		return 0
	}
	var eff Effect
	if _, ok := IOCall(info, call); ok {
		eff = EffIO
	}
	if analysis.IsPkgFunc(obj, "os", "Rename") {
		return eff | EffRename
	}
	named := analysis.RecvNamed(obj)
	if named == nil || named.Obj().Pkg() == nil {
		return eff
	}
	pkgPath := named.Obj().Pkg().Path()
	typeName := named.Obj().Name()
	switch {
	case pkgPath == "os" && typeName == "File" && obj.Name() == "Sync":
		return eff | EffFsync
	case pkgPath == "net":
		// Writes on net.Conn (and the concrete conn types) ship bytes to a
		// peer; reads and closes are not durability-relevant.
		if obj.Name() == "Write" || obj.Name() == "ReadFrom" {
			return eff | EffNetWrite
		}
	case pkgPath == "context" && typeName == "Context" && obj.Name() == "Done":
		return eff | EffCtxDone
	}
	// The storage FS shim: every implementation (OSFS, FaultFS, metered)
	// carries the contract, so the interface call itself is the effect.
	if _, isIface := named.Underlying().(*types.Interface); isIface && typeName == "FS" {
		if analysis.PathHasSuffix(pkgPath, []string{"internal/storage"}) || analysis.IsTestdataPath(pkgPath) {
			switch obj.Name() {
			case "SyncFile":
				return eff | EffFsync
			case "SyncDir":
				return eff | EffDirSync
			case "Rename":
				return eff | EffRename
			}
		}
	}
	return eff
}

// IOCall classifies a call as file or network I/O and describes it for
// diagnostics: the os file-system functions (analysis.OSFileFuncs),
// anything in net and os/exec, methods on their types, and calls through
// any FS or Store interface — the storage shims, I/O by contract.
func IOCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := analysis.CalleeObj(info, call)
	if obj == nil {
		return "", false
	}
	if analysis.IsPkgFunc(obj, "os", analysis.OSFileFuncs...) {
		return "os." + obj.Name(), true
	}
	if analysis.IsPkgFunc(obj, "net") || analysis.IsPkgFunc(obj, "os/exec") {
		return "net/exec call " + obj.Name(), true
	}
	named := analysis.RecvNamed(obj)
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	switch named.Obj().Pkg().Path() {
	case "os", "net", "os/exec":
		return named.Obj().Name() + "." + obj.Name(), true
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		switch named.Obj().Name() {
		case "FS", "Store":
			return named.Obj().Name() + "." + obj.Name(), true
		}
	}
	return "", false
}

// syntaxEffects derives the effects visible in the body's syntax alone:
// channel receives, selects, and unexitable spin loops.
func syntaxEffects(body *ast.BlockStmt) Effect {
	var eff Effect
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				eff |= EffChanRecv
			}
		case *ast.SelectStmt:
			eff |= EffChanRecv
		case *ast.RangeStmt:
			// Conservatively count every range as a potential channel
			// receive; ranges over slices terminate anyway.
			eff |= EffChanRecv
		case *ast.ForStmt:
			if n.Cond == nil && !forEscapes(n) {
				eff |= EffSpin
			}
		}
		return true
	})
	return eff
}

// forEscapes reports whether an infinite `for` loop has any way out or any
// channel operation that a shutdown could unblock: return, goto, panic, a
// break binding to this loop, a select, or a receive.
func forEscapes(loop *ast.ForStmt) bool {
	// Breakable constructs strictly inside the loop capture unlabeled
	// breaks, so those breaks do not exit this loop.
	var inner []ast.Node
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			inner = append(inner, n)
		}
		return true
	})
	capturedBreak := func(pos token.Pos) bool {
		for _, c := range inner {
			if pos > c.Pos() && pos < c.End() {
				return true
			}
		}
		return false
	}
	escapes := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's returns and receives are its own, not the loop's.
			return false
		case *ast.ReturnStmt, *ast.SelectStmt:
			escapes = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				escapes = true
			}
		case *ast.BranchStmt:
			switch n.Tok {
			case token.BREAK:
				if n.Label != nil || !capturedBreak(n.Pos()) {
					escapes = true
				}
			case token.GOTO:
				escapes = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

// effectFixpoint propagates Direct effects bottom-up until stable:
// Summary(f) = Direct(f) ∪ ⋃ Summary(callees of f).
func (p *Program) effectFixpoint() {
	funcs := p.DeclOrder()
	for _, fi := range funcs {
		fi.Summary = fi.Direct
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			sum := fi.Summary
			for _, call := range fi.Calls {
				for _, tgt := range call.Targets {
					if ti, ok := p.Funcs[tgt]; ok {
						sum |= ti.Summary
					}
				}
			}
			if sum != fi.Summary {
				fi.Summary = sum
				changed = true
			}
		}
	}
}

// SummaryOf returns the transitive effect set of fn, or 0 for functions
// outside the program.
func (p *Program) SummaryOf(fn *types.Func) Effect {
	if fi, ok := p.Funcs[fn]; ok {
		return fi.Summary
	}
	return 0
}

// CallEffect returns everything a call site may do: its own direct effect
// plus the transitive summaries of every resolved target.
func (p *Program) CallEffect(info *types.Info, call Call) Effect {
	eff := directEffect(info, call.Site)
	for _, tgt := range call.Targets {
		eff |= p.SummaryOf(tgt)
	}
	return eff
}

// FuncLitEffect computes the transitive effect of running one function
// literal's body in isolation. The engine inlines closures into their
// defining declaration, which is right for "did the definer do X" checks
// but wrong for a go statement's closure — there the literal runs on its
// own goroutine and an analyzer must judge its body alone.
func (p *Program) FuncLitEffect(info *types.Info, lit *ast.FuncLit) Effect {
	eff := syntaxEffects(lit.Body)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			eff |= directEffect(info, call)
			for _, tgt := range p.resolve(info, call) {
				eff |= p.SummaryOf(tgt)
			}
		}
		return true
	})
	return eff
}
