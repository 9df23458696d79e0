// Package durableflow proves, interprocedurally, that every commit
// acknowledgement is dominated by the durability work it vouches for —
// the crash-consistency contract behind the incremental checkpoint chain:
// a checkpoint whose ack was heard must survive a crash an instant later.
//
// Two rules run over the whole program:
//
//  1. Ack ordering. An ack site — a send of nil on an error channel
//     (done <- nil), a protocol frame write whose kind constant is
//     kindPutDone (the remote server's commit reply), or a `return nil`
//     in a Store implementation's Put method (the caller's success) —
//     must be preceded, in source order within its function, by calls
//     whose transitive effect summaries add up to the durable sequence:
//     fsync + rename + dir-fsync, carried up from stageWrite and the
//     commit's SyncDir through Store.Put and the FS shim. A `return nil`
//     inside a function literal is the closure's, and is not an ack.
//
//  2. Store.Put contract. Every concrete implementation of the storage
//     Store interface must reach the durable sequence from its Put method
//     — directly, or by delegating to another Store implementation (the
//     interface call fans out to all of them). A store that buffers in
//     memory and acks violates the contract and must carry an audited
//     suppression stating why (a wire client whose durability lives on
//     the server, a deliberately volatile test store). Such a Put reports
//     once, here; its `return nil` sites are not checked again.
//
// Dedup recipe commits are covered by rule 1: the recipe encode (chunk
// bodies pinned, refs bumped) precedes the staged write, which precedes
// the ack.
//
// Both rules are source-order and path-insensitive: every call before an
// ack counts, on whichever path it runs. So an ack placed between the
// staged write and the commit's directory fsync passes (the dedup encode
// or the view listing before it carries a dir-fsync), and rule 2 only sums
// effects over the whole of Put. Catching those needs control flow.
package durableflow

import (
	"go/ast"
	"go/types"

	"aic/internal/analysis"
	"aic/internal/analysis/interproc"
)

// Analyzer is the durableflow pass.
var Analyzer = &analysis.Analyzer{
	Name:       "durableflow",
	Doc:        "commit acks must be dominated by fsync+rename+dir-fsync, interprocedurally",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := interproc.Of(pass)
	for _, fi := range prog.DeclOrder() {
		if analysis.IsTestFile(prog.Fset, fi.Decl.Pos()) {
			continue
		}
		checkAckSites(pass, prog, fi)
	}
	checkStoreContract(pass, prog)
	return nil
}

// checkAckSites finds the ack emissions in one function and requires the
// durable effects to precede each in source order.
func checkAckSites(pass *analysis.ProgramPass, prog *interproc.Program, fi *interproc.FuncInfo) {
	info := fi.Pkg.Info
	var acks []ast.Node
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if isNilErrorSend(info, n) {
				acks = append(acks, n)
			}
		case *ast.CallExpr:
			if isCommitFrameWrite(info, n) {
				acks = append(acks, n)
			}
		}
		return true
	})
	for _, ack := range acks {
		checkAck(pass, prog, fi, ack)
	}
}

// checkAck requires the calls before ack in fi, in source order, to add up
// to the durable sequence.
func checkAck(pass *analysis.ProgramPass, prog *interproc.Program, fi *interproc.FuncInfo, ack ast.Node) {
	var eff interproc.Effect
	for _, call := range fi.Calls {
		if call.Pos >= ack.Pos() {
			break
		}
		// A deferred call's effects land at return, after the ack; a
		// go-spawned call's effects are concurrent. Neither dominates.
		if call.Deferred || call.Go {
			continue
		}
		eff |= prog.CallEffect(fi.Pkg.Info, call)
	}
	if !eff.Durable() {
		what := "send of nil on an error channel"
		switch ack.(type) {
		case *ast.CallExpr:
			what = "commit-reply frame write"
		case *ast.ReturnStmt:
			what = "return nil from Put"
		}
		pass.Reportf(ack.Pos(),
			"commit ack (%s) not dominated by durable effects: saw %s before it, need fsync+rename+dir-fsync; make the commit durable before acknowledging it",
			what, eff)
	}
}

// returnNils lists the `return nil` statements of body, skipping function
// literals: a closure's return is its own, not the enclosing function's.
func returnNils(body *ast.BlockStmt) []ast.Node {
	var out []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) == 1 && isNilIdent(n.Results[0]) {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isNilErrorSend matches `ch <- nil` where ch is a chan error — a success
// ack handed to a waiting caller. Error-valued sends (failure
// notifications) do not vouch for durability and are not acks.
func isNilErrorSend(info *types.Info, send *ast.SendStmt) bool {
	if !isNilIdent(send.Value) {
		return false
	}
	t := info.TypeOf(send.Chan)
	ch, ok := t.Underlying().(*types.Chan)
	return ok && analysis.IsErrorType(ch.Elem())
}

// isCommitFrameWrite matches a frame write carrying the commit-done kind:
// any call with an argument that is the constant kindPutDone.
func isCommitFrameWrite(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		var obj types.Object
		switch a := ast.Unparen(arg).(type) {
		case *ast.Ident:
			obj = info.Uses[a]
		case *ast.SelectorExpr:
			obj = info.Uses[a.Sel]
		}
		if c, ok := obj.(*types.Const); ok && c.Name() == "kindPutDone" {
			return true
		}
	}
	return false
}

// checkStoreContract requires every Store implementation's Put to reach
// the durable sequence, and each of its `return nil` sites to follow it.
func checkStoreContract(pass *analysis.ProgramPass, prog *interproc.Program) {
	for _, iface := range storeInterfaces(prog) {
		for _, named := range prog.Implementers(iface) {
			put := prog.MethodOf(named, "Put")
			if put == nil {
				continue
			}
			fi, ok := prog.Funcs[put]
			if !ok || analysis.IsTestFile(prog.Fset, fi.Decl.Pos()) {
				continue
			}
			if !fi.Summary.Durable() {
				pass.Reportf(fi.Decl.Pos(),
					"Store implementation (*%s).Put acks without reaching durable effects (saw %s, need fsync+rename+dir-fsync); commit durably or delegate to a Store that does",
					named.Obj().Name(), fi.Summary)
				continue
			}
			for _, ret := range returnNils(fi.Decl.Body) {
				checkAck(pass, prog, fi, ret)
			}
		}
	}
}

// storeInterfaces finds the checkpoint Store contract: an interface named
// Store with a Put method, declared in internal/storage (or a fixture).
func storeInterfaces(prog *interproc.Program) []*types.Interface {
	var out []*types.Interface
	for _, pkg := range prog.Pkgs {
		if !analysis.PathHasSuffix(pkg.Path, []string{"internal/storage"}) && !analysis.IsTestdataPath(pkg.Path) {
			continue
		}
		obj := pkg.Types.Scope().Lookup("Store")
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if hasMethod(iface, "Put") {
			out = append(out, iface)
		}
	}
	return out
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
