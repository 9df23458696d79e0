// Package lockio flags file and network I/O performed while a sync.Mutex
// or sync.RWMutex is provably held — the bug class where a state lock
// serializes every peer behind one disk read or dark-peer timeout. It runs
// on the interprocedural engine: interproc.WalkHeld replays each
// function's held set in source order, and a call inside a held region is
// reported when it is I/O itself (interproc.IOCall) or when a callee it
// may reach performs I/O (the EffIO summary bit), so I/O one helper below
// the lock is caught where the lock is held. A goroutine spawned under the
// lock does not hold it, so calls under go are not checked; calls through
// function values stay opaque, as everywhere in the engine.
package lockio

import (
	"aic/internal/analysis"
	"aic/internal/analysis/interproc"
)

// Analyzer is the lockio pass.
var Analyzer = &analysis.Analyzer{
	Name:       "lockio",
	Doc:        "do not perform file or network I/O while holding a mutex",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := interproc.Of(pass)
	for _, fi := range prog.DeclOrder() {
		if analysis.IsTestFile(prog.Fset, fi.Decl.Pos()) {
			continue
		}
		info := fi.Pkg.Info
		interproc.WalkHeld(fi, func(call interproc.Call, _ interproc.LockOp, held []interproc.LockOp) {
			if desc, ok := interproc.IOCall(info, call.Site); ok {
				pass.Reportf(call.Pos, "%s while %s is held; move the I/O outside the critical section", desc, held[0].Expr)
				return
			}
			for _, tgt := range call.Targets {
				if prog.SummaryOf(tgt)&interproc.EffIO != 0 {
					pass.Reportf(call.Pos, "%s does I/O while %s is held; move the I/O outside the critical section", interproc.FuncName(tgt), held[0].Expr)
					return
				}
			}
		})
	}
	return nil
}
