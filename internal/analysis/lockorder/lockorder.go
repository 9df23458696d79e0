// Package lockorder builds the program's global lock-acquisition-order
// graph and reports any cycle as a potential deadlock, with the full
// acquisition chain. The compactor, the store's per-chain commits, the
// rebalancer and the metrics registry all take locks while calling across
// package boundaries; a cycle between any two of those orders is a deadlock
// waiting for the right interleaving, which no finite soak run can prove
// absent — the graph can.
//
// Locks are identified by declaration (every FSStore.mu is one node),
// the conservative abstraction for order graphs. Within one function the
// held set is simulated in source order with deferred unlocks pinned to
// the end, exactly as lockio does; an edge A→B is recorded when B is
// acquired — directly, or anywhere inside a callee, resolved through the
// engine's call graph including interface fan-out — while A is held.
// Acquisitions inside go statements are concurrent with the spawner, and
// deferred calls run while the held set unwinds; neither establishes an
// order, so both are excluded. Self-edges (re-acquiring the same
// declaration) are also excluded: instances of one field lock legally
// nest in instance order the abstraction cannot see.
package lockorder

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"aic/internal/analysis"
	"aic/internal/analysis/interproc"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "the global lock-acquisition-order graph must be cycle-free",
	RunProgram: run,
}

// edge is one observed acquisition order with a witness for diagnostics.
type edge struct {
	from, to string
	pos      token.Pos // where `to` was acquired (or the call leading to it)
	fn       string    // function doing the acquiring
	via      []string  // callee chain when the acquisition is indirect
}

func run(pass *analysis.ProgramPass) error {
	prog := interproc.Of(pass)
	edges := map[[2]string]edge{}
	var order [][2]string

	funcs := make([]*interproc.FuncInfo, 0, len(prog.Funcs))
	for _, fi := range prog.Funcs {
		funcs = append(funcs, fi)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Obj.Pos() < funcs[j].Obj.Pos() })

	for _, fi := range funcs {
		if analysis.IsTestFile(prog.Fset, fi.Decl.Pos()) {
			continue
		}
		collectEdges(prog, fi, func(e edge) {
			key := [2]string{e.from, e.to}
			if _, seen := edges[key]; !seen {
				edges[key] = e
				order = append(order, key)
			}
		})
	}
	for _, cyc := range cycles(edges, order) {
		report(pass, prog.Fset, cyc)
	}
	return nil
}

// collectEdges simulates one function's held set in source order.
func collectEdges(prog *interproc.Program, fi *interproc.FuncInfo, emit func(edge)) {
	info := fi.Pkg.Info
	held := map[string]bool{}
	pinned := map[string]bool{}
	var heldOrder []string // acquisition order, for deterministic edge emission

	heldLocks := func() []string {
		out := make([]string, 0, len(held))
		for _, id := range heldOrder {
			if held[id] {
				out = append(out, id)
			}
		}
		return out
	}

	for _, call := range fi.Calls {
		if call.Go {
			continue
		}
		if op, ok := interproc.MutexOp(info, call.Site); ok {
			switch op.Op {
			case "Lock", "RLock":
				if call.Deferred {
					continue
				}
				for _, h := range heldLocks() {
					if h != op.ID {
						emit(edge{from: h, to: op.ID, pos: call.Pos, fn: interproc.FuncName(fi.Obj)})
					}
				}
				if !held[op.ID] {
					held[op.ID] = true
					heldOrder = append(heldOrder, op.ID)
				}
			case "Unlock", "RUnlock":
				if call.Deferred {
					pinned[op.ID] = true
					continue
				}
				if !pinned[op.ID] {
					delete(held, op.ID)
				}
			}
			continue
		}
		if call.Deferred || len(call.Targets) == 0 || len(held) == 0 {
			continue
		}
		for _, tgt := range call.Targets {
			ti, ok := prog.Funcs[tgt]
			if !ok {
				continue
			}
			ids := make([]string, 0, len(ti.Acquires))
			for id := range ti.Acquires {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				w := ti.Acquires[id]
				for _, h := range heldLocks() {
					if h == id {
						continue
					}
					via := append([]string{interproc.FuncName(tgt)}, w.Via...)
					emit(edge{from: h, to: id, pos: call.Pos, fn: interproc.FuncName(fi.Obj), via: via})
				}
			}
		}
	}
}

// cycles finds every elementary acquisition-order cycle, deduplicated by
// canonical rotation, in deterministic order.
func cycles(edges map[[2]string]edge, order [][2]string) [][]edge {
	succ := map[string][]string{}
	for _, key := range order {
		succ[key[0]] = append(succ[key[0]], key[1])
	}
	for _, next := range succ {
		sort.Strings(next)
	}
	nodes := make([]string, 0, len(succ))
	for n := range succ {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	seen := map[string]bool{}
	var out [][]edge
	var stack []string
	onStack := map[string]bool{}

	var dfs func(n string)
	dfs = func(n string) {
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range succ[n] {
			if onStack[m] {
				// Cycle: the stack suffix from m to n, closing back to m.
				i := 0
				for stack[i] != m {
					i++
				}
				cyc := canonical(stack[i:])
				key := strings.Join(cyc, "→")
				if !seen[key] {
					seen[key] = true
					var es []edge
					for k := 0; k < len(cyc); k++ {
						es = append(es, edges[[2]string{cyc[k], cyc[(k+1)%len(cyc)]}])
					}
					out = append(out, es)
				}
				continue
			}
			dfs(m)
		}
		stack = stack[:len(stack)-1]
		onStack[n] = false
	}
	for _, n := range nodes {
		dfs(n)
	}
	return out
}

// canonical rotates a cycle's node list so the smallest lock ID leads,
// giving each cycle one stable identity.
func canonical(cyc []string) []string {
	min := 0
	for i := range cyc {
		if cyc[i] < cyc[min] {
			min = i
		}
	}
	out := make([]string, 0, len(cyc))
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	return out
}

func report(pass *analysis.ProgramPass, fset *token.FileSet, cyc []edge) {
	ring := make([]string, 0, len(cyc)+1)
	for _, e := range cyc {
		ring = append(ring, e.from)
	}
	ring = append(ring, cyc[0].from)
	var steps []string
	for _, e := range cyc {
		p := fset.Position(e.pos)
		step := fmt.Sprintf("%s acquired while %s held (%s:%d in %s",
			e.to, e.from, filepath.Base(p.Filename), p.Line, e.fn)
		if len(e.via) > 0 {
			step += " via " + strings.Join(e.via, " → ")
		}
		step += ")"
		steps = append(steps, step)
	}
	pass.Reportf(cyc[0].pos,
		"potential deadlock: lock-order cycle %s: %s; acquire these locks in one global order",
		strings.Join(ring, " → "), strings.Join(steps, "; "))
}
