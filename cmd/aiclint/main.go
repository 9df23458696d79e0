// Command aiclint runs the project-invariant analyzer suite over the given
// package patterns (./... by default) and exits non-zero when any
// invariant is violated. The analyzers prove, per build, the rules
// the rest of the repo can only test probabilistically:
//
//	durablefs    storage does filesystem I/O through the FS shim, and
//	             fsyncs temp files before renaming them into place
//	sentinelerr  error sentinels are compared with errors.Is, never ==
//	ctxflow      contexts are threaded from callers, not minted mid-stack
//	lockio       no file or network I/O while holding a mutex
//	detrand      simulation packages stay seed-deterministic
//	metricnames  metric registrations keep the stable, unit-suffixed
//	             snake_case surface DESIGN.md §14 documents
//	facadedoc    the facade package documents every exported symbol,
//	             leading with the symbol's name
//
// Five analyzers run over the whole program at once. Four use the
// interprocedural engine (internal/analysis/interproc) — call graph,
// effect summaries and lock sets propagated to a fixpoint across every
// loaded package — and testonly needs only the loaded type information:
//
//	durableflow  a commit ack (nil sent on an error channel, remote
//	             kindPutDone reply, `return nil` from a Store's Put) is
//	             dominated by fsync+rename+dir-fsync, and every Store
//	             implementation's Put reaches durability
//	lockorder    the global lock-acquisition-order graph is cycle-free;
//	             cycles print their acquisition chains
//	goroleak     goroutines have shutdown edges; tickers and timers are
//	             stopped; no time.After inside loops
//	atomicfield  a field accessed via sync/atomic anywhere is accessed
//	             that way everywhere (test files included)
//	testonly     an exported function or method under internal/ has a
//	             non-test use; interface methods and the ones fmt and
//	             errors call dynamically are exempt
//
// A deliberate exception is suppressed in place with a reasoned directive:
//
//	//aiclint:ignore lockio r.mu is the connection-ownership lock by design
//
// See DESIGN.md §12 and §17 for each analyzer's exact rule and
// suppression policy.
package main

import (
	"flag"
	"fmt"
	"os"

	"aic/internal/analysis"
	"aic/internal/analysis/atomicfield"
	"aic/internal/analysis/ctxflow"
	"aic/internal/analysis/detrand"
	"aic/internal/analysis/durableflow"
	"aic/internal/analysis/durablefs"
	"aic/internal/analysis/facadedoc"
	"aic/internal/analysis/goroleak"
	"aic/internal/analysis/lockio"
	"aic/internal/analysis/lockorder"
	"aic/internal/analysis/metricnames"
	"aic/internal/analysis/sentinelerr"
	"aic/internal/analysis/testonly"
)

var suite = []*analysis.Analyzer{
	atomicfield.Analyzer,
	ctxflow.Analyzer,
	detrand.Analyzer,
	durableflow.Analyzer,
	durablefs.Analyzer,
	facadedoc.Analyzer,
	goroleak.Analyzer,
	lockio.Analyzer,
	lockorder.Analyzer,
	metricnames.Analyzer,
	sentinelerr.Analyzer,
	testonly.Analyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: aiclint [packages]\n\nanalyzers:")
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aiclint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aiclint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aiclint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "aiclint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
