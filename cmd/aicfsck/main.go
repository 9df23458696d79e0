// Command aicfsck is the checkpoint-store consistency checker: it scrubs a
// checkpoint store, cross-checking each process's committed chain against
// its on-disk files and per-frame CRCs, optionally repairing the
// disagreements, and optionally proving each chain still restores via the
// last-good-prefix path.
//
// The store may be a local CheckpointDir/FSStore root (-dir) or a running
// aicd replication peer (-peer host:port); every check runs through the
// same storage.Store contract, so the two forms behave identically — a
// peer's scrub simply executes on the peer, against its own durable state.
//
// Exit status follows fsck convention: 0 = every chain clean (or repaired
// cleanly), 1 = inconsistencies found and left in place (run with -repair),
// 2 = a chain has no restorable prefix at all, 3 = operational error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aic/internal/recovery"
	"aic/internal/remote"
	"aic/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit: args are the command-line
// arguments after the program name, output goes to stdout/stderr, and the
// fsck exit status is returned instead of passed to os.Exit, so tests can
// drive every exit path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("aicfsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	dir := fl.String("dir", "", "checkpoint store root (this or -peer is required)")
	peer := fl.String("peer", "", "check a running aicd peer at host:port instead of a local directory")
	proc := fl.String("proc", "", "check a single process (default: all)")
	repair := fl.Bool("repair", false, "repair chains: drop dead entries, delete corrupt/orphaned files and stray temp or old manifest files")
	restoreCheck := fl.Bool("restore-check", false, "additionally replay each chain's newest intact prefix and report what a restore would discard")
	timeout := fl.Duration("timeout", time.Minute, "overall deadline for peer operations")
	if err := fl.Parse(args); err != nil {
		return 3
	}

	var store storage.Store
	switch {
	case *dir != "" && *peer != "":
		fmt.Fprintln(stderr, "aicfsck: -dir and -peer are mutually exclusive")
		return 3
	case *peer != "":
		rs := remote.NewStore(*peer, remote.Config{})
		defer rs.Close()
		store = rs
	case *dir != "":
		if _, err := os.Stat(*dir); err != nil {
			fmt.Fprintln(stderr, "aicfsck:", err)
			return 3
		}
		fs, err := storage.NewFSStore(*dir, storage.Target{Name: "fsck"})
		if err != nil {
			fmt.Fprintln(stderr, "aicfsck:", err)
			return 3
		}
		store = fs
	default:
		fmt.Fprintln(stderr, "aicfsck: -dir or -peer is required")
		return 3
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	procs := []string{*proc}
	if *proc == "" {
		var err error
		procs, err = store.List(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "aicfsck:", err)
			return 3
		}
		if len(procs) == 0 {
			fmt.Fprintln(stdout, "aicfsck: empty store")
			return 0
		}
	}

	status := 0
	worse := func(s int) {
		if s > status {
			status = s
		}
	}
	for _, p := range procs {
		rep, err := store.Scrub(ctx, p, *repair)
		if err != nil {
			fmt.Fprintf(stderr, "aicfsck: %s: %v\n", p, err)
			worse(3)
			continue
		}
		fmt.Fprintln(stdout, rep)
		if !rep.Clean() && !rep.Repaired {
			worse(1)
		}
		if !*restoreCheck {
			continue
		}
		chain, missing, err := store.Get(ctx, p)
		if err != nil || len(chain) == 0 {
			fmt.Fprintf(stdout, "%s: restore-check: no readable chain (%v)\n", p, err)
			worse(2)
			continue
		}
		_, good, err := recovery.RestoreLatestGood(chain)
		if err != nil {
			fmt.Fprintf(stdout, "%s: restore-check: UNRESTORABLE: %v\n", p, err)
			worse(2)
			continue
		}
		fmt.Fprintf(stdout, "%s: restore-check: ok anchor=%d last=%d replayed=%d discarded=%v missing=%v\n",
			p, good.AnchorSeq, good.LastSeq, len(good.Restored), good.Discarded, missing)
	}
	return status
}
