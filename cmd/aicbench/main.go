// Command aicbench regenerates the paper's tables and figures.
//
// Usage:
//
//	aicbench -experiment all            # every table and figure
//	aicbench -experiment fig11 -seed 7  # one experiment, custom seed
//	aicbench -experiment fig7 -format csv
//
// Experiments: fig2, fig5, fig6, fig7, fig11, fig12, table1, table3,
// ablations, extensions, studies. All but the last three have a CSV form;
// -format csv with -experiment all runs the ones that do.
//
// Performance is measured elsewhere: `bash bench/run.sh` for the end-to-end
// and per-layer numbers, `go test -bench` for the codec microbenchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aic"
	"aic/internal/exp"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run (all or one of: "+strings.Join(aic.Experiments(), " ")+")")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	format := flag.String("format", "text", "text | csv (csv supports the figure/table experiments)")
	flag.Parse()

	csv := *format == "csv"
	names := []string{*experiment}
	if *experiment == "all" {
		names = nil
		for _, e := range exp.Experiments {
			if !csv || e.CSV != nil {
				names = append(names, e.Name)
			}
		}
	}
	for _, name := range names {
		start := time.Now()
		var o string
		var err error
		if csv {
			o, err = exp.CSV(name, *seed)
		} else {
			o, err = aic.RunExperiment(name, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aicbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(o)
		if !csv {
			fmt.Printf("[%s finished in %.1fs]\n\n", name, time.Since(start).Seconds())
		}
	}
}
