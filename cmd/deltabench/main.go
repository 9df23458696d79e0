// Command deltabench runs the compression-focused experiments: the Fig. 2
// delta-dynamics study, the Table 3 compressor characterization, and the
// compressor ablation (Xdelta3-PA vs whole-file Xdelta3 vs XOR+RLE).
//
// Encode/decode throughput and allocations of the page-aligned pipeline are
// Go benchmarks: go test -run '^$' -bench 'PageAligned|EncodeAllocs' -benchmem .
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aic/internal/exp"
)

func main() {
	experiment := flag.String("experiment", "all", "fig2 | table3 | ablation | all")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (fig2/ablation)")
	flag.Parse()

	var subset []string
	if *benches != "" {
		subset = strings.Split(*benches, ",")
	}

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "deltabench:", err)
		os.Exit(1)
	}

	run := map[string]bool{}
	if *experiment == "all" {
		run["fig2"], run["table3"], run["ablation"] = true, true, true
	} else {
		run[*experiment] = true
	}
	if run["fig2"] {
		series, err := exp.Fig2(*seed, subset...)
		if err != nil {
			die(err)
		}
		fmt.Print(exp.RenderFig2(series))
		fmt.Println()
	}
	if run["table3"] {
		rows, err := exp.Table3(*seed)
		if err != nil {
			die(err)
		}
		fmt.Print(exp.RenderTable3(rows))
		fmt.Println()
	}
	if run["ablation"] {
		rows, err := exp.AblationCompressor(*seed, subset...)
		if err != nil {
			die(err)
		}
		fmt.Print(exp.RenderAblations(rows, nil, nil))
	}
	if !run["fig2"] && !run["table3"] && !run["ablation"] {
		die(fmt.Errorf("unknown experiment %q", *experiment))
	}
}
