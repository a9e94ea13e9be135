// Command experiments regenerates the paper's tables and figures. With no
// flags it lists available experiments; -run executes one (or "all").
//
//	experiments -run E0            # Sec. 2 motivation test, quick scale
//	experiments -run fig8 -full    # report-quality durations
//	experiments -run all -seed 7
//	experiments -run fig8 -trace traces/   # per-point NDJSON decision traces
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iorchestra/internal/experiments"
)

func main() {
	run := flag.String("run", "", "experiment id to run, or 'all'")
	full := flag.Bool("full", false, "report-quality durations (slower)")
	seed := flag.Uint64("seed", 42, "experiment seed")
	traceDir := flag.String("trace", "", "write per-point NDJSON decision traces and metrics summaries into this directory (see cmd/iorchestra-trace)")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		experiments.SetTraceDir(*traceDir)
	}

	if *run == "" {
		fmt.Println("Available experiments (use -run <id> or -run all):")
		for _, r := range experiments.Runners() {
			fmt.Printf("  %-8s %s\n", r.ID, r.Describe)
		}
		return
	}

	var selected []experiments.Runner
	if *run == "all" {
		for _, r := range experiments.Runners() {
			if r.AliasOf == "" {
				selected = append(selected, r)
			}
		}
	} else if r := experiments.Lookup(*run); r != nil {
		selected = []experiments.Runner{*r}
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(1)
	}

	for _, r := range selected {
		// Elapsed-time reporting goes through the injectable clock so this
		// binary stays clean under the determinism rule: nothing here
		// may read the wall clock directly.
		sw := experiments.StartStopwatch()
		fmt.Printf("--- %s (%s scale, seed %d): %s\n", r.ID, scale, *seed, r.Describe)
		for _, t := range r.Run(scale, *seed).Tables() {
			fmt.Println(t.Format())
		}
		fmt.Printf("    [%s elapsed]\n\n", sw.Elapsed().Round(time.Millisecond))
	}
}
