// Command xchain-bench runs the experiment suite (E1..E9, E11, A1..A3) and prints
// the tables README's "Experiments" section describes.
//
// Usage:
//
//	xchain-bench              # run every experiment at the full configuration
//	xchain-bench -quick       # smaller sweep (seconds instead of minutes)
//	xchain-bench -run E4,E9   # run a subset by ID
//	xchain-bench -runs 10 -maxchain 6
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xchain-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "use the quick (test-sized) configuration")
		runs     = fs.Int("runs", 0, "override the number of seeds per experiment cell")
		maxChain = fs.Int("maxchain", 0, fmt.Sprintf("override the largest chain length swept (at most %d)", core.MaxChain))
		workers  = fs.Int("workers", 0, "override the worker-pool size (default GOMAXPROCS)")
		only     = fs.String("run", "", "comma-separated experiment IDs to run (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "xchain-bench: "+format+"\n", args...)
		return 2
	}
	// A negative count, or a chain longer than any input may ask for, is
	// refused before anything runs; 0 keeps the configuration's value.
	switch {
	case *runs < 0:
		return fail("-runs: need a non-negative count, got %d", *runs)
	case *workers < 0:
		return fail("-workers: need a non-negative count, got %d", *workers)
	case *maxChain < 0 || *maxChain > core.MaxChain:
		return fail("-maxchain: need 0 to %d escrows, got %d", core.MaxChain, *maxChain)
	}

	cfg := bench.Full()
	if *quick {
		cfg = bench.Quick()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *maxChain > 0 {
		cfg.MaxChain = *maxChain
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}

	experiments := bench.All()
	if *only != "" {
		var selected []bench.Experiment
		for _, id := range strings.Split(*only, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fail("-run: unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
		experiments = selected
	}

	fmt.Fprintf(stdout, "configuration: runs=%d maxchain=%d\n\n", cfg.Runs, cfg.MaxChain)
	for _, e := range experiments {
		start := time.Now()
		tab := e.Run(cfg)
		elapsed := time.Since(start)
		fmt.Fprint(stdout, tab.String())
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	return 0
}
