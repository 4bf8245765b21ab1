// Command xchain-bench runs the experiment suite (E1..E9, E11, A1..A3) and prints
// the tables README's "Experiments" section describes. It exits 1 if a claim
// of any table fails.
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
	cfg := bench.Full()
	if *quick {
		cfg = bench.Quick()
	}
	// A flag's 0 keeps the configuration's value.
	if *runs != 0 {
		cfg.Runs = *runs
	}
	if *maxChain != 0 {
		cfg.MaxChain = *maxChain
	}
	if err := cfg.Validate(); err != nil {
		return fail("-%v", err) // Validate names the field as its flag does
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
	code := 0
	for _, e := range experiments {
		start := time.Now()
		tab := e.Run(cfg)
		elapsed := time.Since(start)
		fmt.Fprint(stdout, tab.String())
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		if !tab.OK() {
			code = 1 // the table's FAILS lines name the claims
		}
	}
	return code
}
