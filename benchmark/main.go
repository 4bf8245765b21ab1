// Command benchmark is the repository's one benchmark: six named workloads
// through the public entry points (traffic.RunWith, scenariogen.Fuzz), five
// end-to-end metrics and an outside-in per-layer trace. BENCHMARK.json at
// the repository root names everything it emits; README.md explains it.
//
// The driver protocol is one run per invocation:
//
//	go run -C benchmark . --workload open_hmac --seed 42 --seconds 10 --trace 0
//
// which prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). The human-readable report
// goes to standard error. Other modes: -list, -selfcheck, -write.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (see -list)")
		seed      = fs.Int64("seed", 42, "workload seed; use 7 as the held-out seed for claims")
		seconds   = fs.Float64("seconds", runSeconds, "how long the timed batches measure")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		traceOut  = fs.String("trace-out", "", "Chrome trace-event file of a traced run (default .trace/<workload>.json)")
		list      = fs.Bool("list", false, "print the workloads and metrics and exit")
		selfcheck = fs.Bool("selfcheck", false, "run the suite twice on this binary (A/A) and compare against the bounds")
		write     = fs.Bool("write", false, "run the suite once, write BASELINE.json and regenerate ../BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	switch {
	case *list:
		printCatalogue(stdout)
		return 0
	case *selfcheck:
		return selfCheck(*seed, *seconds, stdout, stderr)
	case *write:
		return writeBaseline(*seed, *seconds, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (see -list)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	var r result
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".trace", w.Name+".json")
		}
		r = runTraced(w, *seed, fullSize(w), out, stderr)
	} else {
		r = runTimed(w, *seed, *seconds, w.Ops, stderr)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-20s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0, median over the timed batches):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %-6s %-6s is better, bound %2.0f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1; * = exact, must repeat to the last digit):")
	for _, m := range perLayer {
		exact := " "
		if m.Exact {
			exact = "*"
		}
		fmt.Fprintf(w, " %s%-42s %-6s %-6s is better  %s\n", exact, m.Name, m.Unit, m.Better, m.Doc)
	}
}
