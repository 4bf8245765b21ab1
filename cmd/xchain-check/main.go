// Command xchain-check runs the safety audits and the Theorem-2
// impossibility exploration: it sweeps Byzantine fault assignments against
// the time-bounded protocol under synchrony (expecting no violations), and
// searches adversarial partial-synchrony schedules against the
// timeout-protocol family (expecting every candidate to break somewhere).
//
// The command exits non-zero if either half fails to reproduce the paper's
// claim, which makes it usable as a CI gate for the reproduction.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/timelock"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xchain-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n     = fs.Int("n", 3, "chain length for the safety audit")
		seeds = fs.Int("seeds", 5, "seeds per fault assignment")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "xchain-check: -n: need at least one escrow, got %d\n", *n)
		return 2
	}
	failed := false

	fmt.Fprintf(stdout, "=== safety audit: Definition 1 under synchrony, every single- and pair-fault assignment (n=%d) ===\n", *n)
	p := timelock.New()
	summary := check.NewSummary()
	assignments := adversary.SingleFaultAssignments(core.NewTopology(*n))
	assignments = append(assignments, adversary.PairFaultAssignments(core.NewTopology(*n))...)
	for _, a := range assignments {
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			s := a.Apply(core.NewScenario(*n, seed)).Muted()
			res, err := p.Run(s)
			if err != nil {
				fmt.Fprintf(stderr, "run error (%s): %v\n", a.Describe(), err)
				failed = true
				continue
			}
			summary.Add(check.Evaluate(res, check.Def1TimeBounded(p.ParamsFor(s).Bound)))
		}
	}
	fmt.Fprint(stdout, summary.String())
	if summary.Clean() {
		fmt.Fprintf(stdout, "clean: no property violated across %d runs\n\n", summary.Total)
	} else {
		fmt.Fprintf(stdout, "VIOLATIONS: %v (examples: %v)\n\n", summary.ViolatedProperties(), summary.FailureExamples)
		failed = true
	}

	fmt.Fprintln(stdout, "=== impossibility exploration: Theorem 2 under partial synchrony ===")
	opts := explore.DefaultOptions()
	opts.N = *n
	findings := explore.SearchImpossibility(opts)
	for _, f := range findings {
		props := make([]string, 0, len(f.Violated))
		for _, pr := range f.Violated {
			props = append(props, string(pr))
		}
		label := strings.Join(props, ",")
		if label == "" {
			label = "(survived)"
		}
		fmt.Fprintf(stdout, "%-20s vs %-20s -> %s\n", f.Candidate, f.Attack, label)
	}
	if err := explore.VerifyTheorem2(findings); err != nil {
		fmt.Fprintf(stdout, "THEOREM 2 NOT REPRODUCED: %v\n", err)
		failed = true
	} else {
		fmt.Fprintln(stdout, "reproduced: every candidate protocol fails Definition 1 under some partial-synchrony attack")
	}
	control, err := explore.ControlUnderSynchrony(opts)
	if err != nil {
		fmt.Fprintf(stderr, "control error: %v\n", err)
		failed = true
	} else {
		// Report in sorted candidate order: map iteration would print
		// failures in a different order on every run.
		cands := make([]string, 0, len(control))
		for cand := range control {
			cands = append(cands, cand)
		}
		sort.Strings(cands)
		for _, cand := range cands {
			if !control[cand] {
				fmt.Fprintf(stdout, "control FAILED: %s violates Definition 1 even under synchrony\n", cand)
				failed = true
			}
		}
	}

	if failed {
		return 1
	}
	return 0
}
