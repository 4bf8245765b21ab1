// Command xchain-fuzz is the property-based scenario fuzzer: it generates
// random protocol scenarios from consecutive seeds, runs each through the
// Definition-1/2 property checkers, and asserts the theorem-shaped oracles
// of internal/scenariogen — conforming scenarios may violate nothing,
// envelope-violating ones must keep safety while (re)discovering the
// Theorem-2 liveness/termination failures.
//
// Any oracle violation is a bug: the command prints the scenario, optionally
// shrinks it to a minimal reproducer (-shrink) and saves a replay file that
// re-executes byte-identically (-out), and ends the report with the last
// events of the (shrunk) scenario's trace — campaigns run muted, so that
// trace comes from one recorded rerun. With no violations, -shrink instead
// minimises the first Theorem-2 counterexample found, turning the
// impossibility result into a small committed artefact.
//
//	xchain-fuzz -seeds 10000                  # the fuzzing campaign
//	xchain-fuzz -seeds 500 -require-theorem2  # CI smoke: must rediscover Thm 2
//	xchain-fuzz -replay testdata/x.json       # re-run a saved counterexample
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scenariogen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xchain-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds     = fs.Int("seeds", 1000, "number of consecutive seeds to fuzz")
		start     = fs.Int64("start", 0, "first seed")
		workers   = fs.Int("workers", 0, "parallel workers (0 = NumCPU)")
		families  = fs.String("families", "", "comma-separated family filter (e.g. timelock,differential)")
		shrink    = fs.Bool("shrink", false, "shrink failures (or the first Theorem-2 counterexample) to minimal replayable scenarios")
		outDir    = fs.String("out", "fuzz-failures", "directory for shrunk replay files")
		replay    = fs.String("replay", "", "verify a saved replay file instead of fuzzing")
		seedOnly  = fs.Int64("print-seed", 0, "print the scenario generated from this seed and exit")
		requireT2 = fs.Bool("require-theorem2", false, "exit non-zero unless a Theorem-2 violation is rediscovered")
		crypto    = fs.String("crypto", "", "signature backend for every run: ed25519 (default), hmac (same verdicts, cheaper campaigns)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	opts := scenariogen.Options{Seeds: *seeds, StartSeed: *start, Workers: *workers, Crypto: *crypto}
	for _, name := range strings.Split(*families, ",") {
		if name = strings.TrimSpace(name); name != "" {
			opts.Families = append(opts.Families, scenariogen.Family(name))
		}
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "-%v\n", err) // Validate names the option as its flag does
		return 2
	}
	if *replay != "" {
		return runReplay(*replay, stdout, stderr)
	}
	// Native fuzzing mutates seeds across the whole int64 range, so any
	// value (including negatives) must be printable: detect the flag being
	// set rather than reserving a sentinel value.
	printSeed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "print-seed" {
			printSeed = true
		}
	})
	if printSeed {
		sp := scenariogen.Generate(*seedOnly)
		fmt.Fprintf(stdout, "%s\nclass=%s\n%s\n", sp.Describe(), sp.Class(), sp.MarshalIndent())
		return 0
	}

	st := scenariogen.Fuzz(opts)
	fmt.Fprint(stdout, st)

	failed := false
	if !st.Clean() {
		failed = true
		for _, o := range st.Violations {
			fmt.Fprintf(stdout, "\nVIOLATION seed=%d: %s\n", o.Spec.Seed, o.Spec.Describe())
			for _, v := range o.Violations {
				fmt.Fprintf(stdout, "  %s\n", v)
			}
			sp := o.Spec
			if *shrink {
				sp = shrinkAndSave(stdout, stderr, o, scenariogen.KeepViolation(o.Violations[0]),
					fmt.Sprintf("shrunk from seed %d: %s", o.Spec.Seed, o.Violations[0]), *outDir,
					fmt.Sprintf("violation-seed%d.json", o.Spec.Seed))
			}
			printTraceTail(stdout, sp)
		}
	}
	if st.FirstTheorem2 != nil {
		o := st.FirstTheorem2
		fmt.Fprintf(stdout, "\nfirst Theorem-2 counterexample: seed=%d %s\n  violated: %v\n",
			o.Spec.Seed, o.Spec.Describe(), o.ExpectedFailures)
		if *shrink && st.Clean() {
			// A Theorem-2 counterexample's expected failures are all defeatable
			// properties, in canonical order — termination first if defeated.
			prop := o.ExpectedFailures[0]
			shrinkAndSave(stdout, stderr, o, scenariogen.KeepExpectedFailure(prop),
				fmt.Sprintf("Theorem-2 counterexample shrunk from seed %d (property %s)", o.Spec.Seed, prop), *outDir,
				fmt.Sprintf("theorem2-seed%d.json", o.Spec.Seed))
		}
	} else if *requireT2 {
		fmt.Fprintln(stdout, "\nNO THEOREM-2 VIOLATION REDISCOVERED: the envelope-violating class defeated no property of Definition 1")
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// shrinkAndSave minimises the outcome's scenario, writes a replay file and
// returns the minimal spec.
func shrinkAndSave(stdout, stderr io.Writer, o *scenariogen.Outcome, keep scenariogen.Keep, note, dir, name string) scenariogen.Spec {
	res := scenariogen.Shrink(o.Spec, keep, 0)
	fmt.Fprintf(stdout, "  shrunk (%d reductions in %d tries): %s\n", res.Accepted, res.Tried, res.Spec.Describe())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "cannot create %s: %v\n", dir, err)
		return res.Spec
	}
	path := filepath.Join(dir, name)
	r := scenariogen.NewReplay(res.Outcome, note)
	if err := r.Save(path); err != nil {
		fmt.Fprintf(stderr, "cannot save replay: %v\n", err)
		return res.Spec
	}
	fmt.Fprintf(stdout, "  replay saved: %s (re-run with -replay %s)\n", path, path)
	return res.Spec
}

// traceTail is how many of a run's last trace events a VIOLATION block shows.
const traceTail = 40

// printTraceTail reruns the spec recorded (a run is a pure function of its
// spec, so this is the run the campaign judged muted) and prints the end of
// its trace.
func printTraceTail(w io.Writer, sp scenariogen.Spec) {
	tr, err := scenariogen.Trace(sp)
	if err != nil {
		fmt.Fprintf(w, "  no trace: %v\n", err)
		return
	}
	evs := tr.Events()
	tail := evs[max(0, len(evs)-traceTail):]
	fmt.Fprintf(w, "  trace of a recorded rerun, last %d of %d events:\n", len(tail), len(evs))
	for _, ev := range tail {
		fmt.Fprintf(w, "    %s\n", ev)
	}
}

// runReplay verifies a saved counterexample.
func runReplay(path string, stdout, stderr io.Writer) int {
	r, err := scenariogen.LoadReplay(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "replaying %s\n  %s\n", path, r.Spec.Describe())
	if r.Note != "" {
		fmt.Fprintf(stdout, "  note: %s\n", r.Note)
	}
	if err := r.Verify(); err != nil {
		fmt.Fprintf(stdout, "REPLAY DIVERGED: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "reproduced: class=%s protocol=%s violated=%v theorem2=%v\n",
		r.Expect.Class, r.Expect.Protocol, r.Expect.Violated, r.Expect.Theorem2)
	return 0
}
