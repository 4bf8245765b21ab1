// Command xchain runs a single cross-chain payment scenario and prints its
// trace, the per-customer outcomes, and the property verdicts.
//
// Usage: xchain [flags]; -h lists them, each with its default. The verdicts
// are judged under the Definition of the theorem covering -protocol, and a
// -fault string is validated before anything runs (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/weaklive"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xchain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 3, "number of escrows in the chain")
		seed      = fs.Int64("seed", 1, "RNG seed")
		protoName = fs.String("protocol", "timelock", "protocol: timelock, timelock-anta, timelock-naive, weaklive, weaklive-committee, htlc")
		committee = fs.Int("committee", 4, "committee size for weaklive-committee")
		network   = fs.String("network", "sync", "network model: sync or partial")
		gst       = fs.Duration("gst", 500*time.Millisecond, "global stabilisation time for -network partial")
		patience  = fs.Duration("patience", 30*time.Second, "customer patience (weak-liveness protocols)")
		faults    = fs.String("fault", "", "comma-separated participant=behaviour pairs, e.g. c1=silent,e0=theft")
		showTrace = fs.Bool("trace", false, "print the full event trace")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "xchain: "+format+"\n", args...)
		return 2
	}
	if *n < 1 || *n > core.MaxChain {
		return fatalf("-n: need 1 to %d escrows, got %d", core.MaxChain, *n)
	}
	if *committee < 1 || *committee > core.MaxChain {
		return fatalf("-committee: need 1 to %d notaries, got %d", core.MaxChain, *committee)
	}
	if *gst < 0 {
		return fatalf("-gst: need 0 or more, got %v", *gst)
	}
	if *patience < 0 {
		return fatalf("-patience: need 0 or more, got %v", *patience)
	}

	s := core.NewScenario(*n, *seed)
	timing := s.Timing
	switch *network {
	case "sync":
		// Default network already synchronous.
	case "partial":
		s = s.WithNetwork(netsim.PartialSynchrony{GST: durToSim(*gst), Delta: timing.MaxMsgDelay, MaxPreGST: 4 * durToSim(*gst)})
	default:
		return fatalf("-network: unknown network model %q", *network)
	}
	for _, id := range s.Topology.Customers() {
		s = s.SetPatience(id, durToSim(*patience))
	}
	assignment, err := adversary.ParseAssignment(*faults, s.Topology)
	if err != nil {
		return fatalf("-fault: %v", err)
	}
	s = assignment.Apply(s)

	var (
		protocol core.Protocol
		// bound is Theorem 1's a-priori termination bound, which only the
		// timeout family derives.
		bound sim.Time
	)
	timeBounded := func(p *timelock.Protocol) { protocol, bound = p, p.ParamsFor(s).Bound }
	switch *protoName {
	case "timelock":
		timeBounded(timelock.New())
	case "timelock-anta":
		timeBounded(timelock.NewANTA())
	case "timelock-naive":
		timeBounded(timelock.NewNaive())
	case "weaklive":
		protocol = weaklive.New()
	case "weaklive-committee":
		protocol = weaklive.NewCommittee(*committee)
	case "htlc":
		protocol = htlc.New()
	default:
		return fatalf("-protocol: unknown protocol %q", *protoName)
	}
	opts := check.OptionsFor(protocol.Guarantee(), bound, durToSim(*patience))

	res, err := protocol.Run(s)
	if err != nil {
		fmt.Fprintf(stderr, "xchain: run failed: %v\n", err)
		return 1
	}

	if *showTrace {
		fmt.Fprintln(stdout, "=== trace ===")
		fmt.Fprint(stdout, res.Trace.String())
	}
	fmt.Fprintf(stdout, "=== %s: payment %s over %d escrows (seed %d) ===\n",
		protocol.Name(), s.Spec.PaymentID, s.Topology.N, s.Seed)
	fmt.Fprintf(stdout, "Bob paid: %v   all terminated: %v   duration: %v   messages: %d\n",
		res.BobPaid, res.AllTerminated, res.Duration, res.NetStats.Sent)
	fmt.Fprintln(stdout, "--- customers ---")
	for _, id := range s.Topology.Customers() {
		out := res.Outcome(id)
		fmt.Fprintf(stdout, "%-4s %-10s net=%+6d terminated=%-5v chi=%-5v commit=%-5v abort=%-5v\n",
			id, out.Role, out.NetWealthChange(), out.Terminated, out.HoldsChi, out.HoldsCommitCert, out.HoldsAbortCert)
	}
	fmt.Fprintln(stdout, "--- properties ---")
	report := check.Evaluate(res, opts)
	fmt.Fprint(stdout, report)
	if !report.AllOK() {
		return 1
	}
	return 0
}

func durToSim(d time.Duration) sim.Time { return sim.Time(d / time.Microsecond) }
