// Command xchain runs a single cross-chain payment scenario and prints its
// trace, the per-customer outcomes, and the property verdicts.
//
// Usage: xchain [flags]; -h lists them, each with its default. The flags
// decode into one scenariogen.Spec, which Spec.Validate judges before
// anything runs (exit 2, naming the flag). The verdicts are judged under the
// Definition of the theorem covering -protocol.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/scenariogen"
	"repro/internal/sim"
	"repro/internal/timelock"
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
	refuse := func(flag string, err error) int {
		fmt.Fprintf(stderr, "xchain: %s: %v\n", flag, err)
		return 2
	}
	sp := scenariogen.NewSpec(scenariogen.Family(*protoName), *n, *seed)
	if !sp.Family.SinglePayment() {
		return refuse("-protocol", fmt.Errorf("unknown protocol %q", *protoName))
	}
	// A spec's committee of 0 is the default 4; the flag's is nobody.
	if *committee == 0 {
		return refuse("-committee", errors.New("need 1 or more notaries, got 0"))
	}
	sp.CommitteeSize = *committee
	kind, ok := networks[*network]
	if !ok {
		return refuse("-network", fmt.Errorf("unknown network model %q", *network))
	}
	// -gst is judged under either network, as it always was; every customer
	// waits -patience (up to the chain bound: Validate refuses a longer -n).
	g := sim.Time(gst.Microseconds())
	sp.Net.Kind, sp.Net.GST, sp.Net.MaxPreGST = kind, g, 4*g
	sp.PatienceFloor = sim.Time(patience.Microseconds())
	sp.Patience = map[string]sim.Time{}
	for i := 0; i <= min(*n, core.MaxChain); i++ {
		sp.Patience[core.CustomerID(i)] = sp.PatienceFloor
	}
	var err error
	if sp.Faults, err = scenariogen.ParseFaults(*faults); err != nil {
		return refuse("-fault", err)
	}
	// Validate is a single-payment spec's only refusal, and it runs one protocol.
	s, err := sp.Scenario()
	if err != nil {
		fe := err.(*scenariogen.FieldError)
		return refuse(flagOf[fe.Field], fe.Err)
	}
	protos, _ := sp.Protocols()
	protocol := protos[0]
	// bound is Theorem 1's a-priori termination bound, which only the
	// timeout family derives.
	var bound sim.Time
	if tl, ok := protocol.(*timelock.Protocol); ok {
		bound = tl.ParamsFor(s).Bound
	}
	opts := check.OptionsFor(protocol.Guarantee(), bound, sp.PatienceFloor)

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

// networks maps -network's values to the spec's delay models.
var networks = map[string]scenariogen.NetworkKind{"sync": scenariogen.NetSynchronous, "partial": scenariogen.NetPartial}

// flagOf names the flag behind each spec field xchain sets.
var flagOf = map[string]string{
	"n": "-n", "committeeSize": "-committee", "net.gst": "-gst", "net.maxPreGST": "-gst",
	"patience": "-patience", "patienceFloor": "-patience", "faults": "-fault",
}
