// Weak liveness under partial synchrony: the Theorem-3 protocol with a
// BFT notary committee as transaction manager. Three situations are shown:
//
//  1. patient customers on a network that stabilises after one second — the
//     committee commits and Bob is paid (weak liveness);
//  2. an impatient connector who aborts before the network stabilises — the
//     committee issues the abort certificate, everyone is refunded, nobody
//     loses anything;
//  3. one silent notary out of four — below the one-third threshold the
//     committee still decides.
//
// Run with:
//
//	go run ./examples/weak_liveness
package main

import (
	"fmt"
	"log"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/weaklive"
)

func run(title string, scenario core.Scenario, patience sim.Time) {
	protocol := weaklive.NewCommittee(4)
	result, err := protocol.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s ===\n", title)
	fmt.Printf("commit issued: %v   abort issued: %v   Bob paid: %v\n",
		result.CommitIssued, result.AbortIssued, result.BobPaid)
	for _, id := range scenario.Topology.Customers() {
		out := result.Outcome(id)
		fmt.Printf("  %-3s net %+5d  terminated=%v  commit-cert=%v  abort-cert=%v  lost patience=%v\n",
			id, out.NetWealthChange(), out.Terminated, out.HoldsCommitCert, out.HoldsAbortCert, out.Aborted)
	}
	report := check.Evaluate(result, check.Def2(patience))
	fmt.Printf("all Definition-2 properties hold: %v\n\n", report.AllOK())
}

func main() {
	// The network is partially synchronous: messages may take up to 800ms
	// before the global stabilisation time (1s) and respect the 50ms bound
	// afterwards.
	network := netsim.PartialSynchrony{
		GST: 1 * sim.Second, Delta: 50 * sim.Millisecond, MaxPreGST: 800 * sim.Millisecond}

	// 1. Patient customers: weak liveness delivers the payment.
	patient := core.NewScenario(3, 11).WithNetwork(network)
	for _, id := range patient.Topology.Customers() {
		patient = patient.SetPatience(id, 30*sim.Second)
	}
	run("patient customers, GST = 1s", patient, 10*sim.Second)

	// 2. An impatient connector aborts early; the abort certificate settles
	// every escrow and nobody loses value.
	impatient := patient.SetPatience("c1", 100*sim.Millisecond)
	run("connector c1 loses patience after 100ms", impatient, 10*sim.Second)

	// 3. One silent notary out of four: below the f < n/3 threshold the
	// committee still reaches its decision.
	faultyNotary := patient.SetFault("notary0", core.FaultSpec{Silent: true})
	run("one silent notary out of four", faultyNotary, 10*sim.Second)
}
