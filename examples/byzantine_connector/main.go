// Byzantine connector: a four-hop payment in which one intermediary
// (Chloe_2) receives the certificate chi but never forwards it, and a second
// run in which Bob himself withholds the certificate. The example shows the
// customer-security clauses of Definition 1 doing their work: the escrows'
// timeouts refund every honest customer, nobody who abides by the protocol
// loses money, and the runs stay within the a-priori termination bound.
//
// Run with:
//
//	go run ./examples/byzantine_connector
package main

import (
	"fmt"
	"log"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/timelock"
)

func run(title string, scenario core.Scenario) {
	protocol := timelock.New()
	result, err := protocol.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s ===\n", title)
	fmt.Printf("Bob paid: %v, duration %v\n", result.BobPaid, result.Duration)
	for _, id := range scenario.Topology.Customers() {
		out := result.Outcome(id)
		marker := ""
		if scenario.FaultOf(id).IsByzantine() {
			marker = "  <- Byzantine"
		}
		fmt.Printf("  %-3s net %+5d  terminated=%v  chi=%v%s\n",
			id, out.NetWealthChange(), out.Terminated, out.HoldsChi, marker)
	}
	report := check.Evaluate(result, check.Def1TimeBounded(protocol.ParamsFor(scenario).Bound))
	fmt.Printf("all Definition-1 properties hold: %v\n\n", report.AllOK())
}

func main() {
	// Chloe_2 withholds the certificate instead of forwarding it upstream:
	// she only hurts herself — everyone upstream is refunded when the escrow
	// windows expire.
	withholding := core.NewScenario(4, 7).
		SetFault("c2", core.FaultSpec{WithholdCertificate: true})
	run("connector c2 withholds the certificate", withholding)

	// Bob never signs chi: no money moves at all, and in particular Bob is
	// not paid (CS2), while Alice and the connectors get their money back
	// (CS1, CS3).
	silentBob := core.NewScenario(4, 7).
		SetFault("c4", core.FaultSpec{WithholdCertificate: true})
	run("Bob withholds the certificate", silentBob)

	// A thieving escrow: e1 keeps the escrowed funds. Its own customers are
	// exposed (they trusted it), but customers of honest escrows remain
	// protected — exactly the scope of the paper's trust assumptions.
	thievingEscrow := core.NewScenario(4, 7).
		SetFault("e1", core.FaultSpec{StealEscrow: true})
	run("escrow e1 steals the escrowed funds", thievingEscrow)
}
