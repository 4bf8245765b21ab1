// Section-5 bridge: the same linear transfer viewed as a cross-chain payment
// (this paper) and as a cross-chain deal (Herlihy, Liskov, Shrira), plus a
// genuine multi-party swap that only the deal model can express. The example
// makes the paper's point concrete: neither problem is a special case of the
// other.
//
// Run with:
//
//	go run ./examples/deals_bridge
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/deals"
	"repro/internal/timelock"
)

func main() {
	// A three-hop payment, as the paper's Fig. 1.
	scenario := core.NewScenario(3, 5)

	// Run it as a payment with the time-bounded protocol: Alice ends up with
	// Bob's signed certificate chi.
	payRes, err := timelock.New().Run(scenario)
	if err != nil {
		log.Fatal(err)
	}
	alice := payRes.Outcome(scenario.Topology.Alice())
	fmt.Println("=== as a cross-chain payment (Figure-2 protocol) ===")
	fmt.Printf("Bob paid: %v, Alice holds chi: %v\n\n", payRes.BobPaid, alice.HoldsChi)

	// The same transfer as a deal matrix: a path graph, which is NOT
	// well-formed in the sense of Herlihy et al. (not strongly connected),
	// so their correctness theorems do not cover it — and the deal vocabulary
	// has no counterpart of chi.
	deal := deals.PaymentAsDeal(scenario.Topology, scenario.Spec)
	fmt.Println("=== the same transfer as a cross-chain deal ===")
	fmt.Print(deal)
	fmt.Printf("well-formed (strongly connected): %v\n\n", deal.WellFormed())

	// Herlihy et al.'s timelock commit protocol still completes the path
	// deal when every party complies under synchrony.
	dealRes, err := deals.TimelockCommit{}.Run(deals.Config{
		Deal:   deal,
		Timing: core.DefaultTiming(),
		Seed:   5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deal timelock-commit: all transfers completed: %v, safety: %v, proof of payment for Alice: none (the deal model has no chi)\n\n",
		dealRes.Outcome.AllTransferred(), dealRes.Outcome.SafetyHolds())

	// The opposite direction: a three-party ring swap is a perfectly good
	// (well-formed) deal but has no linear-payment counterpart.
	ring := deals.NewDeal("alice", "bob", "carol").
		Transfer("alice", "bob", deals.Asset{Type: "coin", Amount: 5}).
		Transfer("bob", "carol", deals.Asset{Type: "token", Amount: 3}).
		Transfer("carol", "alice", deals.Asset{Type: "stamp", Amount: 1})
	fmt.Println("=== a ring swap, the other direction ===")
	fmt.Print(ring)
	fmt.Printf("well-formed deal: %v\n", ring.WellFormed())
	if _, _, err := deals.DealAsPayment(ring); err != nil {
		fmt.Printf("as a payment: %v\n", err)
	}
}
