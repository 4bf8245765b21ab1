// Quickstart: Alice pays Bob across three escrows with the paper's
// time-bounded protocol (Theorem 1, Figure 2) under synchrony, then the
// outcome is checked against every property of Definition 1.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/timelock"
)

func main() {
	// A scenario fixes everything about the run: the Fig. 1 topology with
	// n = 3 escrows (Alice, two connectors, Bob), the agreed per-hop amounts
	// (Bob receives 1000, each connector earns a 10-unit commission), the
	// synchrony assumptions, and the RNG seed that makes the run
	// reproducible.
	scenario := core.NewScenario(3, 42)

	protocol := timelock.New()
	result, err := protocol.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("protocol: %s\n", protocol.Name())
	fmt.Printf("Bob paid: %v in %v using %d messages\n\n",
		result.BobPaid, result.Duration, result.NetStats.Sent)

	for _, id := range scenario.Topology.Customers() {
		out := result.Outcome(id)
		fmt.Printf("%-3s (%-9s) net change %+5d, terminated %v, holds certificate chi: %v\n",
			id, out.Role, out.NetWealthChange(), out.Terminated, out.HoldsChi)
	}

	// The a-priori termination bound of Theorem 1 comes with the protocol's
	// derived parameters; the checker verifies the whole of Definition 1
	// against it.
	bound := protocol.ParamsFor(scenario).Bound
	report := check.Evaluate(result, check.Def1TimeBounded(bound))
	fmt.Printf("\ntermination bound: %v\n%s", bound, report)
}
