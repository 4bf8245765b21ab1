// Traffic: a thousand concurrent payments multiplexed over one shared
// 8-escrow chain. The workload mixes the paper's time-bounded protocol with
// weak-liveness and HTLC traffic, then the same chain is starved of
// liquidity to show admission control: payments queue for capacity and are
// dropped when their patience runs out, while every escrow ledger keeps
// conserving value exactly.
//
// Run with:
//
//	go run ./examples/traffic
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	// One shared chain: Alice, seven connectors, Bob, eight escrows.
	scenario := core.NewScenario(8, 42)

	// A thousand payments arriving as a Poisson process at 500 payments per
	// simulated second, 40% time-bounded, 30% weak-liveness, 30% HTLC.
	// Liquidity is auto-sized, so admission never binds and the run shows
	// the chain's raw capacity.
	workload := traffic.NewWorkload(1000)
	workload.Arrival.Rate = 500
	workload = workload.WithMix(
		traffic.ProtocolShare{Name: "timelock", Weight: 0.4},
		traffic.ProtocolShare{Name: "weaklive", Weight: 0.3},
		traffic.ProtocolShare{Name: "htlc", Weight: 0.3},
	)

	result, err := traffic.Run(scenario, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- open traffic, ample liquidity ---")
	fmt.Print(result)

	// Same chain, but each escrow account now holds capacity for only a
	// handful of simultaneous payments, and bursts of 50 slam into it.
	// Blocked payments wait up to 10 simulated seconds in the admission
	// queue before being dropped.
	starved := traffic.NewWorkload(1000)
	starved.Arrival = traffic.Arrival{Kind: traffic.ArrivalBurst, BurstSize: 50, BurstGap: 2 * sim.Second}
	starved = starved.WithLiquidity(5500).WithQueue(10*sim.Second, 0)

	result, err = traffic.Run(scenario, starved)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- burst traffic, starved liquidity, 10s queue patience ---")
	fmt.Print(result)

	// Determinism: the exact same workload on the exact same seed, executed
	// serially instead of on the worker pool, is byte-identical.
	again, err := traffic.RunWith(scenario, starved, traffic.Config{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserial re-run byte-identical: %v\n", again.String() == result.String())
}
