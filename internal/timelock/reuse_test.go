package timelock

import (
	"testing"

	"repro/internal/core"
)

// mutedHMAC is the traffic engine's kind of sub-run: muted, hmac, a shared
// key seed.
func mutedHMAC(n int, seed int64) core.Scenario {
	s := core.NewScenario(n, seed).WithCrypto("hmac")
	s.KeySeed = "traffic-keys"
	s.MuteTrace = true
	return s
}

// paymentAllocBudget is the allocation gate on the reuse path: what one
// muted hmac n=2 payment may allocate on a standing world. Measured at 41
// when this gate was set (three of them the scenario the test itself
// builds); the headroom is ~10 %. What is left is the run's own state — its
// processes, one closure per scheduled action, one box per message, the
// signatures — and nothing of the world. A change that brings back a
// per-payment map, engine, keyring or formatted ID fails here, on any
// machine, rather than in a benchmark.
const paymentAllocBudget = 45

func TestReusedWorldPaymentAllocs(t *testing.T) {
	p, w := New(), core.NewWorld()
	seed := int64(1)
	run := func() {
		res, err := p.RunIn(w, mutedHMAC(2, seed))
		if err != nil || !res.BobPaid {
			t.Fatalf("seed %d: err=%v paid=%v", seed, err, res != nil && res.BobPaid)
		}
		seed++
	}
	for i := 0; i < 10; i++ { // let the world's storage grow
		run()
	}
	n := testing.AllocsPerRun(200, run)
	t.Logf("one muted hmac n=2 payment on a reused world: %.0f allocations", n)
	if n > paymentAllocBudget {
		t.Fatalf("a payment on a reused world allocates %.0f times, budget %d", n, paymentAllocBudget)
	}
}
