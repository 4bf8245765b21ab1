package timelock_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/timelock"
	"repro/internal/weaklive"
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
// muted hmac payment may allocate on a standing world, per protocol. Each
// budget is the count measured when the transaction manager moved onto the
// world, plus two (the committee's, which varied with the seeds while it was
// built per run, keeps five). Of every count three are the scenario the test
// itself builds and one is the string World.LockID cuts the chain's lock IDs
// from; htlc adds its hashlock. Nothing is left of the run's own processes,
// closures, message boxes, signatures or certificates, nor of the manager —
// a committee of four, once 200 of a payment's 210 allocations, costs what
// the trusted manager does: none — nor of the world: a change that brings
// back a per-payment map, engine, keyring, process slice, committee or
// formatted ID fails here, on any machine, rather than in a benchmark. The
// Figure-2 automata stand on the world like the processes, compiled once
// per process, so a timelock-anta payment allocates what a timelock payment
// does; besides its budget the test holds it to at most twice the timelock
// row's count at the same n.
var paymentAllocBudget = []struct {
	name string
	p    interface {
		RunIn(*core.World, core.Scenario) (*core.RunResult, error)
	}
	n      int
	budget float64
}{
	{"timelock n=2", timelock.New(), 2, 6},
	{"timelock n=8", timelock.New(), 8, 6},
	{"timelock-anta n=2", timelock.NewANTA(), 2, 6},
	{"timelock-anta n=8", timelock.NewANTA(), 8, 6},
	{"htlc n=2", htlc.New(), 2, 7},
	{"weaklive n=2", weaklive.New(), 2, 6},
	{"weaklive-committee n=2", weaklive.NewCommittee(4), 2, 9},
}

func TestReusedWorldPaymentAllocs(t *testing.T) {
	measured := map[string]float64{}
	for _, tc := range paymentAllocBudget {
		w := core.NewWorld()
		seed := int64(1)
		run := func() {
			res, err := tc.p.RunIn(w, mutedHMAC(tc.n, seed))
			if err != nil || !res.BobPaid {
				t.Fatalf("%s, seed %d: err=%v paid=%v", tc.name, seed, err, res != nil && res.BobPaid)
			}
			seed++
		}
		for i := 0; i < 10; i++ { // let the world's storage grow
			run()
		}
		n := testing.AllocsPerRun(200, run)
		t.Logf("one muted hmac %s payment on a reused world: %.0f allocations", tc.name, n)
		if n > tc.budget {
			t.Errorf("a %s payment on a reused world allocates %.0f times, budget %.0f", tc.name, n, tc.budget)
		}
		measured[tc.name] = n
	}
	for _, n := range []string{"n=2", "n=8"} {
		if anta, proc := measured["timelock-anta "+n], measured["timelock "+n]; anta > 2*proc {
			t.Errorf("a timelock-anta %s payment allocates %.0f times, more than twice the process engine's %.0f", n, anta, proc)
		}
	}
}

// TestReusedWorldRecordedPaymentAllocs is the gate beside the muted ones for
// a recording run: one hmac n=2 payment on a standing world with its trace
// live, its scenario built beforehand. What it may allocate is the trace's
// own labels (message descriptions, certificate renderings) and the lock IDs;
// the engine keeps no event names, so a recorded run builds none. Building
// them cost 24 more allocations per payment on the process engine and 28 on
// the ANTA one.
func TestReusedWorldRecordedPaymentAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *timelock.Protocol
		budget float64
	}{
		{"timelock", timelock.New(), 23},
		{"timelock-anta", timelock.NewANTA(), 21},
	} {
		w := core.NewWorld()
		scenarios := make([]core.Scenario, 211) // warm-up, AllocsPerRun's own warm-up run, 200 measured
		for i := range scenarios {
			scenarios[i] = mutedHMAC(2, int64(i+1))
			scenarios[i].MuteTrace = false
		}
		k := 0
		run := func() {
			res, err := tc.p.RunIn(w, scenarios[k])
			if err != nil || !res.BobPaid || res.Trace.Len() == 0 {
				t.Fatalf("%s, seed %d: err=%v paid=%v recorded=%v", tc.name, k+1, err, res != nil && res.BobPaid, res != nil && res.Trace.Len() > 0)
			}
			k++
		}
		for i := 0; i < 10; i++ { // let the world's and the trace's storage grow
			run()
		}
		n := testing.AllocsPerRun(200, run)
		t.Logf("one recorded hmac %s n=2 payment on a reused world: %.0f allocations", tc.name, n)
		if n > tc.budget {
			t.Errorf("a recorded %s n=2 payment on a reused world allocates %.0f times, budget %.0f", tc.name, n, tc.budget)
		}
	}
}
