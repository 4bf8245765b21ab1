package timelock_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/race"
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
// built per run, keeps five), lowered by one when the lock IDs became lazy.
// Of every count three are the scenario the test itself builds; htlc adds
// its hashlock. Nothing is left of the run's own processes,
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
	{"timelock n=2", timelock.New(), 2, 5},
	{"timelock n=8", timelock.New(), 8, 5},
	{"timelock-anta n=2", timelock.NewANTA(), 2, 5},
	{"timelock-anta n=8", timelock.NewANTA(), 8, 5},
	{"htlc n=2", htlc.New(), 2, 6},
	{"weaklive n=2", weaklive.New(), 2, 5},
	{"weaklive-committee n=2", weaklive.NewCommittee(4), 2, 8},
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
		if n > tc.budget && !race.Enabled { // the detector allocates
			t.Errorf("a %s payment on a reused world allocates %.0f times, budget %.0f", tc.name, n, tc.budget)
		}
		measured[tc.name] = n
	}
	for _, n := range []string{"n=2", "n=8"} {
		if anta, proc := measured["timelock-anta "+n], measured["timelock "+n]; anta > 2*proc && !race.Enabled {
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
		if n > tc.budget && !race.Enabled { // the detector allocates
			t.Errorf("a recorded %s n=2 payment on a reused world allocates %.0f times, budget %.0f", tc.name, n, tc.budget)
		}
	}
}

// TestHonestPaymentRendersNothing: on a standing world an honest n=2 payment
// reads no signature's bytes at either backend — every verification is a
// record hit, no signature is rendered, and Sign runs no backend, so an
// ed25519 payment allocates what an hmac one does (ed25519 signing allocated
// its 64-byte signature). A forging Bob's chi is a Raw signature: one miss,
// paid to the backend, and still nothing rendered.
func TestHonestPaymentRendersNothing(t *testing.T) {
	p := timelock.New()
	allocs := map[string]float64{}
	for _, crypto := range []string{"hmac", "ed25519"} {
		w := core.NewWorld()
		seed := int64(1)
		scenario := func() core.Scenario {
			s := mutedHMAC(2, seed).WithCrypto(crypto)
			seed++
			return s
		}
		run := func(s core.Scenario) *core.RunResult {
			res, err := p.RunIn(w, s)
			if err != nil {
				t.Fatalf("%s, seed %d: %v", crypto, s.Seed, err)
			}
			return res
		}
		for i := 0; i < 10; i++ { // let the world's storage grow
			run(scenario())
		}
		if res := run(scenario()); !res.BobPaid {
			t.Fatalf("%s: the honest payment did not pay Bob", crypto)
		}
		if st := w.Keyring().Stats(); st.Rendered != 0 || st.MemoMisses != 0 || st.MemoHits == 0 {
			t.Errorf("%s: an honest payment's keyring stats %+v, want record hits only and nothing rendered", crypto, st)
		}
		allocs[crypto] = testing.AllocsPerRun(100, func() { run(scenario()) })

		forged := scenario().SetFault(core.CustomerID(2), core.FaultSpec{ForgeCertificate: true})
		if res := run(forged); res.BobPaid {
			t.Fatalf("%s: a forged chi paid Bob", crypto)
		}
		if st := w.Keyring().Stats(); st.Rendered != 0 || st.MemoMisses != 1 {
			t.Errorf("%s: a c2=forge payment's keyring stats %+v, want exactly one miss and nothing rendered", crypto, st)
		}
	}
	if allocs["ed25519"] != allocs["hmac"] {
		t.Errorf("an honest ed25519 payment allocates %.0f times, an hmac one %.0f: Sign ran a backend", allocs["ed25519"], allocs["hmac"])
	}
}
