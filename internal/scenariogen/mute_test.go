package scenariogen

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestMuteEquivalence is the oracle of trace muting, which is how the fuzzer
// runs every scenario: for every payment family, on an honest chain, with
// every adversary behaviour on connector c1, on escrow e0 and on Bob (whose
// forgery is what makes an escrow report a detection), and under partial
// synchrony, on both crypto backends, the muted run computes what the unmuted
// run computes — the same RunResult in every field but the trace itself, the
// same verdicts down to their Detail, and the same Fingerprint. Muting is a
// retention choice, never an input; C in particular is judged from the run's
// own record, not from trace events. The deal families hold the same through
// deals.Config.MuteTrace.
func TestMuteEquivalence(t *testing.T) {
	type variant struct {
		name   string
		faults map[string]string
		net    NetworkSpec
	}
	variants := []variant{
		{name: "honest", net: NetworkSpec{Kind: NetSynchronous}},
		{name: "partial synchrony", net: NetworkSpec{Kind: NetPartial, GST: 2 * sim.Second, MaxPreGST: 3 * sim.Second}},
	}
	const n = 3
	for _, b := range adversary.AllBehaviours() {
		if b == adversary.Honest {
			continue
		}
		for _, id := range []string{core.CustomerID(1), core.EscrowID(0), core.CustomerID(n)} {
			variants = append(variants, variant{
				name:   fmt.Sprintf("%s=%s", id, b),
				faults: map[string]string{id: string(b)},
				net:    NetworkSpec{Kind: NetSynchronous},
			})
		}
	}
	for _, fam := range []Family{FamTimelock, FamANTA, FamNaive, FamHTLC, FamWeaklive, FamCommittee} {
		t.Run(string(fam), func(t *testing.T) {
			t.Parallel()
			for _, crypto := range []string{"hmac", "ed25519"} {
				for _, v := range variants {
					sp := Spec{
						Seed: 7, Family: fam, N: n, Base: 1000, Commission: 10,
						Timing: TimingSpec{Delta: 50 * sim.Millisecond, Processing: sim.Millisecond, Rho: 1e-4, Offset: 5 * sim.Millisecond},
						Net:    v.net, Faults: v.faults, Crypto: crypto,
					}
					s, err := sp.Scenario()
					if err != nil {
						t.Fatal(err)
					}
					protos, err := sp.Protocols()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s %s", crypto, v.name)
					traced, err := protos[0].Run(s)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					muted, err := protos[0].Run(s.Muted())
					if err != nil {
						t.Fatalf("%s muted: %v", name, err)
					}
					if traced.Trace.Len() == 0 || muted.Trace.Len() != 0 {
						t.Fatalf("%s: traced run kept %d events, muted run %d", name, traced.Trace.Len(), muted.Trace.Len())
					}
					opts := sp.checkOptions(sp.Class(), protos[0], s)
					if got, want := check.Evaluate(muted, opts), check.Evaluate(traced, opts); got != want {
						t.Fatalf("%s: verdicts differ\n--- muted\n%s--- traced\n%s", name, got, want)
					}
					a, b := *traced, *muted
					a.Trace, b.Trace = nil, nil
					b.Scenario.MuteTrace = false
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: results differ\n--- muted\n%+v\n--- traced\n%+v", name, b, a)
					}
					sameFingerprint(t, name,
						fingerprint(traced.EventsFired, traced.NetStats, traced.Book),
						fingerprint(muted.EventsFired, muted.NetStats, muted.Book))
				}
			}
		})
	}

	dealVariants := []variant{
		{name: "all compliant", net: NetworkSpec{Kind: NetSynchronous}},
		{name: "partial synchrony", net: NetworkSpec{Kind: NetPartial, GST: 2 * sim.Second, MaxPreGST: 3 * sim.Second}},
		{name: "p1 deviates", faults: map[string]string{dealPartyID(1): string(adversary.Silent)}, net: NetworkSpec{Kind: NetSynchronous}},
		{name: "p0 and p2 deviate under partial synchrony",
			faults: map[string]string{dealPartyID(0): string(adversary.Silent), dealPartyID(2): string(adversary.Silent)},
			net:    NetworkSpec{Kind: NetPartial, GST: sim.Second, MaxPreGST: 2 * sim.Second}},
	}
	for _, fam := range []Family{FamDealTimelock, FamDealCertified} {
		t.Run(string(fam), func(t *testing.T) {
			t.Parallel()
			for _, crypto := range []string{"hmac", "ed25519"} {
				for _, v := range dealVariants {
					sp := Spec{
						Seed: 7, Family: fam, N: n, Base: 1000, Commission: 10,
						Timing: TimingSpec{Delta: 50 * sim.Millisecond, Processing: sim.Millisecond, Rho: 1e-4, Offset: 5 * sim.Millisecond},
						Net:    v.net, Faults: v.faults, Crypto: crypto,
					}
					cfg, err := sp.DealConfig()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s %s", crypto, v.name)
					traced, err := sp.dealProtocol()(core.NewWorld(), cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cfg.MuteTrace = true
					muted, err := sp.dealProtocol()(core.NewWorld(), cfg)
					if err != nil {
						t.Fatalf("%s muted: %v", name, err)
					}
					if traced.Trace.Len() == 0 || muted.Trace.Len() != 0 {
						t.Fatalf("%s: traced run kept %d events, muted run %d", name, traced.Trace.Len(), muted.Trace.Len())
					}
					a, b := *traced, *muted
					a.Trace, b.Trace = nil, nil
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: results differ\n--- muted\n%+v\n--- traced\n%+v", name, b, a)
					}
					sameFingerprint(t, name,
						fingerprint(traced.EventsFired, traced.Stats, traced.Book),
						fingerprint(muted.EventsFired, muted.Stats, muted.Book))
				}
			}
		})
	}
}

// sameFingerprint requires a recorded and a muted run to agree on a
// fingerprint that saw something of the run.
func sameFingerprint(t *testing.T, name string, traced, muted Fingerprint) {
	t.Helper()
	if traced != muted || muted.Events == 0 || muted.Ledger == 0 {
		t.Fatalf("%s: fingerprints %+v (traced) and %+v (muted) differ or are empty", name, traced, muted)
	}
}
