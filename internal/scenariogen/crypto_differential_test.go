package scenariogen

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
)

// The authentication backend realises a primitive the paper's model assumes,
// so NO observable of a run may depend on it: not a verdict, not a
// settlement, not an audit. This is the backend-differential oracle:
// every generated scenario, executed under ed25519 and under hmac, must
// produce identical outcomes. A divergence means a protocol smuggled
// backend-specific bytes into a decision — a bug by construction.

// runBackendPair runs one spec under both backends and reports any
// divergence via t.Errorf.
func runBackendPair(t *testing.T, sp Spec) {
	t.Helper()
	spE, spH := sp, sp
	spE.Crypto = "ed25519"
	spH.Crypto = "hmac"
	oe, oh := Run(spE), Run(spH)

	// The oracle's own judgement must match in full (violations carry the
	// failing property and detail strings, so this compares verdict shapes,
	// not just counts).
	if !reflect.DeepEqual(oe.Violations, oh.Violations) {
		t.Errorf("seed %d: violations diverge: ed25519 %v vs hmac %v", sp.Seed, oe.Violations, oh.Violations)
	}
	if !reflect.DeepEqual(oe.ExpectedFailures, oh.ExpectedFailures) {
		t.Errorf("seed %d: expected failures diverge: %v vs %v", sp.Seed, oe.ExpectedFailures, oh.ExpectedFailures)
	}
	if oe.Theorem2 != oh.Theorem2 || oe.BobPaid != oh.BobPaid {
		t.Errorf("seed %d: outcome flags diverge (theorem2 %v/%v, bobPaid %v/%v)",
			sp.Seed, oe.Theorem2, oh.Theorem2, oe.BobPaid, oh.BobPaid)
	}
	// Run fingerprint: same virtual duration, same fired events, same messages,
	// same ledger logs — the backend changed CPU cycles only, never the schedule.
	if oe.Duration != oh.Duration || oe.Fingerprint != oh.Fingerprint || oe.TrafficPayments != oh.TrafficPayments {
		t.Errorf("seed %d: fingerprints diverge: duration %v/%v fingerprint %+v/%+v payments %d/%d",
			sp.Seed, oe.Duration, oh.Duration, oe.Fingerprint, oh.Fingerprint, oe.TrafficPayments, oh.TrafficPayments)
	}
	if sp.isDeal() || sp.Family == FamTraffic {
		// Deal and traffic runs have no single core.Protocol to re-run raw;
		// the oracle comparison above already pinned their fingerprints.
		return
	}

	// For payment families, additionally compare the raw runs: every
	// Definition-1/2 verdict, the settlements (value movements in order, as
	// the ledgers logged them) and the per-escrow audits must be identical.
	sE, err := spE.Scenario()
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	sH, err := spH.Scenario()
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	protosE, err := spE.Protocols()
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	protosH, _ := spH.Protocols()
	opts := spE.checkOptions(oe.Class, protosE[0], sE)
	for i := range protosE {
		rE, errE := protosE[i].Run(sE)
		rH, errH := protosH[i].Run(sH)
		if (errE == nil) != (errH == nil) {
			t.Errorf("seed %d %s: one backend errored: %v vs %v", sp.Seed, protosE[i].Name(), errE, errH)
			continue
		}
		if errE != nil {
			continue
		}
		repE, repH := check.Evaluate(rE, opts), check.Evaluate(rH, opts)
		for _, p := range core.AllProperties() {
			vE, vH := repE.Verdict(p), repH.Verdict(p)
			if vE.Applicable != vH.Applicable || vE.Holds != vH.Holds {
				t.Errorf("seed %d %s: verdict %s diverges: ed25519(applicable=%v holds=%v) vs hmac(applicable=%v holds=%v)",
					sp.Seed, protosE[i].Name(), p, vE.Applicable, vE.Holds, vH.Applicable, vH.Holds)
			}
		}
		if d := settlementDivergence(opLogs(nil, rE.Book), opLogs(nil, rH.Book)); d != "" {
			t.Errorf("seed %d %s: ed25519 vs hmac: %s", sp.Seed, protosE[i].Name(), d)
		}
		for _, id := range rE.Scenario.Topology.Escrows() {
			aE, aH := rE.Escrows[id].AuditErr, rH.Escrows[id].AuditErr
			if (aE == nil) != (aH == nil) || (aE != nil && aE.Error() != aH.Error()) {
				t.Errorf("seed %d %s: audit of %s diverges: %v vs %v", sp.Seed, protosE[i].Name(), id, aE, aH)
			}
		}
	}
}

// TestBackendDifferential120Scenarios is the committed regression of the
// tentpole's invariant: 120 generated scenarios (every family, conforming
// and envelope-violating classes) agree across backends on verdicts,
// settlements and audits.
func TestBackendDifferential120Scenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("backend differential sweep is not short")
	}
	for seed := int64(0); seed < 120; seed++ {
		sp := Generate(seed)
		t.Run(fmt.Sprintf("seed%d_%s", seed, sp.Family), func(t *testing.T) { runBackendPair(t, sp) })
	}
}
