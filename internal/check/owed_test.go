package check

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// trust is the state of Theorem 3's transaction-manager assumption. The two
// rules this package replaced disagreed on what breaks it, so the reference
// models below need the cause, not only the verdict.
type trust int

const (
	trustIntact     trust = iota
	managerFaulty         // the manager ID itself carries a fault
	notariesBeyondF       // the manager ID is honest, more than f notaries are not
)

var guarantees = map[string]core.Guarantee{
	"theorem1":           {Theorem: core.Theorem1},
	"theorem3-trusted":   {Theorem: core.Theorem3},
	"theorem3-committee": {Theorem: core.Theorem3, Notaries: 4},
	"baseline":           {Theorem: core.Baseline},
}

// scenariogenOwed is a frozen copy of scenariogen.Spec.owed at the parent of
// the commit that introduced Owed (7c14f63), its Spec reduced to the facts it
// consulted.
func scenariogenOwed(g core.Guarantee, p core.Property, conforming bool, tr trust, patienceFinite bool) bool {
	managerTrustIntact := tr == trustIntact
	if g.Theorem == core.Baseline {
		if p == core.PropCS1 {
			return false
		}
		if !conforming {
			switch p {
			case core.PropEscrowSecurity, core.PropCS3, core.PropConservation:
				return true
			}
			return false
		}
		return true
	}
	if conforming {
		return true
	}
	if g.Theorem == core.Theorem3 {
		switch p {
		case core.PropStrongLiveness, core.PropWeakLiveness:
			return false
		case core.PropCertConsistency:
			return managerTrustIntact
		case core.PropTermination:
			return patienceFinite && managerTrustIntact
		}
		return true
	}
	switch p {
	case core.PropTermination, core.PropStrongLiveness, core.PropCS2:
		return false
	}
	return true
}

// trafficSafetyOwed is a frozen copy of traffic.safetyOwed at the same
// commit: defined on the safety properties only (the traffic oracle never
// looked at the others), with byz = "the sub-scenario has a fault" and the
// manager test reading the manager ID alone.
func trafficSafetyOwed(g core.Guarantee, p core.Property, byz bool, tr trust) bool {
	switch p {
	case core.PropEscrowSecurity, core.PropCS3, core.PropConservation:
		return true
	}
	if g.Theorem == core.Baseline {
		if p == core.PropCS1 {
			return false
		}
		return !byz
	}
	if g.Theorem == core.Theorem3 {
		if p == core.PropCertConsistency {
			return tr != managerFaulty
		}
		return true
	}
	if p == core.PropCS2 {
		return !byz
	}
	return true
}

// TestOwedAgainstBothParentRules walks every cell of guarantee × property ×
// envelope × manager trust × patience and compares Owed with the two rules it
// replaced: equal to the fuzzer's everywhere, equal to the traffic oracle's
// everywhere but the cells the test names.
func TestOwedAgainstBothParentRules(t *testing.T) {
	safety := map[core.Property]bool{}
	for _, i := range safetySlots {
		safety[propertyOrder[i]] = true
	}
	changed := map[string]bool{}
	for name, g := range guarantees {
		for _, p := range core.AllProperties() {
			for _, inEnvelope := range []bool{true, false} {
				for _, tr := range []trust{trustIntact, managerFaulty, notariesBeyondF} {
					for _, finite := range []bool{true, false} {
						cell := fmt.Sprintf("%s/%s/in-envelope=%v/trust=%d/finite=%v", name, p, inEnvelope, tr, finite)
						got := Owed(g, p, Facts{InEnvelope: inEnvelope, ManagerTrusted: tr == trustIntact, PatienceFinite: finite})
						if want := scenariogenOwed(g, p, inEnvelope, tr, finite); got != want {
							t.Errorf("%s: Owed = %v, the fuzzer's rule said %v", cell, got, want)
						}
						// Broken trust is a fault, and the traffic oracle put every
						// faulted sub-run outside the envelope: its rule has no
						// in-envelope cell with broken trust.
						if !safety[p] || (inEnvelope && tr != trustIntact) {
							continue
						}
						if want := trafficSafetyOwed(g, p, !inEnvelope, tr); got != want {
							changed[fmt.Sprintf("%s/%s/trust=%d", name, p, tr)] = true
							if got {
								t.Errorf("%s: Owed = true where the traffic rule waived the property", cell)
							}
						}
					}
				}
			}
		}
	}
	// The only behaviour this package changed: the traffic oracle kept CC owed
	// when the notaries, not the manager ID, broke the trust assumption, and
	// reported the resulting double certificates as safety violations.
	want := map[string]bool{
		fmt.Sprintf("theorem3-trusted/CC/trust=%d", notariesBeyondF):   true,
		fmt.Sprintf("theorem3-committee/CC/trust=%d", notariesBeyondF): true,
	}
	if fmt.Sprint(changed) != fmt.Sprint(want) {
		t.Errorf("cells that differ from the traffic rule:\n got %v\nwant %v", changed, want)
	}
}

// A Byzantine manager or a notary majority waives CC and (with it) T; every
// other safety property stays owed whatever is broken.
func TestBrokenTrustWaivesOnlyCC(t *testing.T) {
	for name, g := range guarantees {
		if g.Theorem != core.Theorem3 {
			continue
		}
		for _, i := range safetySlots {
			p := propertyOrder[i]
			got := Owed(g, p, Facts{})
			if want := p != core.PropCertConsistency; got != want {
				t.Errorf("%s: %s owed = %v with trust broken outside the envelope, want %v", name, p, got, want)
			}
		}
	}
}

func TestManagerTrusted(t *testing.T) {
	faulty := func(ids ...string) func(string) bool {
		return func(id string) bool {
			for _, f := range ids {
				if f == id {
					return true
				}
			}
			return false
		}
	}
	n := core.NotaryID
	for _, tc := range []struct {
		notaries int
		faults   []string
		want     bool
	}{
		{0, nil, true},
		{0, []string{"c1", "e0"}, true},
		{0, []string{core.ManagerID}, false},
		{0, []string{n(0)}, true}, // a trusted manager has no notaries to lose
		{1, []string{n(0)}, false},
		{4, []string{n(0)}, true},
		{4, []string{n(3), n(1)}, false},
		{4, []string{n(0), n(7)}, true}, // notary7 is not on a committee of four
		{4, []string{core.ManagerID}, false},
		{7, []string{n(0), n(6)}, true},
		{7, []string{n(0), n(1), n(2)}, false},
	} {
		g := core.Guarantee{Theorem: core.Theorem3, Notaries: tc.notaries}
		if got := ManagerTrusted(g, faulty(tc.faults...)); got != tc.want {
			t.Errorf("committee of %d with %v faulty: trusted = %v, want %v", tc.notaries, tc.faults, got, tc.want)
		}
	}
}

func TestOptionsFor(t *testing.T) {
	bound, patience := 3*sim.Second, 7*sim.Second
	for name, want := range map[string]Options{
		"theorem1":           Def1TimeBounded(bound),
		"theorem3-trusted":   Def2(patience),
		"theorem3-committee": Def2(patience),
		"baseline":           Def1Eventual(),
	} {
		if got := OptionsFor(guarantees[name], bound, patience); got != want {
			t.Errorf("%s: options %+v, want %+v", name, got, want)
		}
	}
	if got := OptionsFor(guarantees["theorem1"], 0, patience); got != Def1Eventual() {
		t.Errorf("theorem 1 without a bound: options %+v, want eventual termination", got)
	}
}
