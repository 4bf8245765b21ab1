package check

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fabricate builds a RunResult by hand so the checkers can be unit-tested
// without running any protocol.
func fabricate(n int) *core.RunResult {
	s := core.NewScenario(n, 1)
	res := &core.RunResult{
		Protocol: "fake",
		Scenario: &s,
		Book:     ledger.NewBook(),
	}
	for _, id := range s.Topology.Customers() {
		res.Customers = append(res.Customers, core.CustomerOutcome{ID: id, Role: s.Topology.RoleOf(id), Terminated: true, TerminatedAt: 10 * sim.Millisecond})
	}
	for _, id := range s.Topology.Escrows() {
		res.Escrows = append(res.Escrows, core.EscrowOutcome{ID: id})
	}
	res.AllTerminated = true
	res.BobPaid = true
	return res
}

func setOutcome(res *core.RunResult, id string, mutate func(*core.CustomerOutcome)) {
	for i := range res.Customers {
		if res.Customers[i].ID == id {
			mutate(&res.Customers[i])
		}
	}
}

func TestHappyFabricatedRunPassesDef1(t *testing.T) {
	res := fabricate(3)
	// Give the customers plausible payment outcomes.
	setOutcome(res, "c0", func(o *core.CustomerOutcome) {
		o.PaidOut = 1020
		o.WealthBefore = 2040
		o.WealthAfter = 1020
		o.HoldsChi = true
	})
	setOutcome(res, "c3", func(o *core.CustomerOutcome) {
		o.Received = 1000
		o.WealthBefore = 0
		o.WealthAfter = 1000
		o.IssuedChi = true
	})
	r := Evaluate(res, Def1TimeBounded(time(1)))
	if !r.AllOK() {
		t.Fatalf("fabricated happy run fails:\n%s", &r)
	}
}

func time(seconds int64) sim.Time { return sim.Time(seconds) * sim.Second }

func TestConsistencyFailsOnEngineError(t *testing.T) {
	res := fabricate(2)
	res.Err = errors.New("boom")
	r := Evaluate(res, Def1Eventual())
	if r.Verdict(core.PropConsistency).OK() {
		t.Fatal("consistency passed despite an engine error")
	}
}

// reported runs nothing on a muted two-escrow world but one participant's
// report, and returns C's verdict on what the world collected. The defect C
// exists to catch cannot be provoked through a valid scenario — that is what
// C asserts — so the tests inject it where a protocol process would report
// it.
func reported(t *testing.T, faulty string, ev trace.Event) Verdict {
	t.Helper()
	s := core.NewScenario(2, 1).Muted()
	if faulty != "" {
		s = s.SetFault(faulty, core.FaultSpec{Silent: true})
	}
	w := core.NewWorld()
	if err := w.Reset(&s); err != nil {
		t.Fatal(err)
	}
	w.Report(ev, nil)
	if w.Trace.Len() != 0 {
		t.Fatal("muted world recorded a trace event")
	}
	res := w.Collect("fake", 0, func(int, *core.CustomerOutcome) {})
	rep := Evaluate(res, Def1Eventual())
	return rep.Verdict(core.PropConsistency)
}

func TestConsistencyIgnoresByzantineViolations(t *testing.T) {
	v := reported(t, "c1", trace.Event{Kind: trace.KindViolation, Actor: "c1", Label: "wrong-amount"})
	if !v.OK() {
		t.Fatal("violation by a Byzantine actor falsified consistency")
	}
}

func TestConsistencyDetectionEvents(t *testing.T) {
	// An honest escrow that reports a detection while rejecting a Byzantine
	// peer's forged certificate is the protocol working, not failing: C must
	// hold.
	forgery := trace.Event{Kind: trace.KindDetection, Actor: "e1", Peer: "c2", Label: "invalid-certificate"}
	if v := reported(t, "c2", forgery); !v.OK() {
		t.Fatal("rejecting a Byzantine peer's forgery falsified consistency")
	}
	// The same detection against an honest peer means the engine produced an
	// instruction the receiver could not accept — a genuine inconsistency.
	v := reported(t, "", forgery)
	if v.OK() {
		t.Fatal("an honest participant's rejection of honest input passed C")
	}
	if want := "honest e1 rejected honest input: invalid-certificate"; v.Detail() != want {
		t.Fatalf("detail %q, want %q", v.Detail(), want)
	}
	// A violation is the actor's own inconsistency: a Byzantine peer never
	// excuses it.
	v = reported(t, "c2", trace.Event{Kind: trace.KindViolation, Actor: "e1", Peer: "c2", Label: "double-release"})
	if v.OK() {
		t.Fatal("an honest participant's own violation passed C because its peer was Byzantine")
	}
	if want := "honest e1 hit double-release"; v.Detail() != want {
		t.Fatalf("detail %q, want %q", v.Detail(), want)
	}
	// Detections by Byzantine actors are ignored like their violations.
	if v := reported(t, "e1", trace.Event{Kind: trace.KindDetection, Actor: "e1", Peer: "c1", Label: "wrong-amount"}); !v.OK() {
		t.Fatal("a Byzantine actor's detection event falsified C")
	}
}

func TestPreconditionsWhenNoCustomerAbides(t *testing.T) {
	// Every customer Byzantine: the customer-facing properties owe nothing —
	// T, CS1, CS2, CS3 and L must all be inapplicable (and hence hold), no
	// matter how badly the run went for the deviators.
	res := fabricate(2)
	for _, id := range res.Scenario.Topology.Customers() {
		*res.Scenario = res.Scenario.SetFault(id, core.FaultSpec{Silent: true})
	}
	for _, id := range res.Scenario.Topology.Customers() {
		setOutcome(res, id, func(o *core.CustomerOutcome) {
			o.Terminated = false
			o.PaidOut = 100
			o.WealthBefore = 100
			o.WealthAfter = 0
			o.IssuedChi = true
		})
	}
	res.BobPaid = false
	r := Evaluate(res, Def1TimeBounded(1*sim.Millisecond))
	for _, p := range []core.Property{
		core.PropTermination, core.PropCS1, core.PropCS2, core.PropCS3, core.PropStrongLiveness,
	} {
		v := r.Verdict(p)
		if v.Applicable {
			t.Errorf("%s applicable although no customer abides", p)
		}
		if !v.OK() {
			t.Errorf("%s violated although no customer abides: %s", p, v.Detail())
		}
	}
	// Escrow security and conservation remain owed to the honest escrows.
	if !r.Verdict(core.PropEscrowSecurity).Applicable {
		t.Error("ES not applicable although the escrows abide")
	}
	// Weak liveness is likewise not owed under Definition 2.
	r2 := Evaluate(res, Def2(0))
	if v := r2.Verdict(core.PropWeakLiveness); v.Applicable || !v.OK() {
		t.Errorf("WL demanded although no customer abides: %+v", v)
	}
}

func TestTerminationBoundEnforced(t *testing.T) {
	res := fabricate(2)
	setOutcome(res, "c0", func(o *core.CustomerOutcome) { o.PaidOut = 10; o.TerminatedAt = 2 * sim.Second })
	r := Evaluate(res, Def1TimeBounded(1*sim.Second))
	v := r.Verdict(core.PropTermination)
	if v.OK() {
		t.Fatal("termination after the bound passed the time-bounded check")
	}
	// The eventual variant does not care about the bound.
	r = Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropTermination).OK() {
		t.Fatal("eventual termination check rejected a terminated customer")
	}
}

func TestTerminationNotOwedWhenEscrowByzantine(t *testing.T) {
	res := fabricate(2)
	*res.Scenario = res.Scenario.SetFault("e0", core.FaultSpec{Silent: true})
	setOutcome(res, "c0", func(o *core.CustomerOutcome) { o.PaidOut = 10; o.Terminated = false })
	r := Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropTermination).OK() {
		t.Fatal("termination demanded although Alice's escrow was Byzantine")
	}
}

func TestTerminationNotOwedWithoutPaymentOrCertificate(t *testing.T) {
	res := fabricate(2)
	setOutcome(res, "c1", func(o *core.CustomerOutcome) { o.Terminated = false })
	r := Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropTermination).OK() {
		t.Fatal("termination demanded from a customer who neither paid nor certified")
	}
}

func TestEscrowSecurity(t *testing.T) {
	res := fabricate(2)
	res.Escrows[1] = core.EscrowOutcome{ID: "e1", BalanceDelta: -5}
	r := Evaluate(res, Def1Eventual())
	if r.Verdict(core.PropEscrowSecurity).OK() {
		t.Fatal("escrow losing money passed ES")
	}
	// A Byzantine escrow's losses are its own problem.
	*res.Scenario = res.Scenario.SetFault("e1", core.FaultSpec{StealEscrow: true})
	r = Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropEscrowSecurity).OK() {
		t.Fatal("Byzantine escrow's loss falsified ES")
	}
}

func TestCS1(t *testing.T) {
	res := fabricate(2)
	// Alice lost money and has no certificate: CS1 violated.
	setOutcome(res, "c0", func(o *core.CustomerOutcome) {
		o.WealthBefore = 100
		o.WealthAfter = 50
		o.HoldsChi = false
	})
	r := Evaluate(res, Def1Eventual())
	if r.Verdict(core.PropCS1).OK() {
		t.Fatal("Alice losing money without chi passed CS1")
	}
	// With the certificate it is fine.
	setOutcome(res, "c0", func(o *core.CustomerOutcome) { o.HoldsChi = true })
	r = Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropCS1).OK() {
		t.Fatal("Alice holding chi failed CS1")
	}
	// Not owed when Alice's escrow is Byzantine.
	setOutcome(res, "c0", func(o *core.CustomerOutcome) { o.HoldsChi = false })
	*res.Scenario = res.Scenario.SetFault("e0", core.FaultSpec{StealEscrow: true})
	r = Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropCS1).OK() {
		t.Fatal("CS1 demanded although Alice's escrow was Byzantine")
	}
}

func TestCS1Definition2UsesCommitCert(t *testing.T) {
	res := fabricate(2)
	setOutcome(res, "c0", func(o *core.CustomerOutcome) {
		o.WealthBefore = 100
		o.WealthAfter = 0
		o.HoldsChi = true // chi is not enough under Definition 2
	})
	r := Evaluate(res, Def2(0))
	if r.Verdict(core.PropCS1).OK() {
		t.Fatal("Definition-2 CS1 accepted chi instead of the commit certificate")
	}
	setOutcome(res, "c0", func(o *core.CustomerOutcome) { o.HoldsCommitCert = true })
	r = Evaluate(res, Def2(0))
	if !r.Verdict(core.PropCS1).OK() {
		t.Fatal("Definition-2 CS1 rejected the commit certificate")
	}
}

func TestCS2(t *testing.T) {
	res := fabricate(2)
	// Bob issued chi but never received money: CS2 violated.
	setOutcome(res, "c2", func(o *core.CustomerOutcome) {
		o.IssuedChi = true
		o.Received = 0
		o.WealthBefore = 10
		o.WealthAfter = 10
	})
	res.BobPaid = false
	r := Evaluate(res, Def1Eventual())
	if r.Verdict(core.PropCS2).OK() {
		t.Fatal("Bob issuing chi without payment passed CS2")
	}
	// Under Definition 2 the abort certificate excuses the missing payment.
	setOutcome(res, "c2", func(o *core.CustomerOutcome) { o.HoldsAbortCert = true })
	r = Evaluate(res, Def2(0))
	if !r.Verdict(core.PropCS2).OK() {
		t.Fatal("Definition-2 CS2 rejected the abort certificate")
	}
}

func TestCS3(t *testing.T) {
	res := fabricate(3)
	setOutcome(res, "c1", func(o *core.CustomerOutcome) { o.WealthBefore = 100; o.WealthAfter = 90 })
	r := Evaluate(res, Def1Eventual())
	if r.Verdict(core.PropCS3).OK() {
		t.Fatal("connector losing money passed CS3")
	}
	// Not owed when the connector's escrow is Byzantine.
	*res.Scenario = res.Scenario.SetFault("e1", core.FaultSpec{Silent: true})
	r = Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropCS3).OK() {
		t.Fatal("CS3 demanded although the connector's escrow was Byzantine")
	}
}

func TestStrongLiveness(t *testing.T) {
	res := fabricate(2)
	res.BobPaid = false
	r := Evaluate(res, Def1Eventual())
	if r.Verdict(core.PropStrongLiveness).OK() {
		t.Fatal("all-honest run without payment passed L")
	}
	// Not owed once any participant is Byzantine.
	*res.Scenario = res.Scenario.SetFault("c1", core.FaultSpec{Silent: true})
	r = Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropStrongLiveness).OK() {
		t.Fatal("L demanded despite a Byzantine participant")
	}
}

func TestWeakLiveness(t *testing.T) {
	res := fabricate(2)
	res.BobPaid = false
	// All patient (patience 0 = infinite): WL applicable and violated.
	r := Evaluate(res, Def2(1*sim.Second))
	if r.Verdict(core.PropWeakLiveness).OK() {
		t.Fatal("patient all-honest run without payment passed WL")
	}
	// An impatient customer voids the precondition.
	*res.Scenario = res.Scenario.SetPatience("c1", 1*sim.Millisecond)
	r = Evaluate(res, Def2(1*sim.Second))
	if !r.Verdict(core.PropWeakLiveness).OK() {
		t.Fatal("WL demanded despite an impatient customer")
	}
}

func TestCertConsistency(t *testing.T) {
	res := fabricate(2)
	res.CommitIssued = true
	res.AbortIssued = true
	r := Evaluate(res, Def2(0))
	if r.Verdict(core.PropCertConsistency).OK() {
		t.Fatal("both certificates issued passed CC")
	}
	res.AbortIssued = false
	r = Evaluate(res, Def2(0))
	if !r.Verdict(core.PropCertConsistency).OK() {
		t.Fatal("commit-only run failed CC")
	}
	// Definition 1 does not evaluate CC at all.
	r = Evaluate(res, Def1Eventual())
	if _, present := r.Lookup(core.PropCertConsistency); present {
		t.Fatal("Definition-1 evaluation produced a CC verdict")
	}
}

func TestConservation(t *testing.T) {
	res := fabricate(2)
	led := ledger.New("e0")
	if err := led.Mint(0, "c0", 100); err != nil {
		t.Fatal(err)
	}
	res.Book.Add(led)
	r := Evaluate(res, Def1Eventual())
	if !r.Verdict(core.PropConservation).OK() {
		t.Fatal("clean ledger failed conservation")
	}
}

func TestSummary(t *testing.T) {
	res := fabricate(2)
	good := Evaluate(res, Def1Eventual())
	res2 := fabricate(2)
	res2.BobPaid = false
	bad := Evaluate(res2, Def1Eventual())

	s := NewSummary()
	s.Add(good)
	s.Add(bad)
	if s.Total != 2 {
		t.Fatalf("total = %d", s.Total)
	}
	if s.Clean() {
		t.Fatal("summary with a violation reported clean")
	}
	violated := s.ViolatedProperties()
	if len(violated) != 1 || violated[0] != core.PropStrongLiveness {
		t.Fatalf("unexpected violated properties %v", violated)
	}
}

func TestReportHelpers(t *testing.T) {
	res := fabricate(2)
	res.BobPaid = false
	r := Evaluate(res, Def1Eventual())
	if r.AllOK() {
		t.Fatal("AllOK true despite liveness failure")
	}
	if !r.SafetyOK() {
		t.Fatal("SafetyOK false although only liveness failed")
	}
	fails := r.Failures()
	if len(fails) != 1 || fails[0] != core.PropStrongLiveness {
		t.Fatalf("unexpected failures %v", fails)
	}
	if r.String() == "" {
		t.Fatal("empty report rendering")
	}
}

// TestSlotsFollowPropertyOrder pins a report's slots — propertyOrder, the
// slot Evaluate writes each checker's verdict to, and the slot Lookup reads
// it from — to core.AllProperties' canonical order.
func TestSlotsFollowPropertyOrder(t *testing.T) {
	if all := core.AllProperties(); !reflect.DeepEqual(all, propertyOrder[:]) {
		t.Fatalf("slots hold %v, want core.AllProperties() %v", propertyOrder, all)
	}
	r := Evaluate(fabricate(2), Def2(0))
	for i, v := range r.verdicts {
		if v.Property != propertyOrder[i] {
			t.Errorf("Evaluate wrote %s's verdict to %s's slot", v.Property, propertyOrder[i])
		}
		if got := slotOf(propertyOrder[i]); got != i {
			t.Errorf("Lookup reads %s from slot %d, want %d", propertyOrder[i], got, i)
		}
	}
	if slotOf("") >= 0 || slotOf("X") >= 0 {
		t.Error("Lookup finds a slot for a property that has none")
	}
}

// The reference: the per-property checkers Evaluate's one pass replaced, each
// its own loop over the customers with its own reading of honesty, and each
// failure's text formatted on the spot. Evaluate must write what they return
// to every slot (MatchReference).

// refVerdict is a verdict as the reference returns it, with its text.
type refVerdict struct {
	Property   core.Property
	Applicable bool
	Holds      bool
	Detail     string
}

func (v *refVerdict) fail(format string, args ...any) {
	v.Holds = false
	v.Detail = fmt.Sprintf(format, args...)
}

// referenceEvaluate is Evaluate as the reference computes it.
func referenceEvaluate(res *core.RunResult, opts Options) (v [numSlots]refVerdict) {
	v[slotC] = checkConsistency(res)
	v[slotT] = checkTermination(res, opts)
	v[slotES] = checkEscrowSecurity(res)
	v[slotCS1] = checkCS1(res, opts)
	v[slotCS2] = checkCS2(res, opts)
	v[slotCS3] = checkCS3(res)
	v[slotL] = checkStrongLiveness(res)
	if opts.Definition2 {
		v[slotWL] = checkWeakLiveness(res, opts)
		v[slotCC] = checkCertConsistency(res)
	}
	v[slotCV] = checkConservation(res)
	return v
}

// MatchReference evaluates res under opts both ways and returns the first
// slot where Evaluate's verdict differs from the reference's — in property,
// applicability, holding or text — as an error, nil if none does.
func MatchReference(res *core.RunResult, opts Options) error {
	want := referenceEvaluate(res, opts)
	got := Evaluate(res, opts)
	for i, w := range want {
		g := got.verdicts[i]
		if gv := (refVerdict{g.Property, g.Applicable, g.Holds, g.Detail()}); gv != w {
			return fmt.Errorf("slot %d: Evaluate wrote %+v, the reference %+v", i, gv, w)
		}
	}
	return nil
}

// escrowsHonest reports whether the escrows of customer c_i all abide by the
// protocol in the scenario.
func escrowsHonest(res *core.RunResult, i int) bool {
	if i > 0 && res.EscrowByzantine(i-1) {
		return false
	}
	if i < res.Scenario.Topology.N && res.EscrowByzantine(i) {
		return false
	}
	return true
}

// checkConsistency is the operational reading of property C: the engine could
// execute every honest participant's role without getting stuck on an
// impossible instruction. A run error or an entry in the run's consistency
// record (core.World.Report) falsifies it.
func checkConsistency(res *core.RunResult) refVerdict {
	v := refVerdict{Property: core.PropConsistency, Applicable: true, Holds: true}
	if res.Err != nil {
		v.fail("engine error: %v", res.Err)
		return v
	}
	// A violation is the actor's own inconsistency and takes precedence; a
	// detection means the engine produced an instruction that an honest
	// receiver could not accept from an honest sender.
	if in := res.Violation; in.Actor != "" {
		v.fail("honest %s hit %s", in.Actor, in.Label)
	} else if in := res.Detection; in.Actor != "" {
		v.fail("honest %s rejected honest input: %s", in.Actor, in.Label)
	}
	return v
}

// checkTermination is property T: each customer that abides by the protocol
// and either makes a payment or issues a certificate terminates (within the
// bound, if one is configured), provided her escrows abide by the protocol.
func checkTermination(res *core.RunResult, opts Options) refVerdict {
	v := refVerdict{Property: core.PropTermination, Holds: true}
	topo := res.Scenario.Topology
	for i := 0; i <= topo.N; i++ {
		if res.CustomerByzantine(i) || !escrowsHonest(res, i) {
			continue
		}
		out := &res.Customers[i]
		// The obligation only covers customers who made a payment or issued a
		// certificate (Alice/connectors who paid in; Bob if he signed chi).
		if out.PaidOut == 0 && !out.IssuedChi && !out.HoldsCommitCert && !out.HoldsAbortCert {
			continue
		}
		v.Applicable = true
		if !out.Terminated {
			v.fail("%s never terminated", out.ID)
			return v
		}
		// The a-priori bound is measured from the customer's first protocol
		// obligation: Byzantine peers may legally delay when her
		// participation begins, but not how long it takes once begun.
		elapsed := out.TerminatedAt - out.StartedAt
		if out.StartedAt == 0 || elapsed < 0 {
			elapsed = out.TerminatedAt
		}
		if opts.TimeBound > 0 && elapsed > opts.TimeBound {
			v.fail("%s took %v from its first obligation, beyond the bound %v", out.ID, elapsed, opts.TimeBound)
			return v
		}
	}
	return v
}

// checkEscrowSecurity is property ES: each escrow that abides by the
// protocol does not lose money.
func checkEscrowSecurity(res *core.RunResult) refVerdict {
	v := refVerdict{Property: core.PropEscrowSecurity, Holds: true}
	for i := 0; i < res.Scenario.Topology.N; i++ {
		if res.EscrowByzantine(i) {
			continue
		}
		v.Applicable = true
		out := &res.Escrows[i]
		if out.BalanceDelta < 0 {
			v.fail("%s lost %d", out.ID, -out.BalanceDelta)
			return v
		}
		if out.AuditErr != nil {
			v.fail("%s audit: %v", out.ID, out.AuditErr)
			return v
		}
	}
	return v
}

// checkCS1 is customer security for Alice: upon termination, if Alice and
// her escrow abide by the protocol, Alice has either got her money back or
// received the certificate chi (Definition 1) / the commit certificate
// (Definition 2).
func checkCS1(res *core.RunResult, opts Options) refVerdict {
	v := refVerdict{Property: core.PropCS1, Holds: true}
	if res.CustomerByzantine(0) || !escrowsHonest(res, 0) {
		return v
	}
	out := &res.Customers[0]
	if !out.Terminated {
		return v // CS1 is an "upon termination" guarantee
	}
	v.Applicable = true
	gotMoneyBack := out.NetWealthChange() >= 0
	proof := out.HoldsChi
	if opts.Definition2 {
		proof = out.HoldsCommitCert
	}
	if !gotMoneyBack && !proof {
		v.fail("Alice lost %d without proof of payment", -out.NetWealthChange())
	}
	return v
}

// checkCS2 is customer security for Bob: upon termination, if Bob and his
// escrow abide by the protocol, Bob has either received the money or not
// issued the certificate chi (Definition 1) / received the money or the
// abort certificate (Definition 2).
func checkCS2(res *core.RunResult, opts Options) refVerdict {
	v := refVerdict{Property: core.PropCS2, Holds: true}
	n := res.Scenario.Topology.N
	if res.CustomerByzantine(n) || !escrowsHonest(res, n) {
		return v
	}
	out := &res.Customers[n]
	if !out.Terminated && !out.IssuedChi {
		return v
	}
	v.Applicable = true
	received := out.Received > 0 || out.NetWealthChange() > 0
	if opts.Definition2 {
		if !received && !out.HoldsAbortCert && out.Terminated {
			v.Holds = false
			v.Detail = "Bob terminated with neither the money nor the abort certificate"
		}
		return v
	}
	if !received && out.IssuedChi {
		v.Holds = false
		v.Detail = "Bob issued chi but never received the money"
	}
	return v
}

// checkCS3 is customer security for connectors: upon termination, each
// connector that abides by the protocol has got her money back (i.e. her
// wealth did not decrease; a positive commission is acceptable), provided
// her escrows abide by the protocol.
func checkCS3(res *core.RunResult) refVerdict {
	v := refVerdict{Property: core.PropCS3, Holds: true}
	topo := res.Scenario.Topology
	for i := 1; i < topo.N; i++ {
		if res.CustomerByzantine(i) || !escrowsHonest(res, i) {
			continue
		}
		out := &res.Customers[i]
		if !out.Terminated {
			continue
		}
		v.Applicable = true
		if out.NetWealthChange() < 0 {
			v.fail("connector %s lost %d", out.ID, -out.NetWealthChange())
			return v
		}
	}
	return v
}

// checkStrongLiveness is property L of Definition 1: if all parties abide by
// the protocol, Bob is paid eventually.
func checkStrongLiveness(res *core.RunResult) refVerdict {
	v := refVerdict{Property: core.PropStrongLiveness, Holds: true}
	if !res.AllHonest() {
		return v
	}
	v.Applicable = true
	if !res.BobPaid {
		v.Holds = false
		v.Detail = "all parties abided but Bob was not paid"
	}
	return v
}

// checkWeakLiveness is property L of Definition 2: if all parties abide by
// the protocol and the customers wait sufficiently long before and after
// sending money, Bob is eventually paid.
func checkWeakLiveness(res *core.RunResult, opts Options) refVerdict {
	v := refVerdict{Property: core.PropWeakLiveness, Holds: true}
	if !res.AllHonest() {
		return v
	}
	for i := 0; i <= res.Scenario.Topology.N; i++ {
		p := res.Scenario.PatienceOf(core.CustomerID(i))
		if p != 0 && p < opts.PatiencePrecondition {
			return v // some customer was not patient enough: nothing owed
		}
	}
	v.Applicable = true
	if !res.BobPaid {
		v.Holds = false
		v.Detail = "all parties abided and waited, but Bob was not paid"
	}
	return v
}

// checkCertConsistency is property CC of Definition 2: an abort and a commit
// certificate can never both be issued.
func checkCertConsistency(res *core.RunResult) refVerdict {
	v := refVerdict{Property: core.PropCertConsistency, Applicable: true, Holds: true}
	if res.CommitIssued && res.AbortIssued {
		v.Holds = false
		v.Detail = "both commit and abort certificates were issued"
	}
	return v
}

// checkConservation is the engineering invariant that every ledger conserves
// value (money is neither created nor destroyed, only moved or locked).
func checkConservation(res *core.RunResult) refVerdict {
	v := refVerdict{Property: core.PropConservation, Applicable: true, Holds: true}
	if res.Book == nil {
		v.Applicable = false
		return v
	}
	if err := res.Book.AuditAll(); err != nil {
		v.Holds = false
		v.Detail = err.Error()
	}
	return v
}

// fabricateRandom builds a result by hand from seed: a chain of 1 to 12
// escrows whose participants each deviate with probability 1/4, with
// customer outcomes, certificates, escrow accounts, incidents and patience
// drawn at random, a book that is absent, clean or fails its audit, and the
// options of either Definition with or without bounds.
func fabricateRandom(seed uint64) (*core.RunResult, Options) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	coin := func() bool { return rng.IntN(2) == 0 }
	half := func() sim.Time { return sim.Time(rng.IntN(4)) * sim.Second / 2 }
	s := core.NewScenario(1+rng.IntN(12), 1)
	ids := append(s.Topology.Customers(), append(s.Topology.Escrows(), core.ManagerID)...)
	for _, id := range ids {
		if rng.IntN(4) == 0 {
			s = s.SetFault(id, core.FaultSpec{Silent: true})
		}
	}
	for _, id := range s.Topology.Customers() {
		if rng.IntN(4) == 0 {
			s = s.SetPatience(id, half())
		}
	}
	res := &core.RunResult{Protocol: "fabricated", Scenario: &s}
	for _, id := range s.Topology.Customers() {
		res.Customers = append(res.Customers, core.CustomerOutcome{
			ID: id, Terminated: coin(), StartedAt: half(), TerminatedAt: half(),
			WealthBefore: 100, WealthAfter: 100 + int64(rng.IntN(5)-2)*10,
			PaidOut: int64(rng.IntN(2)) * 10, Received: int64(rng.IntN(2)) * 10,
			HoldsChi: coin(), IssuedChi: coin(), HoldsCommitCert: coin(), HoldsAbortCert: coin(),
		})
	}
	for _, id := range s.Topology.Escrows() {
		e := core.EscrowOutcome{ID: id, BalanceDelta: int64(rng.IntN(3) - 1)}
		if rng.IntN(4) == 0 {
			e.AuditErr = errors.New("ledger " + id + ": conservation violated")
		}
		res.Escrows = append(res.Escrows, e)
	}
	res.BobPaid, res.CommitIssued, res.AbortIssued = coin(), coin(), coin()
	switch rng.IntN(8) {
	case 0:
		res.Err = errors.New("boom")
	case 1:
		res.Violation = core.Incident{Actor: ids[rng.IntN(len(ids))], Label: "double-release"}
	case 2:
		res.Detection = core.Incident{Actor: ids[rng.IntN(len(ids))], Label: "invalid-certificate"}
	}
	switch rng.IntN(3) {
	case 0:
		res.Book = ledger.NewBook()
		res.Book.Add(ledger.FromState(ledger.LedgerState{Name: "e0", Minted: 7,
			Accounts: []ledger.AccountState{{Owner: "c0", Balance: 5}}}))
	case 1:
		res.Book = ledger.NewBook()
	}
	opts := Options{TimeBound: half(), Definition2: coin(), PatiencePrecondition: half()}
	return res, opts
}

// FuzzEvaluateMatchesReference checks Evaluate's one pass against the
// per-property reference on fabricated results: every slot's property,
// applicability, holding and text.
func FuzzEvaluateMatchesReference(f *testing.F) {
	for seed := range uint64(512) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		res, opts := fabricateRandom(seed)
		if err := MatchReference(res, opts); err != nil {
			t.Fatalf("seed %d, n=%d, %+v: %v", seed, res.Scenario.Topology.N, opts, err)
		}
	})
}

// TestFailingVerdictsAllocateNothing judges a failed n=8 result — Alice lost
// money without chi, c2 never terminated, connector c3 lost money, Bob went
// unpaid although everyone abided — into a kept report: the judging
// allocates nothing, and each failure's text, rendered when read, is the
// one the checkers have always written. So does a faulted run's.
func TestFailingVerdictsAllocateNothing(t *testing.T) {
	res := fabricate(8)
	setOutcome(res, "c0", func(o *core.CustomerOutcome) { o.PaidOut, o.WealthBefore, o.WealthAfter = 10, 100, 90 })
	setOutcome(res, "c2", func(o *core.CustomerOutcome) { o.PaidOut, o.Terminated = 10, false })
	setOutcome(res, "c3", func(o *core.CustomerOutcome) { o.WealthBefore, o.WealthAfter = 100, 95 })
	res.BobPaid = false
	opts := Def1TimeBounded(time(1))
	var rep Report
	if allocs := testing.AllocsPerRun(100, func() { rep.Evaluate(res, opts) }); allocs != 0 {
		t.Fatalf("judging a failed n=8 result allocates %.1f times", allocs)
	}
	pinned := map[core.Property]string{
		core.PropTermination:    "c2 never terminated",
		core.PropCS1:            "Alice lost 10 without proof of payment",
		core.PropCS3:            "connector c3 lost 5",
		core.PropStrongLiveness: "all parties abided but Bob was not paid",
	}
	if got := rep.Failures(); len(got) != len(pinned) {
		t.Fatalf("failures %v, want those of %v", got, pinned)
	}
	for p, want := range pinned {
		if got := rep.Verdict(p).Detail(); got != want {
			t.Errorf("%s detail %q, want %q", p, got, want)
		}
	}
	if err := MatchReference(res, opts); err != nil {
		t.Fatal(err)
	}

	// Collecting and judging a faulted n=8 run on a world, with a silent c4,
	// allocates nothing either.
	s := core.NewScenario(8, 1).Muted().SetFault("c4", core.FaultSpec{Silent: true})
	w := core.NewWorld()
	if err := w.Reset(&s); err != nil {
		t.Fatal(err)
	}
	outcome := func(i int, out *core.CustomerOutcome) { out.PaidOut, out.Terminated = 10, i < 3 }
	if allocs := testing.AllocsPerRun(100, func() { rep.Evaluate(w.Collect("faulted", 0, outcome), opts) }); allocs != 0 {
		t.Fatalf("judging a faulted n=8 run allocates %.1f times", allocs)
	}
	if d := rep.Verdict(core.PropTermination).Detail(); d != "c3 never terminated" {
		t.Fatalf("faulted run's T detail %q", d)
	}
}

// TestKeptReportRendersAfterReset keeps the report of a run on a world,
// resets the world for another run and judges that: the kept report's text
// is unchanged, for it holds what it cites by value.
func TestKeptReportRendersAfterReset(t *testing.T) {
	w := core.NewWorld()
	s := core.NewScenario(3, 1).Muted()
	if err := w.Reset(&s); err != nil {
		t.Fatal(err)
	}
	w.Report(trace.Event{Kind: trace.KindViolation, Actor: "e1", Label: "double-release"}, nil)
	res := w.Collect("first", 0, func(i int, out *core.CustomerOutcome) {
		if i == 1 {
			out.PaidOut, out.Terminated, out.StartedAt, out.TerminatedAt = 10, true, time(1), time(4)
		}
	})
	kept := Evaluate(res, Def1TimeBounded(time(1)))
	if err := MatchReference(res, kept.Options); err != nil {
		t.Fatal(err)
	}
	want := "report(first)\n" +
		"  FAIL C   honest e1 hit double-release\n" +
		"  FAIL T   c1 took 3000.000ms from its first obligation, beyond the bound 1000.000ms\n" +
		"  PASS ES \n  N/A  CS1\n  N/A  CS2\n  PASS CS3\n" +
		"  FAIL L   all parties abided but Bob was not paid\n" +
		"  PASS CV \n"
	if got := kept.String(); got != want {
		t.Fatalf("kept report renders\n%s\nwant\n%s", got, want)
	}

	other := core.NewScenario(5, 1).Muted().SetFault("c2", core.FaultSpec{Silent: true})
	if err := w.Reset(&other); err != nil {
		t.Fatal(err)
	}
	w.Report(trace.Event{Kind: trace.KindDetection, Actor: "e3", Label: "wrong-amount"}, nil)
	res = w.Collect("second", 0, func(i int, out *core.CustomerOutcome) { out.PaidOut = 1 })
	if rep := Evaluate(res, Def1Eventual()); rep.Verdict(core.PropTermination).Detail() != "c0 never terminated" {
		t.Fatalf("second run judged\n%s", &rep)
	}
	if got := kept.String(); got != want {
		t.Fatalf("after the world's reset the kept report renders\n%s\nwant\n%s", got, want)
	}
}
