package check

import (
	"errors"
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
	if want := "honest e1 rejected honest input: invalid-certificate"; v.Detail != want {
		t.Fatalf("detail %q, want %q", v.Detail, want)
	}
	// A violation is the actor's own inconsistency: a Byzantine peer never
	// excuses it.
	v = reported(t, "c2", trace.Event{Kind: trace.KindViolation, Actor: "e1", Peer: "c2", Label: "double-release"})
	if v.OK() {
		t.Fatal("an honest participant's own violation passed C because its peer was Byzantine")
	}
	if want := "honest e1 hit double-release"; v.Detail != want {
		t.Fatalf("detail %q, want %q", v.Detail, want)
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
			t.Errorf("%s violated although no customer abides: %s", p, v.Detail)
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
