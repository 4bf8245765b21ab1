package weaklive

import (
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/notary"
	"repro/internal/sig"
	"repro/internal/sim"
)

// partialSynchrony returns a partial-synchrony network model with the given
// GST; after GST messages respect the scenario's Delta.
func partialSynchrony(gst sim.Time) netsim.DelayModel {
	return netsim.PartialSynchrony{
		GST:       gst,
		Delta:     core.DefaultTiming().MaxMsgDelay,
		MaxPreGST: 500 * sim.Millisecond,
	}
}

// patientScenario gives every customer a generous finite patience so that
// runs always terminate even when a decision requires an abort.
func patientScenario(n int, seed int64, patience sim.Time) core.Scenario {
	s := core.NewScenario(n, seed)
	for _, id := range s.Topology.Customers() {
		s = s.SetPatience(id, patience)
	}
	return s
}

func TestTrustedHappyPathCommits(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for seed := int64(0); seed < 3; seed++ {
			s := patientScenario(n, seed, 10*sim.Second)
			res, err := New().Run(s)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.BobPaid {
				t.Fatalf("n=%d seed=%d: Bob not paid\n%s", n, seed, res.Trace)
			}
			if !res.CommitIssued || res.AbortIssued {
				t.Fatalf("n=%d seed=%d: expected commit only, got commit=%v abort=%v", n, seed, res.CommitIssued, res.AbortIssued)
			}
			if !res.AllTerminated {
				t.Fatalf("n=%d seed=%d: not all customers terminated", n, seed)
			}
			alice := res.Outcome(s.Topology.Alice())
			if !alice.HoldsCommitCert {
				t.Errorf("n=%d seed=%d: Alice does not hold the commit certificate", n, seed)
			}
			rep := check.Evaluate(res, check.Def2(0))
			if !rep.AllOK() {
				t.Errorf("n=%d seed=%d: Definition-2 properties violated:\n%s", n, seed, rep)
			}
		}
	}
}

func TestCommitteeHappyPathCommits(t *testing.T) {
	for _, size := range []int{1, 4, 7} {
		s := patientScenario(3, 42, 20*sim.Second)
		res, err := NewCommittee(size).Run(s)
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if !res.BobPaid {
			t.Fatalf("size=%d: Bob not paid\n%s", size, res.Trace)
		}
		rep := check.Evaluate(res, check.Def2(0))
		if !rep.AllOK() {
			t.Errorf("size=%d: Definition-2 properties violated:\n%s", size, rep)
		}
	}
}

func TestImpatientCustomerAborts(t *testing.T) {
	// c1's patience is far too short: it will request an abort before the
	// escrows finish preparing. Nobody may lose money, and both certificates
	// must never coexist.
	s := core.NewScenario(3, 7)
	for _, id := range s.Topology.Customers() {
		s = s.SetPatience(id, 5*sim.Second)
	}
	s = s.SetPatience("c1", 1*sim.Millisecond)
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitIssued && res.AbortIssued {
		t.Fatal("both commit and abort certificates issued")
	}
	rep := check.Evaluate(res, check.Def2(2*sim.Second))
	if !rep.SafetyOK() {
		t.Fatalf("safety violated:\n%s", rep)
	}
	for _, id := range s.Topology.Customers() {
		out := res.Outcome(id)
		if out.NetWealthChange() < 0 {
			t.Errorf("%s lost %d after an abort", id, -out.NetWealthChange())
		}
		if !out.Terminated {
			t.Errorf("%s did not terminate", id)
		}
	}
}

func TestSilentEscrowLeadsToAbortWithoutLosses(t *testing.T) {
	s := patientScenario(3, 11, 2*sim.Second)
	s = s.SetFault("e1", core.FaultSpec{Silent: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob was paid although e1 never prepared")
	}
	if res.CommitIssued {
		t.Fatal("commit issued although e1 never prepared")
	}
	rep := check.Evaluate(res, check.Def2(1*sim.Second))
	if !rep.SafetyOK() {
		t.Fatalf("safety violated:\n%s", rep)
	}
	// Customers of honest escrows must not lose money; c1 and c2 bank at the
	// Byzantine e1 (c1 downstream, c2 upstream), so only c0, c3 are owed.
	for _, id := range []string{"c0", "c3"} {
		out := res.Outcome(id)
		if out.NetWealthChange() < 0 {
			t.Errorf("%s lost %d", id, -out.NetWealthChange())
		}
	}
}

func TestPartialSynchronyCommitsAfterGST(t *testing.T) {
	// Messages are slow before GST; with patient customers the protocol
	// simply waits and commits after the network stabilises (Theorem 3's
	// weak liveness under partial synchrony).
	s := patientScenario(3, 23, 30*sim.Second).WithNetwork(partialSynchrony(2 * sim.Second))
	for _, p := range []*Protocol{New(), NewCommittee(4)} {
		res, err := p.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !res.BobPaid {
			t.Fatalf("%s: Bob not paid under partial synchrony with patient customers", p.Name())
		}
		rep := check.Evaluate(res, check.Def2(10*sim.Second))
		if !rep.AllOK() {
			t.Errorf("%s: Definition-2 properties violated:\n%s", p.Name(), rep)
		}
	}
}

func TestImpatienceUnderPartialSynchronyIsSafe(t *testing.T) {
	// Customers with little patience under a slow pre-GST network: the
	// outcome may be abort, but nobody with honest escrows loses money and
	// the two certificates never coexist.
	s := patientScenario(4, 31, 300*sim.Millisecond).WithNetwork(partialSynchrony(5 * sim.Second))
	for _, p := range []*Protocol{New(), NewCommittee(4)} {
		res, err := p.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		rep := check.Evaluate(res, check.Def2(10*sim.Second))
		if !rep.SafetyOK() {
			t.Errorf("%s: safety violated:\n%s", p.Name(), rep)
		}
		if v := rep.Verdict(core.PropTermination); !v.OK() {
			t.Errorf("%s: termination violated: %s", p.Name(), v.Detail())
		}
	}
}

func TestCommitteeToleratesMinorityFaults(t *testing.T) {
	// A 4-notary committee tolerates one faulty notary (f=1): silent or
	// crashed notary0 (the first leader) must not block the decision, thanks
	// to view changes.
	for _, fault := range []core.FaultSpec{{Silent: true}, {Crash: true, CrashAt: 0}} {
		s := patientScenario(2, 5, 60*sim.Second)
		s = s.SetFault(core.NotaryID(0), fault)
		res, err := NewCommittee(4).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BobPaid {
			t.Fatalf("fault %+v: Bob not paid although only 1 of 4 notaries is faulty\n%s", fault, res.Trace)
		}
		rep := check.Evaluate(res, check.Def2(0))
		if !rep.AllOK() {
			t.Errorf("fault %+v: properties violated:\n%s", fault, rep)
		}
	}
}

func TestCommitteeWithTooManyFaultsStillSafe(t *testing.T) {
	// With f >= n/3 faulty (2 silent notaries out of 4) the committee cannot
	// decide: liveness is lost, but certificate consistency and customer
	// safety must survive. Customers eventually lose patience; their abort
	// requests also cannot be decided, so funds stay locked — which is
	// exactly why the paper requires less than one-third unreliable notaries.
	s := patientScenario(2, 9, 500*sim.Millisecond)
	s = s.SetFault(core.NotaryID(0), core.FaultSpec{Silent: true})
	s = s.SetFault(core.NotaryID(1), core.FaultSpec{Silent: true})
	res, err := NewCommittee(4).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitIssued || res.AbortIssued {
		t.Fatal("a certificate was issued without a live quorum")
	}
	rep := check.Evaluate(res, check.Def2(0))
	if v := rep.Verdict(core.PropCertConsistency); !v.OK() {
		t.Errorf("CC violated: %s", v.Detail())
	}
	if v := rep.Verdict(core.PropEscrowSecurity); !v.OK() {
		t.Errorf("ES violated: %s", v.Detail())
	}
}

func TestEquivocatingTrustedManagerViolatesCC(t *testing.T) {
	// A Byzantine (equivocating) single manager can issue both certificates;
	// the checker must notice. This documents why trusting a single party is
	// a strong assumption, and why the committee realisation exists.
	s := patientScenario(2, 3, 50*sim.Millisecond)
	s = s.SetFault(core.ManagerID, core.FaultSpec{Equivocate: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CommitIssued || !res.AbortIssued {
		t.Skip("equivocation did not trigger both certificates in this schedule")
	}
	rep := check.Evaluate(res, check.Def2(0))
	if rep.Verdict(core.PropCertConsistency).OK() {
		t.Fatal("CC reported OK although both certificates were issued")
	}
}

func TestDeterminism(t *testing.T) {
	s := patientScenario(3, 77, 5*sim.Second)
	for _, p := range []*Protocol{New(), NewCommittee(4)} {
		a, err := p.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Duration != b.Duration || a.EventsFired != b.EventsFired || a.BobPaid != b.BobPaid {
			t.Fatalf("%s: runs with identical scenarios differ", p.Name())
		}
		if a.Trace.Len() != b.Trace.Len() {
			t.Fatalf("%s: trace lengths differ: %d vs %d", p.Name(), a.Trace.Len(), b.Trace.Len())
		}
	}
}

func TestNames(t *testing.T) {
	if New().Name() != "weaklive-trusted" {
		t.Errorf("unexpected name %q", New().Name())
	}
	if NewCommittee(7).Name() != "weaklive-committee-7" {
		t.Errorf("unexpected name %q", NewCommittee(7).Name())
	}
	if NewCommittee(0).Name() != "weaklive-committee-4" {
		t.Errorf("unexpected default-size name %q", NewCommittee(0).Name())
	}
}

// TestSameDecisionCertNotReverified: a customer who holds a certificate for
// a decision, and an escrow that has seen one, pay no signature verification
// for another certificate of that decision; one for the other decision is
// still verified, and a customer still comes to hold both.
func TestSameDecisionCertNotReverified(t *testing.T) {
	w := core.NewWorld()
	s := core.NewScenario(2, 4).WithCrypto("hmac") // no memo: every Keyring.Verify is a miss
	// A silent e1 never reports, so nothing is decided until Bob asks to abort.
	s = s.SetFault(core.EscrowID(1), core.FaultSpec{Silent: true}).SetPatience(core.CustomerID(2), 10*sim.Second)
	res, err := NewCommittee(4).RunIn(w, s)
	if err != nil || res.CommitIssued || !res.AbortIssued {
		t.Fatalf("err=%v commit=%v abort=%v, want an abort", err, res.CommitIssued, res.AbortIssued)
	}
	run := core.Standing[runState](w)
	kr, ids, pids := w.Keyring(), run.mgr.IDs(), run.mgr.PIDs()
	verifies := func(deliver func()) uint64 {
		before := kr.Stats()
		deliver()
		after := kr.Stats()
		return after.MemoHits + after.MemoMisses - before.MemoHits - before.MemoMisses
	}
	cert := func(d sig.Decision) *notary.MsgDecision {
		m := &notary.MsgDecision{Cert: sig.DecisionCert{PaymentID: s.Spec.PaymentID, Decision: d, Manager: core.ManagerID,
			IssuedAt: w.Eng.Now(), Signers: slices.Clone(ids[:3]), Quorum: 3}}
		m.Cert.Sign(kr, pids[:3])
		return m
	}
	// c1 paid in and, e1 being silent, never got her refund there: she holds
	// the abort certificate and is still listening.
	c1 := &run.customers[1]
	if !c1.hasAbort || c1.hasCommit || !c1.active() {
		t.Fatalf("c1: abort=%v commit=%v active=%v", c1.hasAbort, c1.hasCommit, c1.active())
	}
	if n := verifies(func() { c1.Deliver(run.mgr.PIDs()[0], cert(sig.DecisionAbort)) }); n != 0 {
		t.Errorf("a customer holding an abort certificate verified %d signatures of a second one", n)
	}
	if n := verifies(func() { c1.Deliver(run.mgr.PIDs()[0], cert(sig.DecisionCommit)) }); n != 3 || !c1.hasCommit || !c1.hasAbort {
		t.Errorf("a commit certificate after an abort one: %d signatures verified, commit=%v abort=%v; want 3 and both", n, c1.hasCommit, c1.hasAbort)
	}
	if n := verifies(func() { c1.Deliver(run.mgr.PIDs()[0], cert(sig.DecisionCommit)) }); n != 0 {
		t.Errorf("a customer holding both certificates verified %d signatures of a third", n)
	}
	// An escrow that learnt the decision before any money arrived keeps
	// waiting for a lock to settle, and verifies the decision once.
	e0 := &run.escrows[0]
	*e0 = newEscrowProc(run, 0)
	if n := verifies(func() { e0.Deliver(run.mgr.PIDs()[0], cert(sig.DecisionAbort)) }); n != 3 || e0.decided != sig.DecisionAbort || e0.settled {
		t.Fatalf("an escrow's first certificate: %d signatures verified, decided %q, settled=%v", n, e0.decided, e0.settled)
	}
	if n := verifies(func() { e0.Deliver(run.mgr.PIDs()[1], cert(sig.DecisionAbort)) }); n != 0 {
		t.Errorf("an escrow that knows the decision verified %d signatures of a second certificate for it", n)
	}
}
