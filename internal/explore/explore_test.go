package explore

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/netsim"
	"repro/internal/notary"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/weaklive"
)

func TestCandidatesCoverFiniteAndInfinite(t *testing.T) {
	cands := Candidates()
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	var hasInfinite, hasFinite bool
	for _, c := range cands {
		if c.Scale <= 0 {
			hasInfinite = true
		} else {
			hasFinite = true
		}
		if c.Build == nil || c.Name == "" {
			t.Fatalf("candidate %+v incomplete", c)
		}
	}
	if !hasInfinite || !hasFinite {
		t.Fatal("the family must contain both finite and infinite timeout variants")
	}
}

func TestAttacksMatchProtocolMessages(t *testing.T) {
	atts := Attacks(1 * sim.Second)
	if len(atts) < 2 {
		t.Fatalf("only %d attacks", len(atts))
	}
	byName := map[string]Attack{}
	for _, a := range atts {
		byName[a.Name] = a
		if a.Holdback <= 0 {
			t.Errorf("attack %s has no holdback", a.Name)
		}
	}
	if !byName["delay-certificates"].Matches("chi(pay by c3)") {
		t.Error("certificate attack does not match certificate messages")
	}
	if byName["delay-certificates"].Matches("$(100)") {
		t.Error("certificate attack matches money messages")
	}
	if !byName["delay-money"].Matches("$(100)") {
		t.Error("money attack does not match money messages")
	}
	if !byName["delay-promises"].Matches("P(a=1ms from e0 to c1)") {
		t.Error("promise attack does not match promises")
	}
}

// TestAttacksClassifyByHead: a schedule reads a message's head, not its
// description (netsim.HeadOf), so every protocol message — both Theorem-1
// engines send the timelock ones, the ANTA adapters as their fields — has a
// head its description starts with, and every attack answers the same on
// either. internal/deals holds its own unexported seven to the same
// (TestMessageHeads there), and scenariogen's TestMessagesImmutableInFlight
// every message any engine actually sends.
func TestAttacksClassifyByHead(t *testing.T) {
	cert := sig.DecisionCert{Decision: sig.DecisionCommit, PaymentID: "pay", Manager: "manager"}
	for _, m := range []netsim.Message{
		&timelock.MsgGuarantee{G: sig.Guarantee{Escrow: "e0", Customer: "c0", D: sim.Second}},
		&timelock.MsgPromise{P: sig.Promise{Escrow: "e0", Customer: "c1", A: sim.Second}},
		&timelock.MsgMoney{Amount: 100}, &timelock.MsgMoney{Amount: 100, Refund: true},
		&timelock.MsgCert{Cert: sig.PaymentCert{PaymentID: "pay", Issuer: "c3"}},
		&htlc.MsgCreateLock{Amount: 7}, &htlc.MsgLockCreated{}, &htlc.MsgClaim{}, &htlc.MsgClaimed{}, &htlc.MsgPaid{}, &htlc.MsgRefunded{},
		&weaklive.MsgPay{}, &weaklive.MsgPayout{}, &weaklive.MsgPayout{Refund: true},
		&notary.MsgPrepared{Escrow: "e1"}, &notary.MsgAbortRequest{Customer: "c2"},
		&notary.MsgDecision{Cert: cert}, &notary.MsgDecision{Cert: sig.DecisionCert{Decision: sig.DecisionAbort}},
		&notary.MsgPrePrepare{Decision: sig.DecisionCommit, View: 2, Leader: "notary2"},
		&notary.MsgPrepare{Decision: sig.DecisionAbort, View: 1, Voter: "notary0"},
		&notary.MsgCommitVote{Decision: sig.DecisionCommit, Voter: "notary3"},
		&notary.MsgViewChange{NewView: 3, Voter: "notary1"},
	} {
		head, ok := m.(interface{ Head() string })
		if !ok {
			t.Errorf("%T has no Head method", m)
			continue
		}
		if h := head.Head(); h == "" || h != netsim.HeadOf(m) || !strings.HasPrefix(m.Describe(), h) {
			t.Errorf("%T: description %q does not start with head %q", m, m.Describe(), h)
		}
		for _, a := range Attacks(sim.Second) {
			if a.Matches(head.Head()) != a.Matches(m.Describe()) {
				t.Errorf("%s matches %T by head %q differently than by description %q", a.Name, m, head.Head(), m.Describe())
			}
		}
	}
	if netsim.HeadOf(netsim.RawMessage{Label: "chi(raw)"}) != "chi(raw)" {
		t.Error("a message without a head is not classified by its description")
	}
}

func TestAttacksHoldbackCapped(t *testing.T) {
	a := Attacks(0)
	if a[0].Holdback != sim.Hour {
		t.Fatalf("zero window should cap the holdback at one hour, got %v", a[0].Holdback)
	}
}

func TestControlUnderSynchrony(t *testing.T) {
	ok, err := ControlUnderSynchrony(Options{N: 2, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	for cand, pass := range ok {
		if !pass {
			t.Errorf("candidate %s violates Definition 1 even under synchrony", cand)
		}
	}
}

func TestSearchImpossibilityAndTheorem2(t *testing.T) {
	findings := SearchImpossibility(Options{N: 2, Seeds: []int64{1, 2}, Horizon: 10 * sim.Minute})
	if len(findings) == 0 {
		t.Fatal("no findings produced")
	}
	if err := VerifyTheorem2(findings); err != nil {
		t.Fatalf("Theorem 2 not reproduced: %v", err)
	}
	// The characteristic trade-off: some finite-timeout candidate loses
	// strong liveness, and the infinite-timeout candidate loses termination.
	var finiteLosesLiveness, infiniteLosesTermination bool
	for _, f := range findings {
		for _, p := range f.Violated {
			if p == core.PropStrongLiveness && f.Candidate != "timelock-infinite" {
				finiteLosesLiveness = true
			}
			if p == core.PropTermination && f.Candidate == "timelock-infinite" {
				infiniteLosesTermination = true
			}
		}
	}
	if !finiteLosesLiveness {
		t.Error("no finite-timeout candidate lost strong liveness under any attack")
	}
	if !infiniteLosesTermination {
		t.Error("the infinite-timeout candidate never lost termination under any attack")
	}
}

func TestVerifyTheorem2RejectsSurvivors(t *testing.T) {
	findings := []Finding{
		{Candidate: "clean", Attack: "a", Violated: nil},
		{Candidate: "broken", Attack: "a", Violated: []core.Property{core.PropStrongLiveness}},
	}
	if err := VerifyTheorem2(findings); err == nil {
		t.Fatal("a surviving candidate must be reported")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.N <= 0 || len(o.Seeds) == 0 || o.Horizon <= 0 {
		t.Fatalf("incomplete defaults %+v", o)
	}
}
