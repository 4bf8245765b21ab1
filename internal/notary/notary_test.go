package notary

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// harness drives a manager implementation directly, playing the role of the
// escrows and customers: it feeds prepared / abort-request messages and
// records the decision certificates delivered to a probe participant.
type harness struct {
	eng  *sim.Engine
	net  *netsim.Network
	kr   *sig.Keyring
	tr   *trace.Trace
	deps Deps

	decisions []sig.DecisionCert
}

const testPaymentID = "pay-test"

func newHarness(t *testing.T, numEscrows int, faults map[string]core.FaultSpec) *harness {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := netsim.New(eng, netsim.Synchronous{Min: 1 * sim.Millisecond, Max: 5 * sim.Millisecond}, tr)
	kr := sig.NewKeyring("test", []string{"probe", "escrow-driver", "customer-driver"})
	h := &harness{eng: eng, net: net, kr: kr, tr: tr}
	net.Register(&netsim.FuncNode{Id: "probe", Handler: func(from string, msg netsim.Message) {
		if d, ok := msg.(MsgDecision); ok {
			h.decisions = append(h.decisions, d.Cert)
		}
	}})
	net.Register(&netsim.FuncNode{Id: "escrow-driver"})
	net.Register(&netsim.FuncNode{Id: "customer-driver"})
	h.deps = Deps{
		Net:        net,
		Eng:        eng,
		Kr:         kr,
		Tr:         tr,
		PaymentID:  testPaymentID,
		NumEscrows: numEscrows,
		Recipients: []string{"probe"},
		Timing:     core.DefaultTiming(),
		FaultOf:    func(id string) core.FaultSpec { return faults[id] },
		KeySeed:    "test",
	}
	return h
}

func (h *harness) sendPrepared(mgr Manager, escrow string, at sim.Time) {
	h.eng.ScheduleAt(at, "prepared", func() {
		for _, id := range mgr.IDs() {
			h.net.Send("escrow-driver", id, MsgPrepared{PaymentID: testPaymentID, Escrow: escrow})
		}
	})
}

func (h *harness) sendAbortRequest(mgr Manager, customer string, at sim.Time) {
	h.eng.ScheduleAt(at, "abort-request", func() {
		for _, id := range mgr.IDs() {
			h.net.Send("customer-driver", id, MsgAbortRequest{PaymentID: testPaymentID, Customer: customer})
		}
	})
}

func (h *harness) run() { h.eng.Run(500_000) }

func (h *harness) decisionKinds() (commit, abort bool) {
	for _, c := range h.decisions {
		switch c.Decision {
		case sig.DecisionCommit:
			commit = true
		case sig.DecisionAbort:
			abort = true
		}
	}
	return
}

func TestTrustedCommitsWhenAllPrepared(t *testing.T) {
	h := newHarness(t, 3, nil)
	mgr := NewTrusted(h.deps)
	for i := 0; i < 3; i++ {
		h.sendPrepared(mgr, core.EscrowID(i), sim.Time(i+1)*sim.Millisecond)
	}
	h.run()
	commit, abort := h.decisionKinds()
	if !commit || abort {
		t.Fatalf("expected commit only, got commit=%v abort=%v", commit, abort)
	}
	if !mgr.CommitIssued() || mgr.AbortIssued() {
		t.Fatalf("manager flags wrong: commit=%v abort=%v", mgr.CommitIssued(), mgr.AbortIssued())
	}
	for _, c := range h.decisions {
		if !c.Verify(h.kr) {
			t.Error("delivered certificate does not verify")
		}
	}
}

func TestTrustedDoesNotCommitWithMissingEscrow(t *testing.T) {
	h := newHarness(t, 3, nil)
	mgr := NewTrusted(h.deps)
	h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
	h.sendPrepared(mgr, core.EscrowID(1), 2*sim.Millisecond)
	h.run()
	if mgr.CommitIssued() || mgr.AbortIssued() {
		t.Fatal("manager decided without full preparation or an abort request")
	}
}

func TestTrustedAbortWinsIfFirst(t *testing.T) {
	h := newHarness(t, 2, nil)
	mgr := NewTrusted(h.deps)
	h.sendAbortRequest(mgr, "c1", 1*sim.Millisecond)
	h.sendPrepared(mgr, core.EscrowID(0), 20*sim.Millisecond)
	h.sendPrepared(mgr, core.EscrowID(1), 21*sim.Millisecond)
	h.run()
	commit, abort := h.decisionKinds()
	if commit || !abort {
		t.Fatalf("expected abort only, got commit=%v abort=%v", commit, abort)
	}
}

func TestTrustedIgnoresDuplicateAndLateRequests(t *testing.T) {
	h := newHarness(t, 1, nil)
	mgr := NewTrusted(h.deps)
	h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
	// Abort requests arriving after the decision must not produce a second
	// certificate.
	h.sendAbortRequest(mgr, "c0", 200*sim.Millisecond)
	h.sendAbortRequest(mgr, "c1", 201*sim.Millisecond)
	h.run()
	commit, abort := h.decisionKinds()
	if !commit || abort {
		t.Fatalf("expected commit only, got commit=%v abort=%v", commit, abort)
	}
}

func TestTrustedCrashNeverDecides(t *testing.T) {
	h := newHarness(t, 1, map[string]core.FaultSpec{core.ManagerID: {Crash: true, CrashAt: 0}})
	mgr := NewTrusted(h.deps)
	h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
	h.run()
	if mgr.CommitIssued() || mgr.AbortIssued() {
		t.Fatal("crashed manager decided")
	}
}

func TestCommitteeCommitsWhenAllPrepared(t *testing.T) {
	for _, size := range []int{1, 4, 7, 10} {
		h := newHarness(t, 2, nil)
		mgr := NewCommittee(h.deps, size)
		h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
		h.sendPrepared(mgr, core.EscrowID(1), 2*sim.Millisecond)
		h.run()
		commit, abort := h.decisionKinds()
		if !commit || abort {
			t.Fatalf("size=%d: expected commit only, got commit=%v abort=%v", size, commit, abort)
		}
		for _, c := range h.decisions {
			if !c.Verify(h.kr) || len(c.Signers) < mgr.Quorum() {
				t.Errorf("size=%d: delivered certificate invalid (%d signers, quorum %d)", size, len(c.Signers), mgr.Quorum())
			}
		}
	}
}

func TestCommitteeQuorumArithmetic(t *testing.T) {
	cases := []struct{ size, quorum int }{
		{1, 1}, {4, 3}, {7, 5}, {10, 7}, {13, 9},
	}
	h := newHarness(t, 1, nil)
	for _, tc := range cases {
		c := NewCommittee(h.deps, tc.size)
		if c.Quorum() != tc.quorum {
			t.Errorf("size %d: got quorum=%d, want %d", tc.size, c.Quorum(), tc.quorum)
		}
		if got := len(c.IDs()); got != tc.size {
			t.Errorf("size %d: %d notary IDs", tc.size, got)
		}
		// Can only register one committee per network; rebuild the harness.
		h = newHarness(t, 1, nil)
	}
}

func TestCommitteeAbortRequest(t *testing.T) {
	h := newHarness(t, 2, nil)
	mgr := NewCommittee(h.deps, 4)
	h.sendAbortRequest(mgr, "c0", 1*sim.Millisecond)
	h.run()
	commit, abort := h.decisionKinds()
	if commit || !abort {
		t.Fatalf("expected abort only, got commit=%v abort=%v", commit, abort)
	}
}

func TestCommitteeSurvivesFaultyLeader(t *testing.T) {
	for _, fault := range []core.FaultSpec{{Silent: true}, {Crash: true, CrashAt: 0}} {
		h := newHarness(t, 1, map[string]core.FaultSpec{core.NotaryID(0): fault})
		mgr := NewCommittee(h.deps, 4)
		h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
		h.run()
		commit, _ := h.decisionKinds()
		if !commit {
			t.Fatalf("fault %+v on the first leader blocked the decision", fault)
		}
	}
}

func TestCommitteeNeverIssuesBothUnderRacingInputs(t *testing.T) {
	// Race an abort request against the last prepared notification across
	// many seeds and delivery schedules: certificate consistency must hold
	// in every single run (safety does not depend on timing).
	for seed := int64(0); seed < 30; seed++ {
		h := newHarness(t, 2, nil)
		h.eng = sim.NewEngine(seed)
		h.net = netsim.New(h.eng, netsim.Synchronous{Min: 1 * sim.Millisecond, Max: 20 * sim.Millisecond}, h.tr)
		h.net.Register(&netsim.FuncNode{Id: "probe", Handler: func(from string, msg netsim.Message) {
			if d, ok := msg.(MsgDecision); ok {
				h.decisions = append(h.decisions, d.Cert)
			}
		}})
		h.net.Register(&netsim.FuncNode{Id: "escrow-driver"})
		h.net.Register(&netsim.FuncNode{Id: "customer-driver"})
		h.deps.Net = h.net
		h.deps.Eng = h.eng
		mgr := NewCommittee(h.deps, 4)
		h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
		h.sendPrepared(mgr, core.EscrowID(1), 10*sim.Millisecond)
		h.sendAbortRequest(mgr, "c1", 10*sim.Millisecond)
		h.run()
		if mgr.CommitIssued() && mgr.AbortIssued() {
			t.Fatalf("seed %d: both certificates issued", seed)
		}
		if !mgr.CommitIssued() && !mgr.AbortIssued() {
			t.Fatalf("seed %d: no decision reached with an honest committee", seed)
		}
	}
}

func TestCommitteeSizeFloor(t *testing.T) {
	h := newHarness(t, 1, nil)
	c := NewCommittee(h.deps, 0)
	if c.Size() != 1 {
		t.Fatalf("size floor not applied: %d", c.Size())
	}
}

// TestMessageDescriptions pins the ballot labels to the fmt forms they were
// first written in, view numbers of any sign and size included: recorded
// traces carry them.
func TestMessageDescriptions(t *testing.T) {
	for _, view := range []int{0, 1, 2, -1, 1 << 40} {
		for _, dec := range []sig.Decision{sig.DecisionCommit, sig.DecisionAbort, ""} {
			for _, by := range []string{"notary0", "", "a-notary-with-a-name-longer-than-any-stack-buffer-would-hold-0123456789"} {
				want := fmt.Sprintf("(%s,v%d by %s)", dec, view, by)
				for label, m := range map[string]netsim.Message{
					"pre-prepare": MsgPrePrepare{Decision: dec, View: view, Leader: by},
					"prepare":     MsgPrepare{Decision: dec, View: view, Voter: by},
					"commit-vote": MsgCommitVote{Decision: dec, View: view, Voter: by},
				} {
					if got := m.Describe(); got != label+want {
						t.Errorf("%T.Describe() = %q, want %q", m, got, label+want)
					}
				}
			}
		}
	}
	for _, m := range []netsim.Message{
		MsgPrepared{Escrow: "e0"},
		MsgAbortRequest{Customer: "c1"},
		MsgDecision{},
		MsgViewChange{NewView: 3, Voter: "notary3"},
	} {
		if m.Describe() == "" {
			t.Errorf("%T has an empty description", m)
		}
	}
}
