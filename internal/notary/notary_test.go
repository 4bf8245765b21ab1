package notary

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/sig"
	"repro/internal/sim"
)

// harness drives a manager implementation directly, playing the role of the
// escrows and customers on one standing world: it feeds prepared /
// abort-request messages and records the decision certificates delivered to a
// probe participant, c0. Every manager a test asks for is the world's one
// Trusted or Committee, reset.
type harness struct {
	t *testing.T
	w *core.World
	s core.Scenario
	// nodes stand in for the chain's participants; nodes[0] is the probe.
	nodes []*netsim.FuncNode

	decisions []sig.DecisionCert
}

func newHarness(t *testing.T, numEscrows int, faults map[string]core.FaultSpec) *harness {
	t.Helper()
	s := core.NewScenario(numEscrows, 1).WithNetwork(netsim.Synchronous{Min: 1 * sim.Millisecond, Max: 5 * sim.Millisecond})
	s.Faults = faults
	return &harness{t: t, w: core.NewWorld(), s: s}
}

// begin resets the world for the harness's scenario and registers the
// stand-ins of its participants.
func (h *harness) begin() {
	h.t.Helper()
	if err := h.w.Reset(&h.s); err != nil {
		h.t.Fatal(err)
	}
	h.decisions = h.decisions[:0]
	for i, id := range h.w.Participants() {
		if i == len(h.nodes) {
			h.nodes = append(h.nodes, &netsim.FuncNode{})
		}
		h.nodes[i].Id = id
		h.w.Net.Register(h.nodes[i])
	}
	if h.nodes[0].Handler == nil {
		h.nodes[0].Handler = func(from sim.PID, msg netsim.Message) {
			if d, ok := msg.(*MsgDecision); ok {
				h.decisions = append(h.decisions, d.Cert)
			}
		}
	}
}

func (h *harness) trusted() *Trusted {
	h.begin()
	return TrustedIn(h.w)
}

func (h *harness) committee(size int) *Committee {
	h.begin()
	return CommitteeIn(h.w, size)
}

func (h *harness) sendPrepared(mgr Manager, escrow string, at sim.Time) {
	h.w.Eng.ScheduleArgAt(at, "prepared", func(any) {
		m := &MsgPrepared{PaymentID: h.s.Spec.PaymentID, Escrow: escrow}
		for _, id := range mgr.IDs() {
			h.w.Net.Send(escrow, id, m)
		}
	}, nil)
}

func (h *harness) sendAbortRequest(mgr Manager, customer string, at sim.Time) {
	h.w.Eng.ScheduleArgAt(at, "abort-request", func(any) {
		m := &MsgAbortRequest{PaymentID: h.s.Spec.PaymentID, Customer: customer}
		for _, id := range mgr.IDs() {
			h.w.Net.Send(customer, id, m)
		}
	}, nil)
}

func (h *harness) run() uint64 {
	_, fired := h.w.Eng.Run(500_000)
	return fired
}

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
	mgr := h.trusted()
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
		if !c.Verify(h.w.Keyring()) {
			t.Error("delivered certificate does not verify")
		}
	}
}

func TestTrustedDoesNotCommitWithMissingEscrow(t *testing.T) {
	h := newHarness(t, 3, nil)
	mgr := h.trusted()
	h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
	h.sendPrepared(mgr, core.EscrowID(1), 2*sim.Millisecond)
	h.run()
	if mgr.CommitIssued() || mgr.AbortIssued() {
		t.Fatal("manager decided without full preparation or an abort request")
	}
}

func TestTrustedAbortWinsIfFirst(t *testing.T) {
	h := newHarness(t, 2, nil)
	mgr := h.trusted()
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
	mgr := h.trusted()
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
	mgr := h.trusted()
	h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
	h.run()
	if mgr.CommitIssued() || mgr.AbortIssued() {
		t.Fatal("crashed manager decided")
	}
}

func TestCommitteeCommitsWhenAllPrepared(t *testing.T) {
	for _, size := range []int{1, 4, 7, 10} {
		h := newHarness(t, 2, nil)
		mgr := h.committee(size)
		h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
		h.sendPrepared(mgr, core.EscrowID(1), 2*sim.Millisecond)
		h.run()
		commit, abort := h.decisionKinds()
		if !commit || abort {
			t.Fatalf("size=%d: expected commit only, got commit=%v abort=%v", size, commit, abort)
		}
		for _, c := range h.decisions {
			if !c.Verify(h.w.Keyring()) || len(c.Signers) < mgr.Quorum() {
				t.Errorf("size=%d: delivered certificate invalid (%d signers, quorum %d)", size, len(c.Signers), mgr.Quorum())
			}
		}
	}
}

// TestCommitteeBeyondOneWord: a committee of more than 64 notaries tallies
// over two words per vote set, and one world's committee can be that size
// after a small one and small again after it.
func TestCommitteeBeyondOneWord(t *testing.T) {
	h := newHarness(t, 1, map[string]core.FaultSpec{core.NotaryID(0): {Silent: true}})
	h.s = h.s.WithCrypto("hmac")
	for _, size := range []int{4, 67, 130, 7, 67} {
		mgr := h.committee(size)
		h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
		h.run()
		if commit, abort := h.decisionKinds(); !commit || abort || !mgr.CommitIssued() || mgr.AbortIssued() {
			t.Fatalf("size=%d: expected commit only, got commit=%v abort=%v", size, commit, abort)
		}
		for _, c := range h.decisions {
			if !c.Verify(h.w.Keyring()) || len(c.Signers) != mgr.Quorum() {
				t.Fatalf("size=%d: delivered certificate invalid (%d signers, quorum %d)", size, len(c.Signers), mgr.Quorum())
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
		c := h.committee(tc.size)
		if c.Quorum() != tc.quorum {
			t.Errorf("size %d: got quorum=%d, want %d", tc.size, c.Quorum(), tc.quorum)
		}
		if got := len(c.IDs()); got != tc.size {
			t.Errorf("size %d: %d notary IDs", tc.size, got)
		}
	}
}

func TestCommitteeAbortRequest(t *testing.T) {
	h := newHarness(t, 2, nil)
	mgr := h.committee(4)
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
		mgr := h.committee(4)
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
	h := newHarness(t, 2, nil)
	h.s = h.s.WithNetwork(netsim.Synchronous{Min: 1 * sim.Millisecond, Max: 20 * sim.Millisecond})
	for seed := int64(0); seed < 30; seed++ {
		h.s = h.s.WithSeed(seed)
		mgr := h.committee(4)
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
	c := h.committee(0)
	if c.Size() != 1 {
		t.Fatalf("size floor not applied: %d", c.Size())
	}
}

// TestMessageDescriptions pins the ballot labels to the fmt forms they were
// first written in, view numbers of any sign and size included: recorded
// traces carry them.
func TestMessageDescriptions(t *testing.T) {
	for _, view := range []int{0, 1, 2, -1, 1 << 40} {
		for _, dec := range []sig.Decision{sig.DecisionCommit, sig.DecisionAbort, 0} {
			for _, by := range []string{"notary0", "", "a-notary-with-a-name-longer-than-any-stack-buffer-would-hold-0123456789"} {
				want := fmt.Sprintf("(%s,v%d by %s)", dec, view, by)
				for label, m := range map[string]netsim.Message{
					"pre-prepare": &MsgPrePrepare{Decision: dec, View: view, Leader: by},
					"prepare":     &MsgPrepare{Decision: dec, View: view, Voter: by},
					"commit-vote": &MsgCommitVote{Decision: dec, View: view, Voter: by},
				} {
					if got := m.Describe(); got != label+want {
						t.Errorf("%T.Describe() = %q, want %q", m, got, label+want)
					}
				}
			}
		}
	}
	for _, m := range []netsim.Message{
		&MsgPrepared{Escrow: "e0"},
		&MsgAbortRequest{Customer: "c1"},
		&MsgDecision{},
		&MsgViewChange{NewView: 3, Voter: "notary3"},
	} {
		if m.Describe() == "" {
			t.Errorf("%T has an empty description", m)
		}
	}
}

// stalled is a run under which a committee of four makes little progress: no
// bound on message delay until long after the view timers have begun to fire.
func stalled(seed int64) core.Scenario {
	s := core.NewScenario(1, seed)
	return s.WithNetwork(netsim.PartialSynchrony{GST: 9 * sim.Second, Delta: s.Timing.MaxMsgDelay, MaxPreGST: 4 * sim.Second})
}

// observed is a recorded run: how many events it fired, what it issued and
// its trace.
type observed struct {
	fired         uint64
	commit, abort bool
	events        []string
}

// observe runs s to the end on h's world under a committee of size notaries,
// one escrow reporting prepared and c1 asking to abort half a second later.
func (h *harness) observe(s core.Scenario, size int) observed {
	h.s = s
	mgr := h.committee(size)
	h.sendPrepared(mgr, core.EscrowID(0), 1*sim.Millisecond)
	h.sendAbortRequest(mgr, "c1", 500*sim.Millisecond)
	o := observed{fired: h.run(), commit: mgr.CommitIssued(), abort: mgr.AbortIssued()}
	for _, ev := range h.w.Trace.Events() {
		o.events = append(o.events, ev.String())
	}
	return o
}

// TestResetMakesANewCommittee leaves a committee in the middle of a stalled
// agreement — notaries two or more views on, locked, their tallies half full,
// view timers armed, ballots in flight and a pre-prepare buffered — and
// requires the runs that follow on the same world to be, event for event,
// those of a new committee on a new world: a run that decides in view 0, the
// stalled run itself to its end (which walks the views the cut-off run
// reached), and a committee of another size.
func TestResetMakesANewCommittee(t *testing.T) {
	const seed = 8
	calm := core.NewScenario(1, seed)
	h := newHarness(t, 1, nil)
	dirty := func() {
		h.s = stalled(seed)
		c := h.committee(4)
		h.sendPrepared(c, core.EscrowID(0), 1*sim.Millisecond)
		h.sendAbortRequest(c, "c1", 500*sim.Millisecond)
		left := func() bool {
			var views, locks, partial, buffered int
			for j := range c.procs {
				p := &c.procs[j]
				if p.decided {
					return false
				}
				if p.view >= 2 {
					views++
				}
				if p.lock != 0 {
					locks++
				}
				if p.pending != nil {
					buffered++
				}
				for view := 0; view <= p.hi; view++ {
					for _, k := range []int{commit, abort} {
						if n := p.tally(view, prepares+k).count(); 0 < n && n < c.quorum {
							partial++
						}
					}
				}
			}
			return views >= 2 && locks >= 1 && partial >= 1 && buffered >= 1
		}
		for !left() {
			if _, fired := h.w.Eng.Run(1); fired == 0 {
				t.Fatal("the stalled run ended without passing through the state this test wants to leave behind")
			}
		}
		if h.w.Eng.Live() == 0 {
			t.Fatal("nothing pending when the run was cut")
		}
	}
	for _, next := range []struct {
		name string
		s    core.Scenario
		size int
	}{
		{"decides in view 0", calm, 4},
		{"stalls", stalled(seed), 4},
		{"committee of 7", stalled(seed), 7},
		{"committee of 1", calm, 1},
	} {
		want := newHarness(t, 1, nil).observe(next.s, next.size)
		if want.fired == 0 || !want.commit && !want.abort {
			t.Fatalf("%s: the reference run decided nothing", next.name)
		}
		dirty()
		got := h.observe(next.s, next.size)
		if got.fired != want.fired || got.commit != want.commit || got.abort != want.abort || !slices.Equal(got.events, want.events) {
			t.Errorf("%s, after a run cut short: fired %d events, commit=%v abort=%v; a new committee fires %d, commit=%v abort=%v",
				next.name, got.fired, got.commit, got.abort, want.fired, want.commit, want.abort)
			for i := range min(len(got.events), len(want.events)) {
				if got.events[i] != want.events[i] {
					t.Fatalf("first difference at event %d:\n got %s\nwant %s", i, got.events[i], want.events[i])
				}
			}
		}
		// And once more, straight after itself.
		if again := h.observe(next.s, next.size); again.fired != want.fired || !slices.Equal(again.events, want.events) {
			t.Errorf("%s, run twice: the second run differs from a new committee's", next.name)
		}
	}
}

// TestSameDecisionCertNotReverified: a notary that has decided pays no
// signature verification for another certificate of the same decision, and
// still verifies — and records — one of the other decision.
func TestSameDecisionCertNotReverified(t *testing.T) {
	h := newHarness(t, 1, map[string]core.FaultSpec{core.NotaryID(3): {Silent: true}})
	h.s = h.s.WithCrypto("hmac") // no memo: every Keyring.Verify is a miss
	c := h.committee(4)
	h.sendPrepared(c, core.EscrowID(0), 1*sim.Millisecond)
	h.run()
	if len(h.decisions) == 0 || !c.CommitIssued() || c.AbortIssued() {
		t.Fatalf("no clean commit to start from: %d certificates, commit=%v abort=%v", len(h.decisions), c.CommitIssued(), c.AbortIssued())
	}
	kr := h.w.Keyring()
	verifies := func(deliver func()) uint64 {
		before := kr.Stats()
		deliver()
		after := kr.Stats()
		return after.MemoHits + after.MemoMisses - before.MemoHits - before.MemoMisses
	}
	decided, silent := &c.procs[1], &c.procs[3]
	if !decided.decided || silent.decided {
		t.Fatalf("notary1 decided=%v, silent notary3 decided=%v", decided.decided, silent.decided)
	}
	second := &MsgDecision{Cert: h.decisions[0]}
	if n := verifies(func() { decided.Deliver(c.PIDs()[0], second) }); n != 0 {
		t.Errorf("a decided notary verified %d signatures of a second commit certificate", n)
	}
	// The same certificate costs a notary that has not decided its quorum of
	// verifications.
	silent.fault = core.FaultSpec{}
	if n := verifies(func() { silent.Deliver(c.PIDs()[0], second) }); n != uint64(c.Quorum()) || !silent.decided {
		t.Errorf("an undecided notary verified %d signatures of its first certificate (decided=%v), want %d", n, silent.decided, c.Quorum())
	}
	// A certificate for the other decision is verified: a forged one is
	// dropped, a valid one recorded as the inconsistency it is.
	other := &MsgDecision{Cert: sig.NewCommitteeDecisionCert(kr, h.s.Spec.PaymentID, sig.DecisionAbort, core.ManagerID, h.w.Eng.Now(), c.IDs()[:3], c.Quorum())}
	forged := &MsgDecision{Cert: other.Cert}
	forged.Cert.Sigs = slices.Clone(other.Cert.Sigs)
	forged.Cert.Sigs[0] = forged.Cert.Sigs[1]
	if n := verifies(func() { decided.Deliver(c.PIDs()[0], forged) }); n != uint64(c.Quorum()) || c.AbortIssued() {
		t.Errorf("a forged certificate for the other decision: %d signatures verified, abort issued=%v; want %d and false", n, c.AbortIssued(), c.Quorum())
	}
	if n := verifies(func() { decided.Deliver(c.PIDs()[0], other) }); n != uint64(c.Quorum()) {
		t.Errorf("a decided notary verified %d signatures of a certificate for the other decision, want %d", n, c.Quorum())
	}
	if !c.AbortIssued() || !c.CommitIssued() {
		t.Errorf("after a valid abort certificate: commit=%v abort=%v, want both", c.CommitIssued(), c.AbortIssued())
	}
}

// TestMutedCommitteeRunDoesNotAllocate: once the committee's storage has
// grown, a muted run on the standing world — reset, evidence, the view-0
// ballots, four certificates to everybody — allocates nothing, in this
// package or below it.
func TestMutedCommitteeRunDoesNotAllocate(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.s = h.s.WithCrypto("hmac").Muted()
	h.s.KeySeed = "standing-keys"
	var c *Committee
	msgs := [2]MsgPrepared{}
	report := func(x any) {
		m := x.(*MsgPrepared)
		for _, id := range c.IDs() {
			h.w.Net.Send(m.Escrow, id, m)
		}
	}
	once := func() {
		c = h.committee(4)
		for i := range msgs {
			msgs[i] = MsgPrepared{PaymentID: h.s.Spec.PaymentID, Escrow: core.EscrowID(i)}
			h.w.Eng.ScheduleArgAt(sim.Time(i+1)*sim.Millisecond, "prepared", report, &msgs[i])
		}
		h.run()
	}
	once()
	if !c.CommitIssued() || c.AbortIssued() || len(h.decisions) != 4 {
		t.Fatalf("commit=%v abort=%v, %d certificates at the probe", c.CommitIssued(), c.AbortIssued(), len(h.decisions))
	}
	if n := testing.AllocsPerRun(100, once); n != 0 && !race.Enabled { // the detector allocates
		t.Errorf("a muted committee run on a standing world allocates %.0f times", n)
	}
	if pp, p, cv, vc := c.prePrepares.used, c.prepares.used, c.commitVotes.used, c.viewChanges.used; pp != 1 || p != 4 || cv != 4 || vc != 0 {
		t.Errorf("the run's ballots are not the first records of rewound arenas: %d pre-prepares, %d prepares, %d commit votes, %d view changes in use", pp, p, cv, vc)
	}
	// Nor does a run that changes views, once its ballots' arenas have their
	// first chunks, and it leaves the view-0 run as it was.
	calm := h.s
	h.s = h.s.SetFault(core.NotaryID(0), core.FaultSpec{Silent: true})
	once()
	if hi := c.procs[1].hi; hi < 1 || !c.CommitIssued() {
		t.Fatalf("a silent first leader: notary1 reached view %d, commit=%v", hi, c.CommitIssued())
	}
	if n := testing.AllocsPerRun(20, once); n != 0 && !race.Enabled {
		t.Errorf("a muted committee run with a view change allocates %.0f times", n)
	}
	h.s = calm
	if n := testing.AllocsPerRun(20, once); n != 0 && !race.Enabled {
		t.Errorf("after runs with view changes, a muted committee run allocates %.0f times", n)
	}
}
