package scenariogen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// allAttacks returns every attack of the search, in canonical order, at the
// given holdback.
func allAttacks(holdback sim.Time) []Schedule {
	var out []Schedule
	for _, name := range AttackNames() {
		a, ok := AttackByName(name, holdback)
		if !ok {
			panic("scenariogen: AttackNames lists unknown attack " + name)
		}
		out = append(out, a)
	}
	return out
}

func TestCandidatesCoverFiniteAndInfinite(t *testing.T) {
	var finite, infinite bool
	for _, scale := range theorem2Scales {
		sp := theorem2Spec(2, 1, scale, AttackNames()[0])
		if err := sp.Validate(); err != nil {
			t.Fatalf("candidate %s: %v", candidateName(scale), err)
		}
		if scale < 0 {
			infinite = true
		} else {
			finite = true
		}
	}
	if !finite || !infinite {
		t.Fatal("the family must contain both finite and infinite timeout variants")
	}
}

func TestAttacksMatchProtocolMessages(t *testing.T) {
	byName := map[string]Schedule{}
	for _, a := range allAttacks(sim.Second) {
		byName[a.Attack] = a
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
	if _, ok := AttackByName("delay-everything", sim.Second); ok {
		t.Error("an unknown attack name resolved")
	}
}

// TestAttacksClassifyByHead: a schedule reads a message's head, not its
// description (netsim.HeadOf), so every protocol message — both Theorem-1
// engines send the timelock ones, the ANTA adapters as their fields — has a
// head its description starts with, and every attack answers the same on
// either. internal/deals holds its own unexported seven to the same
// (TestMessageHeads there), and TestMessagesImmutableInFlight every message
// any engine actually sends.
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
		for _, a := range attacks {
			if a.Matches(head.Head()) != a.Matches(m.Describe()) {
				t.Errorf("%s matches %T by head %q differently than by description %q", a.Attack, m, head.Head(), m.Describe())
			}
		}
	}
	if netsim.HeadOf(netsim.RawMessage{Label: "chi(raw)"}) != "chi(raw)" {
		t.Error("a message without a head is not classified by its description")
	}
}

func TestAttacksHoldbackCapped(t *testing.T) {
	if got := HoldbackFor(0); got != sim.Hour {
		t.Fatalf("zero window should cap the holdback at one hour, got %v", got)
	}
	if got := theorem2Spec(3, 1, -1, "delay-money").Net.Holdback; got != sim.Hour {
		t.Fatalf("the infinite candidate's holdback is %v, want the one-hour cap", got)
	}
	if x1, x2 := theorem2Spec(3, 1, 0, "delay-money").Net.Holdback, theorem2Spec(3, 1, 2, "delay-money").Net.Holdback; x1 <= 0 || x1 >= sim.Hour || x2 != 2*x1 {
		t.Fatalf("holdbacks x1 %v, x2 %v: want 4·a_0 below the cap, doubling with the scale", x1, x2)
	}
}

func TestControlUnderSynchrony(t *testing.T) {
	if failed := ControlUnderSynchrony(2, []int64{1}); len(failed) > 0 {
		t.Errorf("candidates %v violate Definition 1 even under synchrony", failed)
	}
}

func TestSearchTheorem2(t *testing.T) {
	findings := SearchTheorem2(2, []int64{1, 2})
	if want := len(theorem2Scales) * len(AttackNames()); len(findings) != want {
		t.Fatalf("%d findings, want one per candidate and attack (%d)", len(findings), want)
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

// TestVerifyTheorem2RejectsSurvivors: a candidate that survives every attack
// is reported, and with several survivors always the first in finding order.
func TestVerifyTheorem2RejectsSurvivors(t *testing.T) {
	findings := []Finding{
		{Candidate: "clean", Attack: "a"},
		{Candidate: "broken", Attack: "a", Violated: []core.Property{core.PropStrongLiveness}},
		{Candidate: "also-clean", Attack: "a"},
		{Candidate: "still-clean", Attack: "a"},
	}
	err := VerifyTheorem2(findings)
	if err == nil || !strings.Contains(err.Error(), "candidate clean ") {
		t.Fatalf("want the first surviving candidate reported, got %v", err)
	}
	for i := 0; i < 100; i++ {
		if again := VerifyTheorem2(findings); again == nil || again.Error() != err.Error() {
			t.Fatalf("call %d reported %v, the first %v", i, again, err)
		}
	}
}

// TestCorpusTheorem2FilesAreSearchMembers: the corpus's two search witnesses
// are, as JSON, the population members at n=3, seed 1 of their candidate and
// attack, and the search's finding for that pair reports what the file
// expects of the run.
func TestCorpusTheorem2FilesAreSearchMembers(t *testing.T) {
	findings := SearchTheorem2(3, []int64{1})
	for _, c := range []struct {
		file   string
		scale  float64
		attack string
	}{
		{"theorem2-delay-certificates.json", 0, "delay-certificates"},
		{"theorem2-infinite-timeouts.json", -1, "delay-money"},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spec   json.RawMessage `json:"spec"`
			Expect Expectation     `json:"expect"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, file.Spec); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(theorem2Spec(3, 1, c.scale, c.attack))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: spec\n%s\nis not the population member\n%s", c.file, want.Bytes(), got)
		}
		var found bool
		for _, f := range findings {
			if f.Candidate != candidateName(c.scale) || f.Attack != c.attack {
				continue
			}
			found = true
			if fmt.Sprint(f.Violated) != fmt.Sprint(file.Expect.Violated) || f.BobPaid != file.Expect.BobPaid {
				t.Errorf("%s: finding violated %v bobPaid %v, the file expects %v bobPaid %v",
					c.file, f.Violated, f.BobPaid, file.Expect.Violated, file.Expect.BobPaid)
			}
		}
		if !found {
			t.Errorf("%s: the search has no finding for %s vs %s", c.file, candidateName(c.scale), c.attack)
		}
	}
}

// TestValidateNamesOneEntry: a spec with several bad fault or patience
// entries is rejected naming the smallest bad ID, whatever order the map
// iterates in.
func TestValidateNamesOneEntry(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Spec)
	}{
		{"faults", func(sp *Spec) {
			sp.Faults = map[string]string{"c2": "nope", "c0": "sillent", "e1": "bogus", "c1": "silent"}
		}},
		{"patience", func(sp *Spec) { sp.Patience = map[string]sim.Time{"c2": -3, "c0": -1, "c3": 5, "c1": -2} }},
	} {
		sp := theorem2Spec(3, 1, 0, "")
		tc.set(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), "c0") {
			t.Fatalf("%s: want c0 reported, got %v", tc.name, err)
		}
		for i := 0; i < 100; i++ {
			if again := sp.Validate(); again == nil || again.Error() != err.Error() {
				t.Fatalf("%s: call %d reported %v, the first %v", tc.name, i, again, err)
			}
		}
	}
}

// TestValidateRejectsNonParticipants: a fault or patience key must name a
// participant of the spec's family. A key naming nobody changes no run, yet
// it could turn a conforming spec violating and so shrink the set of
// properties a replay's own run is judged on.
func TestValidateRejectsNonParticipants(t *testing.T) {
	timelock := Generate(3) // conforming, n=3
	deal := Generate(26)    // deal-timelock, n=2, p1 silent
	weaklive, committee := baseSpec(FamWeaklive), baseSpec(FamCommittee)
	for _, tc := range []struct {
		sp       Spec
		faults   map[string]string
		patience map[string]sim.Time
		wantBad  string // "" = valid
	}{
		{sp: timelock, faults: map[string]string{"c61": "silent", "c60": "silent", "c1": "silent"}, wantBad: "c60"},
		{sp: timelock, faults: map[string]string{"manager": "silent"}, wantBad: "manager"},
		{sp: timelock, patience: map[string]sim.Time{"c9": 1, "c7": 1, "c3": 1}, wantBad: "c7"},
		{sp: timelock, faults: map[string]string{"c3": "silent", "e2": "theft"}},
		{sp: deal, faults: map[string]string{"p7": "silent"}, wantBad: "p7"},
		{sp: deal, faults: map[string]string{"p01": "silent"}, wantBad: "p01"},
		{sp: deal, faults: map[string]string{"c0": "silent"}, wantBad: "c0"},
		{sp: deal, faults: map[string]string{"p0": "silent", "p1": "silent"}},
		{sp: weaklive, faults: map[string]string{"notary0": "silent"}, wantBad: "notary0"},
		{sp: weaklive, faults: map[string]string{"manager": "equivocate"}},
		{sp: committee, faults: map[string]string{"notary4": "silent"}, wantBad: "notary4"},
		{sp: committee, faults: map[string]string{"notary3": "silent", "manager": "silent"}},
	} {
		sp := tc.sp.clone()
		sp.Faults, sp.Patience = tc.faults, tc.patience
		err := sp.Validate()
		switch {
		case tc.wantBad == "" && err != nil:
			t.Errorf("%s %v %v: rejected: %v", sp.Family, tc.faults, tc.patience, err)
		case tc.wantBad != "" && (err == nil || !strings.Contains(err.Error(), tc.wantBad+",")):
			t.Errorf("%s %v %v: want %s reported, got %v", sp.Family, tc.faults, tc.patience, tc.wantBad, err)
		}
	}
}
