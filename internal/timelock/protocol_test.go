package timelock

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

func happyScenario(n int, seed int64) core.Scenario {
	return core.NewScenario(n, seed)
}

func TestDeriveParamsValid(t *testing.T) {
	for n := 1; n <= 10; n++ {
		topo := core.NewTopology(n)
		for _, drift := range []bool{true, false} {
			p := DeriveParams(topo, core.DefaultTiming(), drift)
			if err := p.Validate(); err != nil {
				t.Fatalf("n=%d drift=%v: invalid params: %v", n, drift, err)
			}
			if len(p.A) != n || len(p.D) != n {
				t.Fatalf("n=%d: wrong param lengths", n)
			}
		}
	}
}

func TestDeriveParamsDriftAwareWider(t *testing.T) {
	topo := core.NewTopology(4)
	timing := core.DefaultTiming()
	aware := DeriveParams(topo, timing, true)
	naive := DeriveParams(topo, timing, false)
	for i := range aware.A {
		if aware.A[i] < naive.A[i] {
			t.Errorf("a_%d: drift-aware window %v narrower than naive %v", i, aware.A[i], naive.A[i])
		}
	}
}

func TestHappyPathAllPaid(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for seed := int64(0); seed < 3; seed++ {
			s := happyScenario(n, seed)
			res, err := New().Run(s)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.BobPaid {
				t.Fatalf("n=%d seed=%d: Bob not paid on the happy path\n%s", n, seed, res.Trace)
			}
			if !res.AllTerminated {
				t.Fatalf("n=%d seed=%d: not all customers terminated", n, seed)
			}
			alice := res.Outcome(s.Topology.Alice())
			if !alice.HoldsChi {
				t.Errorf("n=%d seed=%d: Alice does not hold chi", n, seed)
			}
			if got, want := alice.NetWealthChange(), -s.Spec.AlicePays(); got != want {
				t.Errorf("n=%d seed=%d: Alice net change %d, want %d", n, seed, got, want)
			}
			bob := res.Outcome(s.Topology.Bob())
			if got, want := bob.NetWealthChange(), s.Spec.BobReceives(); got != want {
				t.Errorf("n=%d seed=%d: Bob net change %d, want %d", n, seed, got, want)
			}
			for i, id := range s.Topology.Connectors() {
				c := res.Outcome(id)
				if got, want := c.NetWealthChange(), s.Spec.Commission(i+1); got != want {
					t.Errorf("n=%d seed=%d: connector %s net change %d, want commission %d", n, seed, id, got, want)
				}
			}
			if err := res.Book.AuditAll(); err != nil {
				t.Errorf("n=%d seed=%d: ledger audit failed: %v", n, seed, err)
			}
		}
	}
}

func TestHappyPathWithinBound(t *testing.T) {
	for n := 1; n <= 6; n++ {
		s := happyScenario(n, 42)
		p := New()
		res, err := p.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		bound := p.ParamsFor(s).Bound
		for _, id := range s.Topology.Customers() {
			out := res.Outcome(id)
			if !out.Terminated {
				t.Fatalf("n=%d: %s did not terminate", n, id)
			}
			if out.TerminatedAt > bound {
				t.Errorf("n=%d: %s terminated at %v, after the bound %v", n, id, out.TerminatedAt, bound)
			}
		}
	}
}

func TestRefundWhenBobWithholdsCertificate(t *testing.T) {
	s := happyScenario(3, 7).SetFault(core.CustomerID(3), core.FaultSpec{WithholdCertificate: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob was paid without issuing the certificate")
	}
	// Every honest customer upstream must get a full refund (CS1/CS3).
	for _, id := range []string{"c0", "c1", "c2"} {
		out := res.Outcome(id)
		if out.NetWealthChange() != 0 {
			t.Errorf("%s lost %d despite Bob withholding", id, -out.NetWealthChange())
		}
		if !out.Terminated {
			t.Errorf("%s did not terminate", id)
		}
	}
	if err := res.Book.AuditAll(); err != nil {
		t.Errorf("ledger audit failed: %v", err)
	}
}

func TestRefundWhenConnectorRefusesToPay(t *testing.T) {
	s := happyScenario(4, 9).SetFault(core.CustomerID(2), core.FaultSpec{RefuseToPay: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob was paid although the chain was broken at c2")
	}
	for _, id := range []string{"c0", "c1", "c3", "c4"} {
		out := res.Outcome(id)
		if out.NetWealthChange() < 0 {
			t.Errorf("honest customer %s lost %d", id, -out.NetWealthChange())
		}
	}
}

func TestForgedCertificateRejected(t *testing.T) {
	s := happyScenario(2, 11).SetFault(core.CustomerID(2), core.FaultSpec{ForgeCertificate: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob was paid with a forged certificate")
	}
	alice := res.Outcome("c0")
	if alice.NetWealthChange() != 0 {
		t.Errorf("Alice lost %d to a forged certificate", -alice.NetWealthChange())
	}
	if alice.HoldsChi {
		t.Error("Alice accepted a forged certificate as chi")
	}
}

func TestCrashedConnectorDoesNotHurtOthers(t *testing.T) {
	s := happyScenario(4, 5).SetFault(core.CustomerID(2), core.FaultSpec{Crash: true, CrashAt: 0})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c0", "c1", "c3", "c4"} {
		out := res.Outcome(id)
		if out.NetWealthChange() < 0 {
			t.Errorf("honest customer %s lost %d after c2 crashed", id, -out.NetWealthChange())
		}
	}
	if err := res.Book.AuditAll(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

func TestByzantineEscrowStealsOnlyHurtsItsCustomers(t *testing.T) {
	// e1 steals: its customers c1 and c2 may lose, but CS only promises
	// security to customers whose escrows abide. Alice's escrow e0 abides, so
	// Alice must not lose money without receiving chi.
	s := happyScenario(3, 13).SetFault(core.EscrowID(1), core.FaultSpec{StealEscrow: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	alice := res.Outcome("c0")
	if alice.NetWealthChange() < 0 && !alice.HoldsChi {
		t.Errorf("Alice lost %d without receiving chi although e0 is honest", -alice.NetWealthChange())
	}
	bob := res.Outcome("c3")
	if bob.IssuedChi && bob.Received == 0 {
		// Bob's escrow e2 is honest, so Bob must be paid if he issued chi.
		t.Error("Bob issued chi but was not paid although e2 is honest")
	}
}

func TestTraceRecordsProtocolFlow(t *testing.T) {
	s := happyScenario(2, 3)
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[trace.Kind]int{}
	for _, ev := range res.Trace.Events() {
		recorded[ev.Kind]++
	}
	if recorded[trace.KindLock] != 2 {
		t.Errorf("expected 2 escrow locks, got %d", recorded[trace.KindLock])
	}
	if recorded[trace.KindRelease] != 2 {
		t.Errorf("expected 2 releases, got %d", recorded[trace.KindRelease])
	}
	if recorded[trace.KindRefund] != 0 {
		t.Errorf("expected no refunds on the happy path, got %d", recorded[trace.KindRefund])
	}
	issued := false
	for _, ev := range res.Trace.Events() {
		issued = issued || ev.Kind == trace.KindCert && ev.Actor == "c2"
	}
	if !issued {
		t.Error("trace does not record Bob issuing chi")
	}
}

func TestDeterminism(t *testing.T) {
	s := happyScenario(4, 99)
	a, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.EventsFired != b.EventsFired || a.BobPaid != b.BobPaid {
		t.Fatalf("runs with identical scenarios differ: %+v vs %+v", a, b)
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for i, ea := range a.Trace.Events() {
		eb := b.Trace.Events()[i]
		if ea.String() != eb.String() {
			t.Fatalf("trace diverges at %d:\n%s\n%s", i, ea, eb)
		}
	}
}

func TestSlowLinkBeyondDeltaBreaksLiveness(t *testing.T) {
	// When the network violates the synchrony assumption (a link slower than
	// Delta by more than the slack), the timeout fires and Bob is not paid —
	// but safety still holds for customers of honest escrows. This is the
	// executable seed of the Theorem-2 impossibility argument.
	s := happyScenario(2, 17)
	slow := netsim.Adversarial{
		Label: "slow-chi",
		Strategy: func(env netsim.Envelope, eng *sim.Engine) (sim.Time, bool) {
			if _, isCert := env.Msg.(*MsgCert); isCert {
				return 10 * sim.Second, false
			}
			return 1 * sim.Millisecond, false
		},
	}
	res, err := New().Run(s.WithNetwork(slow))
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob was paid although certificates were delayed past every timeout")
	}
	for _, id := range []string{"c0", "c1"} {
		out := res.Outcome(id)
		if out.NetWealthChange() < 0 {
			t.Errorf("%s lost money when the network broke synchrony", id)
		}
	}
	if err := res.Book.AuditAll(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

func TestANTAEngineHappyPath(t *testing.T) {
	for n := 1; n <= 4; n++ {
		s := happyScenario(n, 21)
		res, err := NewANTA().Run(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.BobPaid {
			t.Fatalf("n=%d: ANTA engine did not pay Bob\n%s", n, res.Trace)
		}
		if !res.AllTerminated {
			t.Fatalf("n=%d: ANTA engine: not all customers terminated", n)
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	// Both engines must agree on outcome-level facts across scenarios they
	// both support (honest, withholding, refusing, crashing participants).
	cases := []struct {
		name  string
		build func() core.Scenario
	}{
		{"happy-n3", func() core.Scenario { return happyScenario(3, 1) }},
		{"bob-withholds", func() core.Scenario {
			return happyScenario(3, 2).SetFault("c3", core.FaultSpec{WithholdCertificate: true})
		}},
		{"connector-refuses", func() core.Scenario {
			return happyScenario(3, 3).SetFault("c1", core.FaultSpec{RefuseToPay: true})
		}},
		{"alice-crashes", func() core.Scenario {
			return happyScenario(3, 4).SetFault("c0", core.FaultSpec{Crash: true, CrashAt: 0})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			procRes, err := New().Run(tc.build())
			if err != nil {
				t.Fatal(err)
			}
			antaRes, err := NewANTA().Run(tc.build())
			if err != nil {
				t.Fatal(err)
			}
			if procRes.BobPaid != antaRes.BobPaid {
				t.Errorf("BobPaid differs: process=%v anta=%v", procRes.BobPaid, antaRes.BobPaid)
			}
			for _, id := range tc.build().Topology.Customers() {
				p := procRes.Outcome(id)
				a := antaRes.Outcome(id)
				if p.NetWealthChange() != a.NetWealthChange() {
					t.Errorf("%s wealth change differs: process=%d anta=%d", id, p.NetWealthChange(), a.NetWealthChange())
				}
				if p.HoldsChi != a.HoldsChi {
					t.Errorf("%s HoldsChi differs: process=%v anta=%v", id, p.HoldsChi, a.HoldsChi)
				}
			}
		})
	}
}

func TestParamsOverride(t *testing.T) {
	s := happyScenario(2, 1)
	p := New()
	custom := DeriveParams(s.Topology, s.Timing, true)
	custom.Bound *= 2
	p.Params = &custom
	got := p.ParamsFor(s)
	if got.Bound != custom.Bound {
		t.Fatalf("override ignored: got bound %v, want %v", got.Bound, custom.Bound)
	}
}

func TestNames(t *testing.T) {
	if New().Name() != "timelock" {
		t.Errorf("unexpected name %q", New().Name())
	}
	if NewNaive().Name() != "timelock-naive" {
		t.Errorf("unexpected name %q", NewNaive().Name())
	}
	if NewANTA().Name() != "timelock-anta" {
		t.Errorf("unexpected name %q", NewANTA().Name())
	}
}

// TestANTASimultaneousCrashesDeterministic is the regression test for the
// map-order scheduling xchain-lint's sweep found in antaEngine.start: crash
// faults were scheduled by ranging over the Faults map, so same-instant
// crashes entered the event queue — and fired under the seq tie-breaker —
// in a different order on every run. Today Automaton.Crash only mutates its
// own automaton, so that disorder happens to commute; this test is the
// canary that keeps runs byte-stable if crash handling ever grows a side
// effect (a trace event, a message, a shared counter) that does not.
func TestANTASimultaneousCrashesDeterministic(t *testing.T) {
	build := func() core.Scenario {
		at := 40 * sim.Millisecond
		return happyScenario(4, 7).
			SetFault(core.CustomerID(1), core.FaultSpec{Crash: true, CrashAt: at}).
			SetFault(core.CustomerID(2), core.FaultSpec{Crash: true, CrashAt: at}).
			SetFault(core.EscrowID(3), core.FaultSpec{Crash: true, CrashAt: at})
	}
	ref, err := NewANTA().Run(build())
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 4; run++ {
		res, err := NewANTA().Run(build())
		if err != nil {
			t.Fatal(err)
		}
		if res.EventsFired != ref.EventsFired || res.Duration != ref.Duration {
			t.Fatalf("run %d diverged: events %d vs %d, duration %v vs %v",
				run, res.EventsFired, ref.EventsFired, res.Duration, ref.Duration)
		}
		if res.Trace.Len() != ref.Trace.Len() {
			t.Fatalf("run %d: trace lengths differ: %d vs %d", run, res.Trace.Len(), ref.Trace.Len())
		}
		for i, er := range ref.Trace.Events() {
			if got := res.Trace.Events()[i]; got.String() != er.String() {
				t.Fatalf("run %d: trace diverges at %d:\n%s\n%s", run, i, er, got)
			}
		}
	}
}

// TestMoneyLabelPinned pins "$"'s trace label to the fmt form it was first
// written in: every recorded timelock trace carries it per hop.
func TestMoneyLabelPinned(t *testing.T) {
	for _, amount := range []int64{0, 1, 1000, -5, math.MaxInt64, math.MinInt64} {
		if got, want := (&MsgMoney{Amount: amount}).Describe(), fmt.Sprintf("$(%d)", amount); got != want {
			t.Errorf("MsgMoney.Describe() = %q, want %q", got, want)
		}
		if got, want := (&MsgMoney{Amount: amount, Refund: true}).Describe(), fmt.Sprintf("$refund(%d)", amount); got != want {
			t.Errorf("refund MsgMoney.Describe() = %q, want %q", got, want)
		}
	}
}
