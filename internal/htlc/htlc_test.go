package htlc

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestHappyPathAllPaid(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for seed := int64(0); seed < 3; seed++ {
			s := core.NewScenario(n, seed)
			res, err := New().Run(s)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.BobPaid {
				t.Fatalf("n=%d seed=%d: Bob not paid\n%s", n, seed, res.Trace)
			}
			if !res.AllTerminated {
				t.Fatalf("n=%d seed=%d: not all customers terminated", n, seed)
			}
			bob := res.Outcome(s.Topology.Bob())
			if got, want := bob.NetWealthChange(), s.Spec.BobReceives(); got != want {
				t.Errorf("n=%d seed=%d: Bob net change %d, want %d", n, seed, got, want)
			}
			if err := res.Book.AuditAll(); err != nil {
				t.Errorf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestNoProofOfPaymentForAlice(t *testing.T) {
	// The baseline's defining weakness versus the paper's protocol: even on
	// the happy path Alice ends up without a transferable payment
	// certificate, so CS1 as Definition 1 states it is not met.
	s := core.NewScenario(3, 1)
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	alice := res.Outcome("c0")
	if alice.HoldsChi {
		t.Fatal("HTLC Alice reported holding chi")
	}
	rep := check.Evaluate(res, check.Def1Eventual())
	if rep.Verdict(core.PropCS1).OK() {
		t.Fatal("CS1 passed for the HTLC baseline although Alice paid without receiving a certificate")
	}
	// Liveness and escrow security still hold on the happy path.
	for _, p := range []core.Property{core.PropStrongLiveness, core.PropEscrowSecurity, core.PropConservation} {
		if !rep.Verdict(p).OK() {
			t.Errorf("%s violated on the happy path: %s", p, rep.Verdict(p).Detail())
		}
	}
}

func TestBobWithholdingTimesOutEveryoneRefunded(t *testing.T) {
	s := core.NewScenario(3, 5).SetFault("c3", core.FaultSpec{WithholdCertificate: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob was paid without revealing the preimage")
	}
	for _, id := range []string{"c0", "c1", "c2"} {
		out := res.Outcome(id)
		if out.NetWealthChange() != 0 {
			t.Errorf("%s net change %d after timeout, want 0", id, out.NetWealthChange())
		}
		if !out.Terminated {
			t.Errorf("%s did not terminate after the timelock expired", id)
		}
	}
	if err := res.Book.AuditAll(); err != nil {
		t.Error(err)
	}
}

func TestConnectorRefusesToExtend(t *testing.T) {
	s := core.NewScenario(4, 9).SetFault("c2", core.FaultSpec{RefuseToPay: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BobPaid {
		t.Fatal("Bob paid although the chain was never extended past c2")
	}
	for _, id := range []string{"c0", "c1"} {
		out := res.Outcome(id)
		if out.NetWealthChange() != 0 {
			t.Errorf("%s lost %d", id, -out.NetWealthChange())
		}
	}
}

func TestGriefingEscrowWithholdsPreimage(t *testing.T) {
	// e1 releases the claim downstream but never exposes the preimage to its
	// payer c1: c1's own incoming claim never happens and she loses money.
	// Her escrow (e1) is Byzantine, so CS3's precondition fails — the checker
	// must not flag the run, but the loss is real and is what E7 reports as
	// the baseline's griefing exposure.
	s := core.NewScenario(3, 13).SetFault("e1", core.FaultSpec{WithholdCertificate: true})
	res, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Evaluate(res, check.Def1Eventual())
	if !rep.SafetyOK() {
		t.Fatalf("safety flagged despite Byzantine escrow precondition:\n%s", rep)
	}
	c1 := res.Outcome("c1")
	if c1.NetWealthChange() >= 0 {
		t.Skip("this schedule let c1 recover; griefing did not bite")
	}
}

func TestExpiryOrdering(t *testing.T) {
	p := New()
	timing := core.DefaultTiming()
	n := 6
	for i := 0; i+1 < n; i++ {
		if p.ExpiryOf(i, n, timing) <= p.ExpiryOf(i+1, n, timing) {
			t.Fatalf("expiry at hop %d (%v) not later than at hop %d (%v)",
				i, p.ExpiryOf(i, n, timing), i+1, p.ExpiryOf(i+1, n, timing))
		}
	}
}

func TestCollateralLockTimeGrowsWithChainLength(t *testing.T) {
	// The total time Alice's collateral can stay locked grows linearly with
	// the number of hops — one of the cost dimensions of experiment E7.
	p := New()
	timing := core.DefaultTiming()
	if p.ExpiryOf(0, 8, timing) <= p.ExpiryOf(0, 2, timing) {
		t.Fatal("collateral lock time does not grow with chain length")
	}
}

func TestSlowNetworkBreaksClaimWindow(t *testing.T) {
	// If the network delays claims past the expiry, escrows refund instead:
	// nobody is paid, and with honest parties nobody loses either.
	s := core.NewScenario(2, 21)
	slow := netsim.Adversarial{
		Label: "slow-claims",
		Strategy: func(env netsim.Envelope, eng *sim.Engine) (sim.Time, bool) {
			if _, isClaim := env.Msg.(*MsgClaim); isClaim {
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
		t.Fatal("Bob was paid although claims arrived after expiry")
	}
	for _, id := range []string{"c0", "c1"} {
		if res.Outcome(id).NetWealthChange() < 0 {
			t.Errorf("%s lost money", id)
		}
	}
}

func TestDeterminism(t *testing.T) {
	s := core.NewScenario(4, 99)
	a, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.EventsFired != b.EventsFired || a.Trace.Len() != b.Trace.Len() {
		t.Fatal("identical scenarios produced different runs")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "htlc" {
		t.Fatalf("unexpected name %q", New().Name())
	}
}
