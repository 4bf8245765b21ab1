package xchainpay

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/traffic"
	"repro/internal/weaklive"
)

func TestQuickstartFlow(t *testing.T) {
	s := core.NewScenario(3, 42)
	p := timelock.New()
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BobPaid {
		t.Fatal("Bob not paid on the quickstart path")
	}
	rep := check.Evaluate(res, check.Def1TimeBounded(p.ParamsFor(s).Bound))
	if !rep.AllOK() {
		t.Fatalf("Definition-1 properties violated:\n%s", rep)
	}
}

func TestFacadeProtocols(t *testing.T) {
	s := core.NewScenario(2, 7)
	for _, id := range s.Topology.Customers() {
		s = s.SetPatience(id, 20*sim.Second)
	}
	protocols := []core.Protocol{
		timelock.New(), timelock.NewANTA(), timelock.NewNaive(),
		weaklive.New(), weaklive.NewCommittee(4), htlc.New(),
	}
	seen := map[string]bool{}
	for _, p := range protocols {
		if seen[p.Name()] {
			t.Errorf("duplicate protocol name %q", p.Name())
		}
		seen[p.Name()] = true
		res, err := p.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !res.BobPaid {
			t.Errorf("%s: Bob not paid on an all-honest synchronous run", p.Name())
		}
		// Properties common to every protocol family: escrows never lose
		// money and the ledgers conserve value. (Definition-1 customer
		// security is deliberately *not* satisfied by the HTLC baseline, and
		// the weak-liveness protocol is judged under Definition 2 — that is
		// what experiments E5 and E7 are about.)
		rep := check.Evaluate(res, check.Def1Eventual())
		for _, prop := range []core.Property{core.PropEscrowSecurity, core.PropConservation} {
			if !rep.Verdict(prop).OK() {
				t.Errorf("%s: %s violated: %s", p.Name(), prop, rep.Verdict(prop).Detail)
			}
		}
	}
}

func TestFacadeNetworks(t *testing.T) {
	s := core.NewScenario(2, 3).WithNetwork(netsim.PartialSynchrony{GST: 500 * sim.Millisecond, Delta: 50 * sim.Millisecond, MaxPreGST: 400 * sim.Millisecond})
	for _, id := range s.Topology.Customers() {
		s = s.SetPatience(id, 30*sim.Second)
	}
	res, err := weaklive.New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BobPaid {
		t.Fatal("patient customers under partial synchrony should still pay Bob")
	}
	rep := check.Evaluate(res, check.Def2(10*sim.Second))
	if !rep.AllOK() {
		t.Fatalf("Definition-2 properties violated:\n%s", rep)
	}
}

func TestTrafficFacade(t *testing.T) {
	s := core.NewScenario(4, 11)
	w := traffic.NewWorkload(80)
	a, err := traffic.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traffic.RunWith(s, w, traffic.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("traffic results differ between parallel and serial execution:\n%s\nvs\n%s", a, b)
	}
	if a.Succeeded != 80 {
		t.Fatalf("expected all 80 payments to succeed with ample liquidity:\n%s", a)
	}
	if a.AuditErr != nil {
		t.Fatalf("liquidity ledgers failed audit: %v", a.AuditErr)
	}
	points := traffic.Sweep([]traffic.Point{
		{Label: "a", Scenario: s, Workload: w},
		{Label: "b", Scenario: s.WithSeed(12), Workload: w},
	}, traffic.Config{})
	if len(points) != 2 || points[0].Err != nil || points[1].Err != nil {
		t.Fatalf("sweep failed: %+v", points)
	}
	if points[0].Result.String() != a.String() {
		t.Fatal("sweep cell differs from the standalone run of the same point")
	}
}

func TestFacadeScenarioHelpers(t *testing.T) {
	s := core.NewScenario(2, 1).SetFault("c1", core.FaultSpec{Silent: true})
	if !s.FaultOf("c1").Silent {
		t.Error("SetFault lost the fault")
	}
	if s.Network == nil {
		t.Error("scenario has no network")
	}
	_ = core.AllProperties() // the property vocabulary stays reachable
}
