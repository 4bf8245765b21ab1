package traffic

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
)

// byzWorkload is the reference faulted workload of this file: a mixed-
// protocol population on constrained liquidity with queuing, a quarter of
// the connectors turning Byzantine mid-run with recovery windows, plus one
// manager outage window hitting the weaklive share.
func byzWorkload(payments int) Workload {
	w := NewWorkload(payments).WithMix(mixed...)
	w.Arrival.Rate = 400
	w = w.WithLiquidity(2000).WithQueue(5*sim.Second, 0)
	w.Faults = FaultPlan{
		Fraction:      0.25,
		From:          200 * sim.Millisecond,
		Stagger:       time500ms,
		Outage:        sim.Second,
		ManagerOutage: 800 * sim.Millisecond,
	}
	return w
}

const time500ms = 500 * sim.Millisecond

// TestFaultPlanDeterminism compiles and runs the same faulted workload
// twice and requires identical compiled schedules and byte-identical run
// fingerprints — the double-run check of the plan's seed-derivation.
func TestFaultPlanDeterminism(t *testing.T) {
	s := core.NewScenario(8, 77)
	w := byzWorkload(300)

	p1, p2 := w.Faults.compile(s), w.Faults.compile(s)
	if p1 == nil || p2 == nil {
		t.Fatal("fault plan compiled to nil")
	}
	if !reflect.DeepEqual(p1.injected, p2.injected) || p1.hasManager != p2.hasManager || p1.manager != p2.manager {
		t.Fatalf("compile is not deterministic:\n%s\nvs\n%s", p1.Describe(), p2.Describe())
	}
	if len(p1.injected) != 2 { // round(0.25 * 7 connectors)
		t.Fatalf("0.25 of 7 connectors compiled to %d faults:\n%s", len(p1.injected), p1.Describe())
	}

	a, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if as, bs := a.String(), b.String(); as != bs {
		t.Fatalf("faulted runs differ across invocations:\n--- run A ---\n%s--- run B ---\n%s", as, bs)
	}
	if !reflect.DeepEqual(a.Payments, b.Payments) {
		t.Fatal("per-payment records differ across invocations")
	}
}

// TestByzantineDamageMeasured asserts the aggregate oracle's two halves on
// a griefing-heavy plan: safety stays intact (zero violations, clean audit,
// conservation at every instant) while the attack's liveness damage is
// visible and attributed (faulted payments fail, drops on faulted paths are
// blamed on the attacker, Byzantine-held liquidity peaks above zero).
func TestByzantineDamageMeasured(t *testing.T) {
	s := core.NewScenario(8, 5)
	w := NewWorkload(600).WithMix(mixed...)
	w.Arrival.Rate = 600
	// Tight liquidity + a long-holding silent connector: lock-and-abandon
	// griefing starves honest payments into the queue.
	w = w.WithLiquidity(1500).WithQueue(2*sim.Second, 0)
	w.Faults = FaultPlan{
		Fraction:   0.3,
		Behaviours: []string{"silent", "withhold"},
	}

	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyViolations != 0 {
		t.Fatalf("aggregate safety oracle violated:\n%s", res)
	}
	if res.AuditErr != nil || res.CascadeErr != nil || res.PendingLocks != 0 {
		t.Fatalf("conservation broken under griefing:\n%s", res)
	}
	if res.ByzantineConnectors != 2 { // round(0.3 * 7)
		t.Fatalf("expected 2 Byzantine connectors, got %d", res.ByzantineConnectors)
	}
	if res.FaultedPayments == 0 || res.Failed == 0 {
		t.Fatalf("attack caused no measurable damage:\n%s", res)
	}
	if res.PeakByzantineHeld == 0 {
		t.Fatalf("griefed liquidity never observed as Byzantine-held:\n%s", res)
	}
	if res.Dropped > 0 && res.DroppedFaulted == 0 {
		t.Fatalf("drops under a griefing plan all blamed on capacity:\n%s", res)
	}
	if res.DroppedFaulted+res.DroppedCapacity != res.Dropped {
		t.Fatalf("drop attribution does not partition drops:\n%s", res)
	}
}

// TestHonestRunsAttributeDropsToCapacity is the satellite regression test:
// a fault-free run that drops payments on starved liquidity must attribute
// every drop to capacity and none to a faulted path.
func TestHonestRunsAttributeDropsToCapacity(t *testing.T) {
	s := core.NewScenario(3, 11)
	w := NewWorkload(200)
	w.Arrival.Rate = 2000
	w = w.WithLiquidity(300).WithQueue(time500ms, 0)

	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("starved workload dropped nothing:\n%s", res)
	}
	if res.DroppedFaulted != 0 {
		t.Fatalf("honest run reported %d faulted-path drops:\n%s", res.DroppedFaulted, res)
	}
	if res.DroppedCapacity != res.Dropped {
		t.Fatalf("capacity drops %d != total drops %d", res.DroppedCapacity, res.Dropped)
	}
	if res.FaultedPayments != 0 || res.SafetyViolations != 0 || res.ByzantineConnectors != 0 {
		t.Fatalf("honest run reported Byzantine activity:\n%s", res)
	}
	if res.PeakByzantineHeld != 0 {
		t.Fatalf("honest run held Byzantine liquidity:\n%s", res)
	}
}

// TestStaticFaultsAttributed: a statically-faulted connector (SetFault on
// the base scenario, the pre-fault-plan API) must also mark crossing
// payments as faulted and blame their drops on the faulted path.
func TestStaticFaultsAttributed(t *testing.T) {
	s := core.NewScenario(3, 7).SetFault("c2", core.FaultSpec{Silent: true})
	w := NewWorkload(150)
	w.Arrival.Rate = 1500
	w = w.WithLiquidity(400).WithQueue(time500ms, 0)

	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultedPayments == 0 {
		t.Fatalf("payments through the silent connector not marked faulted:\n%s", res)
	}
	if res.Dropped > 0 && res.DroppedFaulted == 0 {
		t.Fatalf("drops behind a silent connector blamed on capacity:\n%s", res)
	}
	if res.SafetyViolations != 0 {
		t.Fatalf("safety violated under a static fault:\n%s", res)
	}
}

// TestNotaryMajorityWaivesOnlyCC is the regression test for a false safety
// alarm: with three of a committee's four notaries equivocating, Theorem 3's
// "less than one-third unreliable" assumption is gone and both certificates
// do get issued — damage the theorem permits, not a violation. The traffic
// oracle used to waive CC only for a Byzantine manager ID and counted every
// such payment. One equivocating notary is within the assumption: there CC
// is owed and must hold.
func TestNotaryMajorityWaivesOnlyCC(t *testing.T) {
	equivocate := core.FaultSpec{Equivocate: true}
	w := NewWorkload(200).WithMix(ProtocolShare{Name: "weaklive-committee", Weight: 1})
	w.Arrival.Rate = 200
	for _, tc := range []struct {
		name     string
		notaries int
		wantCC   bool // certificate consistency breaks in some sub-run
	}{
		{"within f", 1, false},
		{"beyond f", 3, true},
	} {
		s := core.NewScenario(3, 42)
		s.Crypto = "hmac"
		for j := 0; j < tc.notaries; j++ {
			s = s.SetFault(core.NotaryID(j), equivocate)
		}
		res, err := RunWith(s, w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.SafetyViolations != 0 || res.FaultedPayments != res.Total {
			t.Errorf("%s: %d safety violations, %d of %d payments faulted, want 0 and all:\n%s",
				tc.name, res.SafetyViolations, res.FaultedPayments, res.Total, res)
		}
		brokeCC := false
		for _, p := range population(s, w) {
			r, err := DefaultProtocols()[p.Protocol].Run(subScenario(s, nil, p))
			if err != nil {
				t.Fatal(err)
			}
			rep := check.Evaluate(r, check.Def2(0))
			if fails := rep.SafetyFailures(); len(fails) > 0 {
				brokeCC = true
				if !reflect.DeepEqual(fails, []core.Property{core.PropCertConsistency}) {
					t.Errorf("%s: %s failed %v, want only CC", tc.name, p.ID, fails)
				}
			}
		}
		if brokeCC != tc.wantCC {
			t.Errorf("%s: certificate consistency broke = %v, want %v", tc.name, brokeCC, tc.wantCC)
		}
	}
}

// TestFaultPlanRecoveryWindows: with Outage set, connectors recover;
// payments arriving after every window closed must run honestly again.
func TestFaultPlanRecoveryWindows(t *testing.T) {
	s := core.NewScenario(4, 13)
	w := NewWorkload(400)
	w.Arrival.Rate = 200 // run stretches well past the fault windows
	w.Faults = FaultPlan{
		Fraction: 1,
		Outage:   300 * sim.Millisecond,
	}
	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultedPayments == 0 {
		t.Fatalf("no payment hit the fault windows:\n%s", res)
	}
	if res.FaultedPayments == res.Total {
		t.Fatalf("every payment faulted despite recovery windows:\n%s", res)
	}
	// Post-recovery arrivals succeed: the run's tail must contain OK
	// payments that arrived after the last window closed.
	lastClose := sim.Time(0)
	for _, f := range w.Faults.compile(s).injected {
		if f.to > lastClose {
			lastClose = f.to
		}
	}
	var lateOK int
	for _, p := range res.Payments {
		if p.Arrival >= lastClose && p.Status == StatusOK {
			lateOK++
		}
	}
	if lateOK == 0 {
		t.Fatalf("no payment succeeded after recovery (last window closed %v):\n%s", lastClose, res)
	}
}

// TestFaultPlanValidation rejects malformed plans through Workload.Validate.
func TestFaultPlanValidation(t *testing.T) {
	topo := core.NewTopology(4)
	cases := map[string]FaultPlan{
		"fraction above 1":  {Fraction: 1.5},
		"negative fraction": {Fraction: -0.1},
		"unknown behaviour": {Fraction: 0.5, Behaviours: []string{"gremlin"}},
		"escrow behaviour":  {Fraction: 0.5, Behaviours: []string{"theft"}},
		"negative window":   {Fraction: 0.5, Outage: -sim.Second},
	}
	for name, fp := range cases {
		w := NewWorkload(10).WithFaults(fp)
		if err := w.Validate(topo); err == nil {
			t.Errorf("%s: validation accepted %+v", name, fp)
		}
	}
	if err := NewWorkload(10).WithFaults(FaultPlan{Fraction: 0.5}).Validate(core.NewTopology(1)); err == nil {
		t.Error("fraction > 0 accepted on a chain with no connectors")
	}
	if err := NewWorkload(10).WithFaults(FaultPlan{Fraction: 0.5, Behaviours: []string{"forge", "slow"}}).Validate(topo); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestFaultPlanAllBehaviours runs every default behaviour individually
// through a small faulted workload: whatever the behaviour does, safety and
// conservation must hold in aggregate.
func TestFaultPlanAllBehaviours(t *testing.T) {
	for _, b := range DefaultFaultBehaviours() {
		b := b
		t.Run(b, func(t *testing.T) {
			s := core.NewScenario(4, 3)
			w := NewWorkload(120).WithMix(mixed...)
			w.Arrival.Rate = 300
			w.Faults = FaultPlan{Fraction: 0.5, Behaviours: []string{b}}
			res, err := Run(s, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.SafetyViolations != 0 {
				t.Fatalf("behaviour %s violated safety:\n%s", b, res)
			}
			if res.AuditErr != nil || res.CascadeErr != nil || res.PendingLocks != 0 {
				t.Fatalf("behaviour %s broke conservation:\n%s", b, res)
			}
			if res.FaultedPayments == 0 {
				t.Fatalf("behaviour %s never touched a payment:\n%s", b, res)
			}
		})
	}
}
