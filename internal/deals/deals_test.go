package deals

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
)

// swapDeal is the canonical two-party swap: Alice gives Bob 5 coins, Bob
// gives Alice 1 token. Its digraph is a 2-cycle, hence well-formed.
func swapDeal() *Deal {
	return NewDeal("alice", "bob").
		Transfer("alice", "bob", Asset{Type: "coin", Amount: 5}).
		Transfer("bob", "alice", Asset{Type: "token", Amount: 1})
}

// ringDeal is a three-party ring: a->b->c->a, one asset type per arc.
func ringDeal() *Deal {
	return NewDeal("a", "b", "c").
		Transfer("a", "b", Asset{Type: "x", Amount: 10}).
		Transfer("b", "c", Asset{Type: "y", Amount: 20}).
		Transfer("c", "a", Asset{Type: "z", Amount: 30})
}

func TestWellFormed(t *testing.T) {
	if !swapDeal().WellFormed() {
		t.Error("two-party swap should be well-formed")
	}
	if !ringDeal().WellFormed() {
		t.Error("three-party ring should be well-formed")
	}
	path := NewDeal("a", "b", "c").
		Transfer("a", "b", Asset{Type: "x", Amount: 1}).
		Transfer("b", "c", Asset{Type: "x", Amount: 1})
	if path.WellFormed() {
		t.Error("a path is not strongly connected and must not be well-formed")
	}
	if NewDeal().WellFormed() {
		t.Error("the empty deal must not be well-formed")
	}
}

func TestDealAccessors(t *testing.T) {
	d := swapDeal()
	if got := d.Entry("alice", "bob"); got.Amount != 5 || got.Type != "coin" {
		t.Errorf("Entry(alice,bob) = %v", got)
	}
	if got := d.Entry("bob", "nobody"); !got.IsZero() {
		t.Errorf("unknown party entry = %v", got)
	}
	if got := len(d.Arcs()); got != 2 {
		t.Errorf("swap has %d arcs", got)
	}
	types := d.AssetTypes()
	if len(types) != 2 || types[0] != "coin" || types[1] != "token" {
		t.Errorf("asset types %v", types)
	}
	if d.String() == "" {
		t.Error("empty rendering")
	}
}

// TestArcsDerivedOnce: Arcs and AssetTypes hand out the deal's own slices —
// nothing is rebuilt per call — and follow every Transfer, a later one and an
// overwrite to zero included; a Deal assembled by hand derives them itself.
func TestArcsDerivedOnce(t *testing.T) {
	d := swapDeal()
	if n := testing.AllocsPerRun(10, func() { _, _ = d.Arcs(), d.AssetTypes() }); n != 0 {
		t.Errorf("Arcs and AssetTypes allocate %.0f times per call", n)
	}
	d.Transfer("alice", "bob", Asset{Type: "gem", Amount: 1})
	if arcs, types := d.Arcs(), d.AssetTypes(); len(arcs) != 2 || arcs[0].Asset.Type != "gem" || !slices.Equal(types, []string{"gem", "token"}) {
		t.Errorf("after an overwrite: arcs %v, types %v", arcs, types)
	}
	d.Transfer("alice", "bob", Asset{})
	if arcs, types := d.Arcs(), d.AssetTypes(); len(arcs) != 1 || arcs[0].From != "bob" || !slices.Equal(types, []string{"token"}) {
		t.Errorf("after a removal: arcs %v, types %v", arcs, types)
	}
	byHand := &Deal{Parties: []string{"x", "y"}, M: [][]Asset{{{}, {Type: "coin", Amount: 2}}, {{}, {}}}}
	if arcs, types := byHand.Arcs(), byHand.AssetTypes(); len(arcs) != 1 || arcs[0] != (Arc{From: "x", To: "y", Asset: Asset{Type: "coin", Amount: 2}}) || !slices.Equal(types, []string{"coin"}) {
		t.Errorf("hand-assembled deal: arcs %v, types %v", arcs, types)
	}
}

func TestAcceptability(t *testing.T) {
	d := swapDeal()
	arcs := d.Arcs()
	aliceToBob, bobToAlice := arcs[0], arcs[1]

	dealDone := NewOutcome(d)
	dealDone.Transferred[aliceToBob] = true
	dealDone.Transferred[bobToAlice] = true
	dealOff := NewOutcome(d)
	aliceLoses := NewOutcome(d)
	aliceLoses.Transferred[aliceToBob] = true
	aliceGains := NewOutcome(d)
	aliceGains.Transferred[bobToAlice] = true

	for _, p := range d.Parties {
		if !dealDone.Acceptable(p) {
			t.Errorf("deal-done unacceptable to %s", p)
		}
		if !dealOff.Acceptable(p) {
			t.Errorf("deal-off unacceptable to %s", p)
		}
	}
	if aliceLoses.Acceptable("alice") {
		t.Error("alice parting with her coins for nothing should be unacceptable")
	}
	if !aliceLoses.Acceptable("bob") {
		t.Error("bob gaining for free should be acceptable to bob")
	}
	if !aliceGains.Acceptable("alice") {
		t.Error("alice gaining for free should be acceptable to alice")
	}
	if !dealDone.SafetyHolds() || !dealOff.SafetyHolds() {
		t.Error("safety must hold for deal-done and deal-off")
	}
	if aliceLoses.SafetyHolds() {
		t.Error("safety must fail when a compliant party loses")
	}
	aliceLoses.Compliant["alice"] = false
	if !aliceLoses.SafetyHolds() {
		t.Error("a non-compliant party's loss must not falsify safety")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	d := ringDeal()
	o := NewOutcome(d)
	if !o.NoneTransferred() || o.AllTransferred() {
		t.Error("fresh outcome flags wrong")
	}
	for _, arc := range d.Arcs() {
		o.Transferred[arc] = true
	}
	if !o.AllTransferred() || o.NoneTransferred() {
		t.Error("completed outcome flags wrong")
	}
	if !o.TerminationHolds() {
		t.Error("termination must hold with nothing escrowed forever")
	}
	o.EscrowedForever = append(o.EscrowedForever, d.Arcs()[0])
	if o.TerminationHolds() {
		t.Error("termination must fail with a compliant party's asset stuck")
	}
	if !o.StrongLivenessHolds() {
		t.Error("strong liveness must hold when everything transferred")
	}
}

func dealConfig(d *Deal, seed int64) Config {
	return Config{
		Deal:   d,
		Timing: core.DefaultTiming(),
		Seed:   seed,
	}
}

func TestTimelockCommitAllCompliant(t *testing.T) {
	for _, d := range []*Deal{swapDeal(), ringDeal()} {
		res, err := TimelockCommit{}.Run(dealConfig(d, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.AllTransferred() {
			t.Fatalf("%s: compliant parties under synchrony did not complete the deal\n%s", res.Protocol, res.Trace)
		}
		if !res.Outcome.SafetyHolds() || !res.Outcome.TerminationHolds() || !res.Outcome.StrongLivenessHolds() {
			t.Fatalf("%s: properties violated", res.Protocol)
		}
		if err := res.Book.AuditAll(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTimelockCommitDeviatorAborts(t *testing.T) {
	cfg := dealConfig(ringDeal(), 3)
	cfg.NonCompliant = map[string]bool{"b": true}
	res, err := TimelockCommit{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.NoneTransferred() {
		t.Fatal("a deviating party should force the whole deal to abort")
	}
	if !res.Outcome.SafetyHolds() {
		t.Fatal("safety violated for compliant parties")
	}
	if !res.Outcome.TerminationHolds() {
		t.Fatal("a compliant party's asset stayed escrowed forever")
	}
	// Strong liveness is vacuously true: not everyone complied.
	if !res.Outcome.StrongLivenessHolds() {
		t.Fatal("strong liveness should hold vacuously")
	}
}

func TestCertifiedCommitAllCompliant(t *testing.T) {
	cfg := dealConfig(swapDeal(), 5)
	cfg.PartyPatience = 5 * sim.Second
	res, err := CertifiedCommit{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.AllTransferred() {
		t.Fatalf("compliant parties did not complete the certified deal\n%s", res.Trace)
	}
	if !res.Outcome.SafetyHolds() || !res.Outcome.TerminationHolds() {
		t.Fatal("safety or termination violated")
	}
}

func TestCertifiedCommitLosesStrongLivenessUnderDelays(t *testing.T) {
	// Pre-GST delays longer than the parties' patience make an abort happen
	// even though everyone complies: exactly the strong-liveness gap the
	// paper (and Herlihy et al.) prove unavoidable under partial synchrony.
	cfg := dealConfig(swapDeal(), 7)
	cfg.PartyPatience = 50 * sim.Millisecond
	cfg.Network = netsim.PartialSynchrony{GST: 2 * sim.Second, Delta: 50 * sim.Millisecond, MaxPreGST: 1 * sim.Second}
	res, err := CertifiedCommit{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.StrongLivenessHolds() {
		t.Skip("this schedule was fast enough to commit; strong liveness not falsified here")
	}
	if !res.Outcome.SafetyHolds() || !res.Outcome.TerminationHolds() {
		t.Fatal("safety or termination violated while liveness failed")
	}
}

func TestCertifiedCommitDeviatorAborts(t *testing.T) {
	cfg := dealConfig(ringDeal(), 9)
	cfg.NonCompliant = map[string]bool{"c": true}
	cfg.PartyPatience = 500 * sim.Millisecond
	res, err := CertifiedCommit{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.AllTransferred() {
		t.Fatal("the deal completed although a party never escrowed")
	}
	if !res.Outcome.SafetyHolds() || !res.Outcome.TerminationHolds() {
		t.Fatal("safety or termination violated for compliant parties")
	}
}

func TestPaymentAsDealIsNotWellFormed(t *testing.T) {
	topo := core.NewTopology(3)
	spec := core.NewPaymentSpec("p", topo, 1000, 10)
	d := PaymentAsDeal(topo, spec)
	if len(d.Arcs()) != 3 {
		t.Fatalf("expected 3 arcs, got %d", len(d.Arcs()))
	}
	if d.WellFormed() {
		t.Fatal("a linear payment translates to a path, which must not be well-formed")
	}
	if got := d.Entry("c0", "c1").Amount; got != spec.AmountVia(0) {
		t.Errorf("first hop amount %d, want %d", got, spec.AmountVia(0))
	}
}

func TestDealAsPaymentRoundTrip(t *testing.T) {
	topo := core.NewTopology(4)
	spec := core.NewPaymentSpec("p", topo, 500, 5)
	d := PaymentAsDeal(topo, spec)
	gotTopo, gotSpec, err := DealAsPayment(d)
	if err != nil {
		t.Fatalf("path deal should translate back: %v", err)
	}
	if gotTopo.N != topo.N {
		t.Fatalf("round-trip chain length %d, want %d", gotTopo.N, topo.N)
	}
	for i := 0; i < topo.N; i++ {
		if gotSpec.AmountVia(i) != spec.AmountVia(i) {
			t.Errorf("hop %d amount %d, want %d", i, gotSpec.AmountVia(i), spec.AmountVia(i))
		}
	}
}

func TestDealAsPaymentRejectsNonPathDeals(t *testing.T) {
	cases := map[string]*Deal{
		"cycle": ringDeal(),
		"swap":  swapDeal(),
		"fan-out": NewDeal("a", "b", "c").
			Transfer("a", "b", Asset{Type: "x", Amount: 1}).
			Transfer("a", "c", Asset{Type: "x", Amount: 1}),
		"fan-in": NewDeal("a", "b", "c").
			Transfer("a", "c", Asset{Type: "x", Amount: 1}).
			Transfer("b", "c", Asset{Type: "x", Amount: 1}),
		"empty": NewDeal("a", "b"),
	}
	for name, d := range cases {
		if _, _, err := DealAsPayment(d); err == nil {
			t.Errorf("%s deal translated to a payment but should not", name)
		}
	}
}

func TestDealRunDeterminism(t *testing.T) {
	cfg := dealConfig(ringDeal(), 11)
	a, err := TimelockCommit{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TimelockCommit{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Stats.Sent != b.Stats.Sent {
		t.Fatal("identical configurations produced different runs")
	}
}

// A certified decision is only acted upon when the message's Commit bit
// matches the signed subject: replaying a genuine abort certificate with
// the bit flipped (or an unsigned decision) must settle nothing.
func TestCertifiedDecisionBindsCommitBit(t *testing.T) {
	w := core.NewWorld()
	r := core.Standing[dealRun](w)
	if err := r.reset(w, dealConfig(swapDeal(), 1), false); err != nil {
		t.Fatal(err)
	}
	chain := &r.chains[0]
	settled := func() bool { return r.arcs[0].settled || r.arcs[1].settled }
	abortCert := sig.NewReceipt(r.kr, r.id, certifierID, "abort", 0)
	chain.onCertified(&msgCertified{Commit: true, Cert: abortCert})
	if chain.led.Name() != "coin" || settled() {
		t.Fatal("flipped-bit replay of an abort certificate settled arcs")
	}
	chain.onCertified(&msgCertified{Commit: true})
	if settled() {
		t.Fatal("unsigned decision settled arcs")
	}
	commitCert := sig.NewReceipt(r.kr, r.id, certifierID, "commit", 0)
	tampered := commitCert
	tampered.Subject = "abort"
	chain.onCertified(&msgCertified{Commit: false, Cert: tampered})
	if settled() {
		t.Fatal("tampered certificate settled arcs")
	}
}

// The certifier's key seed is below the model: a certified run under a
// campaign-wide KeySeed is, trace included, the run under the deal's own.
func TestKeySeedNeverReachesARun(t *testing.T) {
	for _, backend := range []string{"ed25519", "hmac"} {
		cfg := dealConfig(ringDeal(), 5)
		cfg.Crypto = backend
		cfg.NonCompliant = map[string]bool{"b": true}
		cfg.PartyPatience = 2 * sim.Second
		own, err := CertifiedCommit{}.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.KeySeed = "campaign"
		shared, err := CertifiedCommit{}.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if own.Trace.Len() == 0 || own.Trace.String() != shared.Trace.String() ||
			own.Duration != shared.Duration || own.EventsFired != shared.EventsFired || own.Stats != shared.Stats {
			t.Fatalf("%s: the key seed changed the run:\n--- deal-<seed>\n%s--- campaign\n%s", backend, own.Trace, shared.Trace)
		}
	}
}

// Both crypto backends drive the certified protocol to the same outcome.
func TestCertifiedCommitCryptoBackends(t *testing.T) {
	for _, backend := range []string{"", "ed25519", "hmac"} {
		cfg := dealConfig(swapDeal(), 1)
		cfg.Crypto = backend
		res, err := CertifiedCommit{}.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.AllTransferred() {
			t.Fatalf("crypto=%q: compliant swap did not complete", backend)
		}
	}
	cfg := dealConfig(swapDeal(), 1)
	cfg.Crypto = "rot13"
	if _, err := (CertifiedCommit{}).Run(cfg); err == nil {
		t.Fatal("unknown crypto backend accepted")
	}
}
