package sig

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

var testIDs = []string{"alice", "bob", "escrow0", "manager", "notary0", "notary1", "notary2", "notary3"}

func testKeyring() *Keyring { return NewKeyringWith(Options{}, "test", testIDs) }

// pid is the PID under which kr holds id's key.
func pid(kr *Keyring, id string) sim.PID { return sim.PID(kr.index(id)) }

func TestKeyringDeterminism(t *testing.T) {
	a := NewKeyringWith(Options{}, "seed", []string{"x", "y"})
	b := NewKeyringWith(Options{}, "seed", []string{"y", "x"})
	msg := []byte("hello")
	if !bytes.Equal(a.Sign("x", msg).Bytes(), b.Sign("x", msg).Bytes()) {
		t.Fatal("same seed and id produced different keys")
	}
	c := NewKeyringWith(Options{}, "other", []string{"x"})
	if bytes.Equal(a.Sign("x", msg).Bytes(), c.Sign("x", msg).Bytes()) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	kr := testKeyring()
	msg := []byte("payload")
	sig := kr.Sign("alice", msg)
	if !kr.Verify("alice", msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if kr.Verify("bob", msg, sig) {
		t.Fatal("signature verified against the wrong signer")
	}
	if kr.Verify("alice", []byte("tampered"), sig) {
		t.Fatal("signature verified over tampered payload")
	}
	if kr.Verify("alice", msg, Signature{}) {
		t.Fatal("empty signature verified")
	}
	if kr.Sign("stranger", msg) != (Signature{}) {
		t.Fatal("signing for an unknown id returned a signature")
	}
	if !kr.Holds(0, "alice") || kr.Holds(1, "alice") || kr.Holds(0, "stranger") {
		t.Fatal("Holds() wrong")
	}
	if sig.String() == "" || (Signature{}).String() == "" {
		t.Fatal("signature rendering empty")
	}
}

// TestSignatureString renders the first eight bytes of a signature, and all
// of a shorter one: a 6-byte forgery renders instead of panicking, and so do
// the absent signature and a stale one.
func TestSignatureString(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendHMAC}, "string-seed", []string{"a"})
	stale := kr.Sign("a", []byte("m"))
	kr.Reset("string-seed", []string{"a"})
	for _, c := range []struct {
		s    Signature
		want string
	}{
		{Signature{}, "sig()"},
		{stale, "sig()"},
		{Raw([]byte("forged")), "sig(666f72676564)"},
		{Raw([]byte("12345678")), "sig(3132333435363738…)"},
		{Raw([]byte("0123456789abcdef0123456789abcdef")), "sig(3031323334353637…)"},
		{kr.Sign("a", []byte("m")), "sig(" + hex.EncodeToString(eagerSign(kr, "a", []byte("m"))[:8]) + "…)"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("Signature(%x).String() = %q, want %q", c.s.Bytes(), got, c.want)
		}
	}
}

func TestPaymentCert(t *testing.T) {
	kr := testKeyring()
	chi := PaymentCert{PaymentID: "pay1", Issuer: "bob", Payer: "alice", IssuedAt: 5 * sim.Millisecond}
	chi.Sign(kr, pid(kr, "bob"))
	if !chi.Verify(kr, "bob") {
		t.Fatal("genuine chi rejected")
	}
	if chi.Verify(kr, "alice") {
		t.Fatal("chi accepted with the wrong expected issuer")
	}
	forged := chi
	forged.PaymentID = "pay2"
	if forged.Verify(kr, "bob") {
		t.Fatal("tampered chi accepted")
	}
	impostor := PaymentCert{PaymentID: "pay1", Issuer: "alice", Payer: "alice", IssuedAt: 5}
	impostor.Sign(kr, pid(kr, "alice"))
	if impostor.Verify(kr, "bob") {
		t.Fatal("chi issued by the wrong party accepted")
	}
	if chi.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestGuaranteeAndPromise(t *testing.T) {
	kr := testKeyring()
	g := Guarantee{PaymentID: "pay1", Escrow: "escrow0", Customer: "alice", D: 100 * sim.Millisecond, IssuedAt: 1}
	g.Sign(kr, pid(kr, "escrow0"))
	if !g.Verify(kr) {
		t.Fatal("genuine guarantee rejected")
	}
	g2 := g
	g2.D++
	if g2.Verify(kr) {
		t.Fatal("tampered guarantee accepted")
	}
	p := Promise{PaymentID: "pay1", Escrow: "escrow0", Customer: "bob", A: 80 * sim.Millisecond, Epsilon: 2 * sim.Millisecond, IssuedAt: 1}
	p.Sign(kr, pid(kr, "escrow0"))
	if !p.Verify(kr) {
		t.Fatal("genuine promise rejected")
	}
	p2 := p
	p2.A++
	if p2.Verify(kr) {
		t.Fatal("tampered promise accepted")
	}
	if g.Describe() == "" || p.Describe() == "" {
		t.Fatal("empty descriptions")
	}
}

func TestDecisionCert(t *testing.T) {
	kr := testKeyring()
	// cert signs a certificate on behalf of every signer, as a manager does.
	cert := func(d Decision, at sim.Time, signers []string, quorum int) DecisionCert {
		c := DecisionCert{PaymentID: "pay1", Decision: d, Manager: "manager", IssuedAt: at, Signers: signers, Quorum: quorum}
		by := make([]sim.PID, len(signers))
		for i, s := range signers {
			by[i] = pid(kr, s)
		}
		c.Sign(kr, by)
		return c
	}
	single := cert(DecisionCommit, 3, []string{"manager"}, 1)
	if !single.Verify(kr) {
		t.Fatal("single-manager certificate rejected")
	}
	tampered := single
	tampered.Decision = DecisionAbort
	if tampered.Verify(kr) {
		t.Fatal("tampered decision accepted")
	}

	signers := []string{"notary0", "notary1", "notary2"}
	committee := cert(DecisionAbort, 4, signers, 3)
	if !committee.Verify(kr) {
		t.Fatal("committee certificate rejected")
	}
	// Below quorum it must not verify.
	short := cert(DecisionAbort, 4, signers[:2], 3)
	if short.Verify(kr) {
		t.Fatal("certificate with too few signatures accepted")
	}
	// Duplicate signers must not inflate the count.
	dup := cert(DecisionAbort, 4, []string{"notary0", "notary0", "notary0"}, 3)
	if dup.Verify(kr) {
		t.Fatal("duplicate signers satisfied the quorum")
	}
	if committee.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestReceipt(t *testing.T) {
	kr := testKeyring()
	r := Receipt{PaymentID: "pay1", Issuer: "bob", Subject: "funds-received", IssuedAt: 9}
	r.Sign(kr, pid(kr, "bob"))
	if !r.Verify(kr) {
		t.Fatal("genuine receipt rejected")
	}
	r2 := r
	r2.Subject = "other"
	if r2.Verify(kr) {
		t.Fatal("tampered receipt accepted")
	}
	if r.Describe() == "" {
		t.Fatal("empty description")
	}
}

// TestDescribeLabelsPinned pins the artefacts' trace labels to the fmt forms
// they were first written in: recorded traces and the CLI's -trace output
// carry them, so Describe may get cheaper but never different.
func TestDescribeLabelsPinned(t *testing.T) {
	times := []sim.Time{
		0, 1, 999, -1, -2500, 80 * sim.Millisecond, 10 * sim.Minute, 3*sim.Hour + 1, 1 << 50, sim.Never,
	}
	ids := [][2]string{{"e0", "c0"}, {"", ""}, {"escrow-with-a-long-name-0123456789", "customer-with-a-long-name-0123456789-0123456789"}}
	for _, d := range times {
		for _, id := range ids {
			g := Guarantee{PaymentID: "pay", Escrow: id[0], Customer: id[1], D: d}
			if got, want := g.Describe(), fmt.Sprintf("G(d=%v from %s to %s)", g.D, g.Escrow, g.Customer); got != want {
				t.Errorf("Guarantee.Describe() = %q, want %q", got, want)
			}
			p := Promise{PaymentID: "pay", Escrow: id[0], Customer: id[1], A: d}
			if got, want := p.Describe(), fmt.Sprintf("P(a=%v from %s to %s)", p.A, p.Escrow, p.Customer); got != want {
				t.Errorf("Promise.Describe() = %q, want %q", got, want)
			}
		}
	}
	for _, id := range ids {
		c := PaymentCert{PaymentID: id[0], Issuer: id[1]}
		if got, want := c.Describe(), fmt.Sprintf("chi(%s by %s)", c.PaymentID, c.Issuer); got != want {
			t.Errorf("PaymentCert.Describe() = %q, want %q", got, want)
		}
		r := Receipt{PaymentID: id[0], Subject: "funds-received", Issuer: id[1]}
		if got, want := r.Describe(), fmt.Sprintf("receipt(%s:%s by %s)", r.PaymentID, r.Subject, r.Issuer); got != want {
			t.Errorf("Receipt.Describe() = %q, want %q", got, want)
		}
		for _, sigs := range []int{0, 1, 7, 1000} {
			for _, dec := range []Decision{DecisionCommit, DecisionAbort, 0} {
				dc := DecisionCert{PaymentID: id[0], Manager: id[1], Decision: dec, Sigs: make([]Signature, sigs)}
				want := fmt.Sprintf("%s-cert(%s by %s, %d sigs)", dc.Decision, dc.PaymentID, dc.Manager, len(dc.Sigs))
				if got := dc.Describe(); got != want {
					t.Errorf("DecisionCert.Describe() = %q, want %q", got, want)
				}
			}
		}
	}
}

// Property: signatures verify exactly for the (signer, payload) pair that
// produced them.
func TestPropertySignatureBinding(t *testing.T) {
	kr := testKeyring()
	ids := testIDs
	f := func(payload []byte, signerIdx, verifierIdx uint8, flip bool) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		signer := ids[int(signerIdx)%len(ids)]
		verifier := ids[int(verifierIdx)%len(ids)]
		sig := kr.Sign(signer, payload)
		check := append([]byte(nil), payload...)
		if flip {
			check[0] ^= 0xff
		}
		got := kr.Verify(verifier, check, sig)
		want := signer == verifier && !flip
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTamperedOrRekindedNeverHits changes each field of every typed artefact
// in turn, and moves signatures between kinds whose strings and times are
// equal (chi onto a receipt, G(d) onto P(a)): each verification fails, is
// paid to the backend as exactly one miss, and none is answered from the
// record, while the artefacts as signed verify as hits.
func TestTamperedOrRekindedNeverHits(t *testing.T) {
	for _, backend := range []string{"ed25519", "hmac"} {
		kr := NewKeyringWith(Options{Backend: backend}, "tamper-seed", []string{"c0", "e0", "c1", "manager"})
		chi := PaymentCert{PaymentID: "pay", Issuer: "c1", Payer: "c0", IssuedAt: 7}
		chi.Sign(kr, 2)
		g := Guarantee{PaymentID: "pay", Escrow: "e0", Customer: "c0", D: 5, IssuedAt: 3}
		g.Sign(kr, 1)
		p := Promise{PaymentID: "pay", Escrow: "e0", Customer: "c1", A: 5, Epsilon: 2, IssuedAt: 11}
		p.Sign(kr, 1)
		d := DecisionCert{PaymentID: "pay", Decision: DecisionCommit, Manager: "manager", IssuedAt: 4, Signers: []string{"manager"}, Quorum: 1}
		d.Sign(kr, []sim.PID{3})
		r := Receipt{PaymentID: "pay", Issuer: "c1", Subject: "funds-received", IssuedAt: 9}
		r.Sign(kr, 2)

		// verify runs one verification and checks what it counted.
		verify := func(name string, want bool, v func() bool) {
			t.Helper()
			before := kr.Stats()
			if got := v(); got != want {
				t.Errorf("%s %s: Verify = %v, want %v", backend, name, got, want)
			}
			hits, misses := kr.Stats().MemoHits-before.MemoHits, kr.Stats().MemoMisses-before.MemoMisses
			if want && (hits != 1 || misses != 0) || !want && (hits != 0 || misses != 1) {
				t.Errorf("%s %s: %d hits and %d misses", backend, name, hits, misses)
			}
		}
		verify("chi", true, func() bool { return chi.Verify(kr, "c1") })
		verify("G(d)", true, func() bool { return g.Verify(kr) })
		verify("P(a)", true, func() bool { return p.Verify(kr) })
		verify("decision", true, func() bool { return d.Verify(kr) })
		verify("receipt", true, func() bool { return r.Verify(kr) })

		for i, tamper := range []func(*PaymentCert){
			func(x *PaymentCert) { x.PaymentID = "pax" },
			func(x *PaymentCert) { x.Issuer = "c0" },
			func(x *PaymentCert) { x.Payer = "e0" },
			func(x *PaymentCert) { x.IssuedAt++ },
		} {
			x := chi
			tamper(&x)
			verify(fmt.Sprintf("chi field %d", i), false, func() bool { return x.Verify(kr, x.Issuer) })
		}
		for i, tamper := range []func(*Guarantee){
			func(x *Guarantee) { x.PaymentID = "pax" },
			func(x *Guarantee) { x.Escrow = "c1" },
			func(x *Guarantee) { x.Customer = "c1" },
			func(x *Guarantee) { x.D++ },
			func(x *Guarantee) { x.IssuedAt++ },
		} {
			x := g
			tamper(&x)
			verify(fmt.Sprintf("G(d) field %d", i), false, func() bool { return x.Verify(kr) })
		}
		for i, tamper := range []func(*Promise){
			func(x *Promise) { x.PaymentID = "pax" },
			func(x *Promise) { x.Escrow = "c0" },
			func(x *Promise) { x.Customer = "c0" },
			func(x *Promise) { x.A++ },
			func(x *Promise) { x.Epsilon++ },
			func(x *Promise) { x.IssuedAt++ },
		} {
			x := p
			tamper(&x)
			verify(fmt.Sprintf("P(a) field %d", i), false, func() bool { return x.Verify(kr) })
		}
		for i, tamper := range []func(*DecisionCert){
			func(x *DecisionCert) { x.PaymentID = "pax" },
			func(x *DecisionCert) { x.Decision = DecisionAbort },
			func(x *DecisionCert) { x.Manager = "c0" },
			func(x *DecisionCert) { x.IssuedAt++ },
		} {
			x := d
			tamper(&x)
			verify(fmt.Sprintf("decision field %d", i), false, func() bool { return x.Verify(kr) })
		}
		for i, tamper := range []func(*Receipt){
			func(x *Receipt) { x.PaymentID = "pax" },
			func(x *Receipt) { x.Issuer = "c0" },
			func(x *Receipt) { x.Subject = "funds-refunded" },
			func(x *Receipt) { x.IssuedAt++ },
		} {
			x := r
			tamper(&x)
			verify(fmt.Sprintf("receipt field %d", i), false, func() bool { return x.Verify(kr) })
		}

		rekinded := Receipt{PaymentID: chi.PaymentID, Issuer: chi.Issuer, Subject: chi.Payer, IssuedAt: chi.IssuedAt, Sig: chi.Sig}
		verify("chi's signature on a receipt", false, func() bool { return rekinded.Verify(kr) })
		asChi := PaymentCert{PaymentID: r.PaymentID, Issuer: r.Issuer, Payer: r.Subject, IssuedAt: r.IssuedAt, Sig: r.Sig}
		verify("a receipt's signature on chi", false, func() bool { return asChi.Verify(kr, asChi.Issuer) })
		asPromise := Promise{PaymentID: g.PaymentID, Escrow: g.Escrow, Customer: g.Customer, A: g.D, Epsilon: g.IssuedAt, Sig: g.Sig}
		verify("G(d)'s signature on P(a)", false, func() bool { return asPromise.Verify(kr) })
	}
}
