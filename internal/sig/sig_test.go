package sig

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testKeyring() *Keyring {
	return NewKeyring("test", []string{"alice", "bob", "escrow0", "manager", "notary0", "notary1", "notary2", "notary3"})
}

func TestKeyringDeterminism(t *testing.T) {
	a := NewKeyring("seed", []string{"x", "y"})
	b := NewKeyring("seed", []string{"y", "x"})
	msg := []byte("hello")
	if !bytes.Equal(a.Sign("x", msg), b.Sign("x", msg)) {
		t.Fatal("same seed and id produced different keys")
	}
	c := NewKeyring("other", []string{"x"})
	if bytes.Equal(a.Sign("x", msg), c.Sign("x", msg)) {
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
	if kr.Verify("alice", msg, nil) {
		t.Fatal("empty signature verified")
	}
	if kr.Sign("stranger", msg) != nil {
		t.Fatal("signing for an unknown id returned a signature")
	}
	if !kr.Has("alice") || kr.Has("stranger") {
		t.Fatal("Has() wrong")
	}
	if len(kr.Participants()) != 8 {
		t.Fatal("participant list wrong")
	}
	if sig.String() == "" || Signature(nil).String() == "" {
		t.Fatal("signature rendering empty")
	}
}

func TestPaymentCert(t *testing.T) {
	kr := testKeyring()
	chi := NewPaymentCert(kr, "pay1", "bob", "alice", 5*sim.Millisecond)
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
	impostor := NewPaymentCert(kr, "pay1", "alice", "alice", 5)
	if impostor.Verify(kr, "bob") {
		t.Fatal("chi issued by the wrong party accepted")
	}
	if chi.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestGuaranteeAndPromise(t *testing.T) {
	kr := testKeyring()
	g := NewGuarantee(kr, "pay1", "escrow0", "alice", 100*sim.Millisecond, 1)
	if !g.Verify(kr) {
		t.Fatal("genuine guarantee rejected")
	}
	g2 := g
	g2.D++
	if g2.Verify(kr) {
		t.Fatal("tampered guarantee accepted")
	}
	p := NewPromise(kr, "pay1", "escrow0", "bob", 80*sim.Millisecond, 2*sim.Millisecond, 1)
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
	single := NewCommitteeDecisionCert(kr, "pay1", DecisionCommit, "manager", 3, []string{"manager"}, 1)
	if !single.Verify(kr) {
		t.Fatal("single-manager certificate rejected")
	}
	tampered := single
	tampered.Decision = DecisionAbort
	if tampered.Verify(kr) {
		t.Fatal("tampered decision accepted")
	}

	signers := []string{"notary0", "notary1", "notary2"}
	committee := NewCommitteeDecisionCert(kr, "pay1", DecisionAbort, "manager", 4, signers, 3)
	if !committee.Verify(kr) {
		t.Fatal("committee certificate rejected")
	}
	// Below quorum it must not verify.
	short := NewCommitteeDecisionCert(kr, "pay1", DecisionAbort, "manager", 4, signers[:2], 3)
	if short.Verify(kr) {
		t.Fatal("certificate with too few signatures accepted")
	}
	// Duplicate signers must not inflate the count.
	dup := NewCommitteeDecisionCert(kr, "pay1", DecisionAbort, "manager", 4, []string{"notary0", "notary0", "notary0"}, 3)
	if dup.Verify(kr) {
		t.Fatal("duplicate signers satisfied the quorum")
	}
	if committee.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestReceipt(t *testing.T) {
	kr := testKeyring()
	r := NewReceipt(kr, "pay1", "bob", "funds-received", 9)
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
			for _, dec := range []Decision{DecisionCommit, DecisionAbort, ""} {
				dc := DecisionCert{PaymentID: id[0], Manager: id[1], Decision: dec, Sigs: make([]Signature, sigs)}
				want := fmt.Sprintf("%s-cert(%s by %s, %d sigs)", dc.Decision, dc.PaymentID, dc.Manager, len(dc.Sigs))
				if got := dc.Describe(); got != want {
					t.Errorf("DecisionCert.Describe() = %q, want %q", got, want)
				}
			}
		}
	}
}

func TestHashPreimage(t *testing.T) {
	pre := []byte("open sesame")
	lock := HashPreimage(pre)
	if !CheckPreimage(lock, pre) {
		t.Fatal("correct preimage rejected")
	}
	if CheckPreimage(lock, []byte("wrong")) {
		t.Fatal("wrong preimage accepted")
	}
	if CheckPreimage([]byte("short"), pre) {
		t.Fatal("malformed lock accepted")
	}
}

// Property: signatures verify exactly for the (signer, payload) pair that
// produced them.
func TestPropertySignatureBinding(t *testing.T) {
	kr := testKeyring()
	ids := kr.Participants()
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
