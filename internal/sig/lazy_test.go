package sig

import (
	"encoding/hex"
	"testing"

	"repro/internal/sim"
)

// held returns a copy of the entry the keyring holds under pid with its key,
// derived by the backend directly, nil if none: what a test compares with,
// read without the key cache and without counting a read, so that it moves
// neither the keyring nor the counters it checks.
func (kr *Keyring) held(pid int) *keyEntry {
	j := kr.entry(pid)
	if j < 0 {
		return nil
	}
	e := kr.keys[j]
	if e.key.pub == nil {
		e.key = kr.backend.GenerateKey(kr.seed, e.id)
	}
	return &e
}

// keyed lists the names whose keys kr has read.
func keyed(kr *Keyring) []string {
	var ids []string
	for _, e := range kr.keys {
		if e.key.pub != nil {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// TestHonestKeyringDerivesNoKey: a keyring that only signs and verifies its
// own terms, typed and raw, reads no key — none is derived, the key cache
// stays empty and no keygen counter moves — and still answers every
// verification.
func TestHonestKeyringDerivesNoKey(t *testing.T) {
	for _, backend := range BackendNames() {
		ResetKeyCache()
		before := GlobalStats()
		kr := NewKeyringWith(Options{Backend: backend}, "lazy-seed", []string{"c0", "c1", "e0"})
		for round := 0; round < 3; round++ {
			cert := &PaymentCert{PaymentID: "p", Issuer: "c1", Payer: "c0", IssuedAt: sim.Time(round)}
			cert.Sign(kr, 1)
			g := &Guarantee{PaymentID: "p", Escrow: "e0", Customer: "c0", D: 5, IssuedAt: 2}
			g.Sign(kr, 2)
			raw := kr.Sign("c0", []byte("m"))
			if !cert.Verify(kr, "c1") || !g.Verify(kr) || !kr.Verify("c0", []byte("m"), raw) {
				t.Fatalf("%s round %d: an honest signature did not verify", backend, round)
			}
			kr.Reset("lazy-seed", []string{"c0", "c1", "e0"})
		}
		if ids, n, st := keyed(kr), keyCacheLen(), statsDelta(before, GlobalStats()); ids != nil || n != 0 || st.KeygenHits+st.KeygenMisses+st.Rendered != 0 {
			t.Fatalf("%s: an honest keyring read keys %v, cached %d, counted %+v", backend, ids, n, st)
		}
	}
	ResetKeyCache()
}

// TestFirstReadDerivesSignersKey: a rendering (Bytes, String) or a
// verification that misses the record reads exactly the signer's key, once
// per generation, and it is the key TestKeyDerivationPinned pins.
func TestFirstReadDerivesSignersKey(t *testing.T) {
	pinned := map[string]string{
		BackendEd25519: "9798e4aa605e83028a9ae6c8532268c1998694855764434ed9769ca150503b5e",
		BackendHMAC:    "94b7a4019486c9ebc69490809d4f0cc1dea9a3bf1f40d8053679ce05135cb938",
	}
	reads := map[string]func(kr *Keyring, c *PaymentCert){
		"Bytes":  func(_ *Keyring, c *PaymentCert) { c.Sig.Bytes() },
		"String": func(_ *Keyring, c *PaymentCert) { _ = c.Sig.String() },
		"a miss": func(kr *Keyring, c *PaymentCert) {
			tampered := *c
			tampered.IssuedAt++
			if tampered.Verify(kr, "c0") {
				t.Fatal("a tampered certificate verified")
			}
		},
	}
	for _, backend := range BackendNames() {
		for name, read := range reads {
			ResetKeyCache()
			kr := NewKeyringWith(Options{Backend: backend}, "seed-42", []string{"c0", "c1", "e0"})
			c := &PaymentCert{PaymentID: "p", Issuer: "c0", Payer: "c1", IssuedAt: 9}
			c.Sign(kr, 0)
			read(kr, c)
			read(kr, c)
			_ = c.Sig.String()
			if ids, st := keyed(kr), kr.Stats(); len(ids) != 1 || ids[0] != "c0" || st.KeygenMisses != 1 || st.KeygenHits != 0 {
				t.Fatalf("%s, %s: read keys %v, counted %+v; want c0's, one miss", backend, name, ids, st)
			}
			if got := hex.EncodeToString(kr.keys[kr.byName["c0"]].key.pub); got != pinned[backend] {
				t.Fatalf("%s, %s: c0's key %s, pinned %s", backend, name, got, pinned[backend])
			}
		}
	}
	ResetKeyCache()
}

// TestForgeryAfterHonestRunFails: a keyring that has derived nothing after
// an honest run still refuses a forgery — literal bytes, a tampered
// artefact, another seed's signature — and then reads the claimed signer's
// key to do so.
func TestForgeryAfterHonestRunFails(t *testing.T) {
	for _, backend := range BackendNames() {
		ids := []string{"c0", "c1", "e0"}
		kr := NewKeyringWith(Options{Backend: backend}, "forge-seed", ids)
		c := &PaymentCert{PaymentID: "p", Issuer: "c1", Payer: "c0", IssuedAt: 4}
		c.Sign(kr, 1)
		if !c.Verify(kr, "c1") || keyed(kr) != nil {
			t.Fatalf("%s: the honest run did not verify on the record alone", backend)
		}
		other := NewKeyringWith(Options{Backend: backend}, "another-seed", ids)
		theirs := &PaymentCert{PaymentID: "p", Issuer: "c1", Payer: "c0", IssuedAt: 4}
		theirs.Sign(other, 1)
		for name, forged := range map[string]PaymentCert{
			"literal bytes":  {PaymentID: "p", Issuer: "c1", Payer: "c0", IssuedAt: 4, Sig: Raw(make([]byte, 64))},
			"tampered":       {PaymentID: "p", Issuer: "c1", Payer: "c0", IssuedAt: 5, Sig: c.Sig},
			"another seed's": *theirs,
		} {
			if forged.Verify(kr, "c1") {
				t.Fatalf("%s: a forgery (%s) verified after an honest run", backend, name)
			}
		}
		if ids := keyed(kr); len(ids) != 1 || ids[0] != "c1" {
			t.Fatalf("%s: refusing the forgeries read keys %v, want c1's", backend, ids)
		}
	}
}
