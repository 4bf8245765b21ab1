package sig

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The record may only answer what the backend would, and rendering a
// signature late may change no byte and no answer. These tests run programs
// of keyring operations through a keyring that answers from its terms and a
// reference that answers nothing (MemoCapacity -1: every verification
// rendered and paid to the backend), and require the same Verify answer at
// every step, and rendered bytes equal to what the backend signed when Sign
// was called.

var (
	progIDs   = []string{"a", "b", "c"}
	progSeeds = []string{"s0", "s1"}
)

// triple is one (signer, payload, signature) a program has seen. sigs holds
// the record keyring's handle and the reference's: the two terms of one Sign
// (own), or one Raw or foreign signature both verify. eager is what the
// backend signed at Sign, for an own triple.
type triple struct {
	signer  string
	payload []byte
	sigs    [2]Signature
	own     bool
	eager   []byte
}

func (x triple) String() string { return fmt.Sprintf("%s/%q/%x", x.signer, x.payload, x.eager) }

// art is a typed artefact a program signs: its content, and for a decision
// certificate the one notary that signs it (every other artefact names its
// signer in its second field).
type art struct {
	c      content
	notary string
}

func (a art) String() string {
	return fmt.Sprintf("%s%q%v", kindTags[a.c.kind], a.c.f, a.c.t[:kindTimes[a.c.kind]])
}

// signer is who signs a.
func (a art) signer() string {
	if a.c.kind == kindDecision {
		return a.notary
	}
	return a.c.f[1]
}

// The artefact types, built from a's content with sig as their signature.
func (a art) chi(sig Signature) PaymentCert {
	return PaymentCert{PaymentID: a.c.f[0], Issuer: a.c.f[1], Payer: a.c.f[2], IssuedAt: a.c.t[0], Sig: sig}
}

func (a art) guarantee(sig Signature) Guarantee {
	return Guarantee{PaymentID: a.c.f[0], Escrow: a.c.f[1], Customer: a.c.f[2], D: a.c.t[0], IssuedAt: a.c.t[1], Sig: sig}
}

func (a art) promise(sig Signature) Promise {
	return Promise{PaymentID: a.c.f[0], Escrow: a.c.f[1], Customer: a.c.f[2], A: a.c.t[0], Epsilon: a.c.t[1], IssuedAt: a.c.t[2], Sig: sig}
}

func (a art) decision(sig Signature) DecisionCert {
	return DecisionCert{PaymentID: a.c.f[0], Decision: decisionNamed(a.c.f[1]), Manager: a.c.f[2], IssuedAt: a.c.t[0],
		Signers: []string{a.notary}, Sigs: []Signature{sig}, Quorum: 1}
}

// decisionNamed is the decision whose String is s; a tampered name is no
// decision's, so its certificate carries the zero Decision.
func decisionNamed(s string) Decision {
	for _, d := range []Decision{DecisionCommit, DecisionAbort} {
		if d.String() == s {
			return d
		}
	}
	return 0
}

func (a art) receipt(sig Signature) Receipt {
	return Receipt{PaymentID: a.c.f[0], Issuer: a.c.f[1], Subject: a.c.f[2], IssuedAt: a.c.t[0], Sig: sig}
}

// sign signs a on kr through its type's Sign, by its signer's PID.
func (a art) sign(kr *Keyring) Signature {
	by := pid(kr, a.signer())
	switch a.c.kind {
	case kindChi:
		x := a.chi(Signature{})
		x.Sign(kr, by)
		return x.Sig
	case kindGuarantee:
		x := a.guarantee(Signature{})
		x.Sign(kr, by)
		return x.Sig
	case kindPromise:
		x := a.promise(Signature{})
		x.Sign(kr, by)
		return x.Sig
	case kindDecision:
		x := a.decision(Signature{})
		x.Sign(kr, []sim.PID{by})
		return x.Sigs[0]
	}
	x := a.receipt(Signature{})
	x.Sign(kr, by)
	return x.Sig
}

// verify verifies a, signed sig, on kr through its type's Verify.
func (a art) verify(kr *Keyring, sig Signature) bool {
	switch a.c.kind {
	case kindChi:
		x := a.chi(sig)
		return x.Verify(kr, x.Issuer)
	case kindGuarantee:
		x := a.guarantee(sig)
		return x.Verify(kr)
	case kindPromise:
		x := a.promise(sig)
		return x.Verify(kr)
	case kindDecision:
		x := a.decision(sig)
		return x.Verify(kr)
	}
	x := a.receipt(sig)
	return x.Verify(kr)
}

// contentOf is what a's type records as its content, which must be a's.
func (a art) contentOf() content {
	switch a.c.kind {
	case kindChi:
		x := a.chi(Signature{})
		return x.content()
	case kindGuarantee:
		x := a.guarantee(Signature{})
		return x.content()
	case kindPromise:
		x := a.promise(Signature{})
		return x.content()
	case kindDecision:
		x := a.decision(Signature{})
		return x.content()
	}
	x := a.receipt(Signature{})
	return x.content()
}

// newArt draws an artefact of every kind in turn from arg: payment IDs and
// third fields that move a byte across the field boundary ("ab" + "c" and
// "a" + "bc"), a signer among the program's participants, small times.
func newArt(arg byte) art {
	k := kindChi + kind(arg%5)
	a := art{c: content{kind: k}, notary: progIDs[int(arg/5)%len(progIDs)]}
	a.c.f = [3]string{[]string{"ab", "a"}[arg/3%2], progIDs[int(arg/7)%len(progIDs)], []string{"c", "bc"}[arg/11%2]}
	if k == kindDecision {
		a.c.f[1] = []string{DecisionCommit.String(), DecisionAbort.String()}[arg/7%2]
	}
	for j := range kindTimes[k] {
		a.c.t[j] = sim.Time(int(arg)%(3+j) - 1)
	}
	return a
}

// tamper returns a with one thing changed, as arg picks: a field's last byte
// moved to the front of the next field, a string field replaced, or a time
// moved by one.
func tamper(a art, arg byte) art {
	switch j := int(arg/3) % 3; arg % 3 {
	case 0:
		if j < 2 && a.c.f[j] != "" {
			last := len(a.c.f[j]) - 1
			a.c.f[j], a.c.f[j+1] = a.c.f[j][:last], a.c.f[j][last:]+a.c.f[j+1]
		} else {
			a.c.f[j] += "x"
		}
	case 1:
		a.c.f[j] = progIDs[(slices.Index(progIDs, a.c.f[j])+1+len(progIDs))%len(progIDs)]
	default:
		a.c.t[j%kindTimes[a.c.kind]]++
	}
	return a
}

// typedTriple is a typed artefact a program has signed: its record
// keyring's and the reference's signatures, and what the backend signed
// over its canonical encoding at Sign.
type typedTriple struct {
	a     art
	sigs  [2]Signature
	eager []byte
}

// eagerSign is what the parent's Sign returned: the backend's signature under
// id's current key, computed now.
func eagerSign(kr *Keyring, id string, payload []byte) []byte {
	return bytes.Clone(kr.backend.bind(kr.held(kr.index(id)).key).sign(payload))
}

// numOps is how many operations a program step chooses from.
const numOps = 17

// driveKeyrings runs program — two bytes a step, an operation and its
// argument — through a keyring with a record and the reference, both under
// backend, and returns how many of the record keyring's verifications it
// answered and how many it paid to the backend.
func driveKeyrings(t *testing.T, backend string, program []byte) (hits, misses uint64) {
	t.Helper()
	seed := progSeeds[0]
	opts := Options{Backend: backend}
	rec := NewKeyringWith(opts, seed, progIDs)
	ref := NewKeyringWith(Options{Backend: backend, MemoCapacity: -1}, seed, progIDs)
	all := [2]*Keyring{rec, ref}
	others := map[string]*Keyring{}
	var pool []triple       // the triples seen so far, the newest last
	var typed []typedTriple // the typed artefacts signed so far, the newest last
	var log []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s after\n  %s\n%s", backend, strings.Join(log, "\n  "), fmt.Sprintf(format, args...))
	}
	pick := func(arg byte) (triple, bool) {
		if len(pool) == 0 {
			return triple{}, false
		}
		return pool[int(arg)%len(pool)], true
	}
	// verify has each keyring verify its own handle; the answers must agree.
	verify := func(x triple) bool {
		before := rec.stats
		want := ref.Verify(x.signer, x.payload, x.sigs[1])
		if got := rec.Verify(x.signer, x.payload, x.sigs[0]); got != want {
			fail("Verify(%v) = %v, the backend %v", x, got, want)
		}
		hits += rec.stats.MemoHits - before.MemoHits
		misses += rec.stats.MemoMisses - before.MemoMisses
		return want
	}
	// rendered renders both handles of x, which must agree with each other
	// and with what the backend signed at Sign, and returns the bytes.
	rendered := func(x triple) []byte {
		got, want := x.sigs[0].Bytes(), x.sigs[1].Bytes()
		if !bytes.Equal(got, want) {
			fail("%v renders %x, the reference %x", x, got, want)
		}
		if x.own && want != nil && !bytes.Equal(want, x.eager) {
			fail("%v renders %x, the backend signed %x at Sign", x, want, x.eager)
		}
		return want
	}
	// verifyTyped has each keyring verify a with its own signature of it —
	// through a's type, and through the raw Verify with a's canonical
	// encoding — and the answers must agree.
	verifyTyped := func(a art, sigs [2]Signature) bool {
		before := rec.stats
		want := a.verify(ref, sigs[1])
		if got := a.verify(rec, sigs[0]); got != want {
			fail("%v.Verify = %v, the backend %v", a, got, want)
		}
		payload := a.c.render(nil)
		if got, ref := rec.Verify(a.signer(), payload, sigs[0]), ref.Verify(a.signer(), payload, sigs[1]); got != ref || ref != want {
			fail("Verify(%s, %v's encoding) = %v, the backend %v, the typed verification %v", a.signer(), a, got, ref, want)
		}
		hits += rec.stats.MemoHits - before.MemoHits
		misses += rec.stats.MemoMisses - before.MemoMisses
		return want
	}
	// renderedTyped renders both signatures of x, which must agree with
	// each other and with what the backend signed at Sign.
	renderedTyped := func(x typedTriple) []byte {
		got, want := x.sigs[0].Bytes(), x.sigs[1].Bytes()
		if !bytes.Equal(got, want) {
			fail("%v renders %x, the reference %x", x.a, got, want)
		}
		if want != nil && !bytes.Equal(want, x.eager) {
			fail("%v renders %x, the backend signed %x at Sign", x.a, want, x.eager)
		}
		return want
	}
	// reset resets both keyrings to parts under seed; every handle signed
	// before is stale then: it renders nil and verifies nowhere.
	reset := func(parts []string) {
		for _, kr := range all {
			kr.Reset(seed, parts)
		}
		for _, x := range typed {
			if b := renderedTyped(x); b != nil {
				fail("%v renders %x after a Reset, want a stale handle's nil", x.a, b)
			}
			if verifyTyped(x.a, x.sigs) {
				fail("%v verifies after a Reset", x.a)
			}
		}
		for _, x := range pool {
			if !x.own {
				continue
			}
			if b := rendered(x); b != nil {
				fail("%v renders %x after a Reset, want a stale handle's nil", x, b)
			}
			if verify(x) {
				fail("%v verifies after a Reset", x)
			}
		}
	}
	pickTyped := func(arg byte) (typedTriple, bool) {
		if len(typed) == 0 {
			return typedTriple{}, false
		}
		return typed[int(arg)%len(typed)], true
	}
	// raw enters and verifies a triple whose signature is b as literal bytes.
	raw := func(x triple, b []byte) {
		s := Raw(b)
		x.sigs, x.own, x.eager = [2]Signature{s, s}, false, nil
		pool = append(pool, x)
		verify(x)
	}
	for i := 0; i+1 < len(program) && i < 512; i += 2 {
		op, arg := program[i]%numOps, program[i+1]
		id, seedArg := progIDs[int(arg)%len(progIDs)], progSeeds[int(arg)%len(progSeeds)]
		payload := []byte{'m', '0' + arg%5}
		log = append(log, fmt.Sprintf("op %d arg %d", op, arg))
		switch op {
		case 0, 11: // sign; 11 then verifies a tampered copy of the bytes
			x := triple{signer: id, payload: payload, own: true}
			if ref.index(id) >= 0 {
				x.eager = eagerSign(ref, id, payload)
			}
			for j, kr := range all {
				x.sigs[j] = kr.Sign(id, payload)
			}
			if (x.sigs[0] == Signature{}) != (x.eager == nil) || (x.sigs[1] == Signature{}) != (x.eager == nil) {
				fail("Sign(%s) = %v and %v, holding a key: %v", id, x.sigs[0], x.sigs[1], x.eager != nil)
			}
			if x.eager == nil {
				continue
			}
			pool = append(pool, x)
			if op == 11 {
				b := slices.Clone(x.eager)
				b[int(arg)%len(b)] ^= 0x80
				raw(x, b)
			}
		case 1: // verify a triple
			if x, ok := pick(arg); ok {
				verify(x)
			}
		case 2: // a tampered payload
			if x, ok := pick(arg); ok {
				x.payload = slices.Clone(x.payload)
				x.payload[int(arg)%len(x.payload)] ^= 1
				verify(x)
			}
		case 3: // a tampered copy of the signature
			if x, ok := pick(arg); ok {
				if b := slices.Clone(rendered(x)); len(b) > 0 {
					b[int(arg)%len(b)] ^= 0x80
					raw(x, b)
				}
			}
		case 4: // a wrong signer
			if x, ok := pick(arg); ok {
				x.signer = progIDs[(slices.Index(progIDs, x.signer)+1+int(arg)%2)%len(progIDs)]
				verify(x)
			}
		case 5: // a truncated copy of the signature
			if x, ok := pick(arg); ok {
				if b := rendered(x); len(b) > 0 {
					raw(x, b[:int(arg)%len(b)])
				}
			}
		case 6: // another keyring's signature, under either seed
			other := others[seedArg]
			if other == nil {
				other = NewKeyringWith(opts, seedArg, progIDs)
				others[seedArg] = other
			}
			s := other.Sign(id, payload)
			x := triple{signer: id, payload: payload, sigs: [2]Signature{s, s}}
			pool = append(pool, x)
			verify(x)
		case 7: // Reset to the other seed over every participant, permuted:
			// each one's key changes, and so may its PID
			seed = progSeeds[(slices.Index(progSeeds, seed)+1)%len(progSeeds)]
			parts := slices.Clone(progIDs)
			for j, k := len(parts)-1, int(arg); j > 0; j, k = j-1, k/(j+1) {
				parts[j], parts[k%(j+1)] = parts[k%(j+1)], parts[j]
			}
			reset(parts)
		case 8, 9: // Reset to the same seed, or to the other
			if op == 9 {
				seed = progSeeds[(slices.Index(progSeeds, seed)+1)%len(progSeeds)]
			}
			var parts []string
			for j, p := range progIDs {
				if (arg%7+1)&(1<<j) != 0 {
					parts = append(parts, p)
				}
			}
			reset(parts)
		case 10: // render now, which must change no answer
			if x, ok := pick(arg); ok {
				before := verify(x)
				b := rendered(x)
				if verify(x) != before {
					fail("rendering %v changed its answer from %v", x, before)
				}
				if b != nil {
					raw(x, slices.Clone(b))
				}
			}
		case 12: // sign a typed artefact, and verify it
			a := newArt(arg)
			if got := a.contentOf(); got != a.c {
				fail("%v records content %v", a, got)
			}
			x := typedTriple{a: a}
			if ref.index(a.signer()) >= 0 {
				x.eager = eagerSign(ref, a.signer(), a.c.render(nil))
			}
			for j, kr := range all {
				x.sigs[j] = a.sign(kr)
			}
			if (x.sigs[0] == Signature{}) != (x.eager == nil) || (x.sigs[1] == Signature{}) != (x.eager == nil) {
				fail("%v signed %v and %v, holding a key: %v", a, x.sigs[0], x.sigs[1], x.eager != nil)
			}
			if x.eager == nil {
				continue
			}
			typed = append(typed, x)
			verifyTyped(a, x.sigs)
		case 13: // verify a typed artefact
			if x, ok := pickTyped(arg); ok {
				verifyTyped(x.a, x.sigs)
			}
		case 14: // a tampered typed artefact
			if x, ok := pickTyped(arg); ok {
				verifyTyped(tamper(x.a, arg), x.sigs)
			}
		case 15: // render a typed artefact's signature now, which must change
			// no answer; its bytes as Raw verify as the term does
			if x, ok := pickTyped(arg); ok {
				before := verifyTyped(x.a, x.sigs)
				b := renderedTyped(x)
				if verifyTyped(x.a, x.sigs) != before {
					fail("rendering %v changed its answer from %v", x.a, before)
				}
				if b != nil {
					s := Raw(slices.Clone(b))
					verifyTyped(x.a, [2]Signature{s, s})
				}
			}
		case 16: // a typed artefact's signature under another artefact
			if x, ok := pickTyped(arg); ok {
				verifyTyped(newArt(arg), x.sigs)
			}
		}
		if len(pool) > 32 {
			pool = pool[len(pool)-32:]
		}
		if len(typed) > 32 {
			typed = typed[len(typed)-32:]
		}
	}
	return hits, misses
}

// TestIssuanceRecordMatchesBackend drives random programs, and one that runs
// every operation in turn, through both backends: the record must answer
// every verification as the backend does, and must answer some of them.
func TestIssuanceRecordMatchesBackend(t *testing.T) {
	every := make([]byte, 0, 4*numOps)
	for op := byte(0); op < 2*numOps; op++ {
		every = append(every, op%numOps, op)
	}
	for _, backend := range BackendNames() {
		runs := 300
		if backend == BackendEd25519 {
			runs = 40
		}
		if testing.Short() {
			runs /= 4
		}
		rng := rand.New(rand.NewPCG(28, uint64(len(backend))))
		program := make([]byte, 2*60)
		hits, misses := driveKeyrings(t, backend, every)
		for run := 0; run < runs; run++ {
			for i := range program {
				program[i] = byte(rng.Uint32())
			}
			h, m := driveKeyrings(t, backend, program)
			hits, misses = hits+h, misses+m
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("%s: %d record hits and %d backend verifications: the programs exercised one path only", backend, hits, misses)
		}
	}
}

// FuzzKeyringOps is TestIssuanceRecordMatchesBackend under the native fuzzing
// engine: any program, on the backend its first byte picks, the same answers
// step for step.
func FuzzKeyringOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		1,    // hmac
		0, 0, // sign a
		1, 0, // verify it
		2, 1, // a tampered payload
		3, 2, // a tampered copy of the signature
		4, 0, // a wrong signer
		5, 6, // 6 bytes of it
		6, 1, // b signs on another keyring, under s1
		7, 3, // Reset to s1 over (c, b, a): every key changes
		1, 0, // a's triple from before the Reset, stale
		10, 0, // render it now: nil
		3, 1, // a tampered copy of a's s0 signature, under a's s1 key
		6, 1, // b signs on the other keyring again, under the key b now holds
		0, 1, // sign b
		8, 4, // Reset to {a, c} under s1: everything signed is stale
		1, 3, // the other keyring's first b signature, b dropped
		9, 5, // Reset to s0, {b, c}
		1, 3, // it again, under b's s0 key
		11, 2, // c signs, and a tampered copy
		10, 1, // render one now
	})
	f.Add([]byte{
		0,     // ed25519
		12, 0, // a signs chi "ab"/"a"/"c"
		12, 37, // c signs a promise
		12, 11, // b signs a guarantee
		12, 3, // a signs a decision certificate
		12, 4, // a signs a receipt
		13, 1, // verify the promise
		14, 0, // the chi as "a"/"ba"/"c": a byte moved across the field boundary
		14, 22, // the guarantee under another escrow
		14, 2, // the guarantee with its window moved
		14, 7, // the guarantee to another customer
		14, 3, // the decision certificate with a byte moved into its manager
		15, 3, // render the decision certificate late, and verify it as Raw
		16, 2, // the guarantee's signature under another artefact
		7, 0, // Reset to s1 over (b, c, a): every key changes
		13, 0, // the chi signed under a's s0 key, stale
		8, 0, // Reset to {a} under s1
		12, 5, // a signs chi again
		13, 5, // and it verifies
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		driveKeyrings(t, BackendNames()[program[0]%2], program[1:])
	})
}
