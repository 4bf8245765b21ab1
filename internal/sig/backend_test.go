package sig

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// Every backend must satisfy the same signing contract the protocols rely
// on: deterministic keys from (seed, id), round-tripping sign/verify, and
// rejection of wrong signer, tampered payload and empty signature.
func TestBackendContract(t *testing.T) {
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			ResetKeyCache() // the keyrings derive their keys
			opts := Options{Backend: name}
			kr := NewKeyringWith(opts, "seed", []string{"a", "b"})
			if kr.backend.Name() != name {
				t.Fatalf("backend %q, want %q", kr.backend.Name(), name)
			}
			msg := []byte("payload")
			s := kr.Sign("a", msg)
			if len(s.Bytes()) == 0 {
				t.Fatal("empty signature")
			}
			if !kr.Verify("a", msg, s) {
				t.Fatal("valid signature rejected")
			}
			if kr.Verify("b", msg, s) {
				t.Fatal("signature verified against the wrong signer")
			}
			if kr.Verify("a", []byte("tampered"), s) {
				t.Fatal("signature verified over tampered payload")
			}
			if kr.Verify("a", msg, Signature{}) || kr.Verify("a", msg, Raw(nil)) {
				t.Fatal("empty signature verified")
			}
			// Determinism across keyrings.
			kr2 := NewKeyringWith(opts, "seed", []string{"a"})
			if !bytes.Equal(kr2.Sign("a", msg).Bytes(), s.Bytes()) {
				t.Fatal("same (backend, seed, id) produced different signatures")
			}
			kr3 := NewKeyringWith(opts, "other", []string{"a"})
			if bytes.Equal(kr3.Sign("a", msg).Bytes(), s.Bytes()) {
				t.Fatal("different seeds produced identical signatures")
			}
		})
	}
}

// TestKeyDerivationPinned pins the public keys a few (backend, seed, id)
// triples derive: every signature, golden and recorded trace rests on them,
// so a change to either derivation must fail here first.
func TestKeyDerivationPinned(t *testing.T) {
	for _, c := range []struct{ backend, seed, id, pub string }{
		{BackendEd25519, "seed", "alice", "5491c49fd8bf8ce56ef84faeeb4b5f62a968db67ad178dfb444498d51c005235"},
		{BackendEd25519, "seed-42", "c0", "9798e4aa605e83028a9ae6c8532268c1998694855764434ed9769ca150503b5e"},
		{BackendEd25519, "", "e0", "7af9fd518fd82684f0586d92ecdc3e9e846004858bbaa76a6430af8f1b4f7230"},
		{BackendEd25519, "test", "notary3", "185f12730a7051e6a9969d2fb37f9abb840999f807c48811d837b4cd9f41dca1"},
		{BackendHMAC, "seed", "alice", "ed0e6345a32f33242e0c3f2305260173735d62ab9c956de09528887f16343e7b"},
		{BackendHMAC, "seed-42", "c0", "94b7a4019486c9ebc69490809d4f0cc1dea9a3bf1f40d8053679ce05135cb938"},
		{BackendHMAC, "", "e0", "64916378242a0c48b9b81ded9d9fe259c6706a8490b97dde849274c9a9d91edd"},
		{BackendHMAC, "test", "notary3", "7cc59993b1156af412076605f24d647252785daf6efb86c4604fb4ac6e8b1b7b"},
	} {
		b, _ := BackendByName(c.backend)
		if got := hex.EncodeToString(b.GenerateKey(c.seed, c.id).pub); got != c.pub {
			t.Errorf("%s key of (%q, %q) = %s, want %s", c.backend, c.seed, c.id, got, c.pub)
		}
	}
}

func TestBackendByName(t *testing.T) {
	if b, ok := BackendByName(""); !ok || b.Name() != BackendEd25519 {
		t.Fatal("empty name should resolve to the ed25519 default")
	}
	if _, ok := BackendByName("rot13"); ok {
		t.Fatal("unknown backend resolved")
	}
	names := BackendNames()
	if len(names) != 2 || names[0] != BackendEd25519 || names[1] != BackendHMAC {
		t.Fatalf("BackendNames() = %v", names)
	}
}

// Signatures from one backend must not verify under another (a keyring is a
// single-backend object; mixing would mask configuration bugs).
func TestBackendsDoNotCrossVerify(t *testing.T) {
	msg := []byte("payload")
	ed := NewKeyringWith(Options{Backend: BackendEd25519}, "seed", []string{"a"})
	mac := NewKeyringWith(Options{Backend: BackendHMAC}, "seed", []string{"a"})
	if mac.Verify("a", msg, ed.Sign("a", msg)) {
		t.Fatal("ed25519 signature verified under hmac")
	}
	if ed.Verify("a", msg, mac.Sign("a", msg)) {
		t.Fatal("hmac MAC verified under ed25519")
	}
}

// keyCacheLen is the number of keys resident in the process-wide cache.
func keyCacheLen() int {
	keyCache.RLock()
	defer keyCache.RUnlock()
	return len(keyCache.m)
}

// directSign is what id's key under (backend, seed) signs over msg, derived
// without the key cache.
func directSign(backend, seed, id string, msg []byte) []byte {
	b, _ := BackendByName(backend)
	return bytes.Clone(b.bind(b.GenerateKey(seed, id)).sign(msg))
}

// The process-wide key cache must serve the same keys as direct generation,
// and hit after the first derivation.
func TestKeyCacheEquivalenceAndHits(t *testing.T) {
	ResetKeyCache()
	msg := []byte("payload")
	for _, name := range BackendNames() {
		direct := directSign(name, "cache-seed", "x", msg)
		cached := NewKeyringWith(Options{Backend: name}, "cache-seed", []string{"x", "y"})
		if !bytes.Equal(cached.Sign("x", msg).Bytes(), direct) {
			t.Fatalf("%s: cached and direct keys differ", name)
		}
		cached.Sign("y", msg).Bytes() // reads y's key too
		if st := cached.Stats(); st.KeygenMisses != 2 || st.KeygenHits != 0 {
			t.Fatalf("%s: first keyring stats = %+v, want 2 misses", name, st)
		}
		again := NewKeyringWith(Options{Backend: name}, "cache-seed", []string{"x", "y"})
		again.Sign("y", msg).Bytes()
		if !bytes.Equal(again.Sign("x", msg).Bytes(), direct) {
			t.Fatalf("%s: cache served a wrong key", name)
		}
		if st := again.Stats(); st.KeygenHits != 2 || st.KeygenMisses != 0 {
			t.Fatalf("%s: second keyring stats = %+v, want 2 hits", name, st)
		}
	}
	if n := keyCacheLen(); n != 4 {
		t.Fatalf("%d cached keys, want 4 (2 ids x 2 backends)", n)
	}
	ResetKeyCache()
	if keyCacheLen() != 0 {
		t.Fatal("ResetKeyCache left entries behind")
	}
}

// Key-cache concurrency: any goroutine interleaving must produce the same
// keys (run under -race; the CI race job includes this package).
func TestKeyCacheConcurrency(t *testing.T) {
	ResetKeyCache()
	msg := []byte("concurrent payload")
	for _, name := range BackendNames() {
		want := directSign(name, "race-seed", "p1", msg)
		const goroutines = 16
		got := make([][]byte, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				kr := NewKeyringWith(Options{Backend: name}, "race-seed", []string{"p0", "p1", "p2"})
				got[g] = kr.Sign("p1", msg).Bytes()
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !bytes.Equal(got[g], want) {
				t.Fatalf("%s: goroutine %d derived a different key", name, g)
			}
		}
	}
}

// The key cache must stay bounded: overflowing clears it rather than growing
// without limit (correctness never depends on residency).
func TestKeyCacheBounded(t *testing.T) {
	ResetKeyCache()
	defer ResetKeyCache()
	k := cacheFiller(t, keyCacheLimit+10)
	if k > keyCacheLimit {
		t.Fatalf("key cache grew to %d entries past the %d limit", k, keyCacheLimit)
	}
}

// cacheFiller inserts n distinct hmac keys and returns the peak length seen.
func cacheFiller(t *testing.T, n int) int {
	t.Helper()
	b, _ := BackendByName(BackendHMAC)
	peak := 0
	for i := 0; i < n; i++ {
		cachedKey(b, "bounded-seed", strconv.Itoa(i))
		if l := keyCacheLen(); l > peak {
			peak = l
		}
	}
	return peak
}

// The issuance record: re-verifying what the keyring signed costs no backend
// operation, however often; a tampered payload, and a signature another
// keyring made, still reach the backend — the latter to a true answer when
// that keyring holds the same key. A miss renders a signature once.
func TestVerifyMemoization(t *testing.T) {
	opts := Options{Backend: BackendEd25519}
	kr := NewKeyringWith(opts, "memo-seed", []string{"a"})
	msg := []byte("artefact")
	s := kr.Sign("a", msg)
	for i := 0; i < 3; i++ {
		if !kr.Verify("a", msg, s) {
			t.Fatal("valid signature rejected")
		}
	}
	if st := kr.Stats(); st.MemoMisses != 0 || st.MemoHits != 3 || st.Rendered != 0 {
		t.Fatalf("stats after 3 identical verifies = %+v, want 3 hits, no miss and nothing rendered", st)
	}
	for i := 0; i < 2; i++ {
		if kr.Verify("a", []byte("tampered"), s) {
			t.Fatal("tampered payload verified")
		}
	}
	if st := kr.Stats(); st.MemoMisses != 2 || st.MemoHits != 3 || st.Rendered != 1 {
		t.Fatalf("stats after tampered verifies = %+v, want 2 misses and one rendering", st)
	}
	elsewhere := []byte("signed elsewhere")
	other := NewKeyringWith(opts, "memo-seed", []string{"a"})
	if !kr.Verify("a", elsewhere, other.Sign("a", elsewhere)) {
		t.Fatal("a valid signature from another keyring was rejected")
	}
	if st := kr.Stats(); st.MemoMisses != 3 || st.MemoHits != 3 {
		t.Fatalf("stats after a foreign signature = %+v, want it to reach the backend", st)
	}
	if st := other.Stats(); st.Rendered != 1 {
		t.Fatalf("the signing keyring's stats = %+v, want its signature rendered there", st)
	}
	if rate := kr.Stats().VerifyMissRate(); rate != 0.5 {
		t.Fatalf("VerifyMissRate() = %v, want 0.5", rate)
	}
}

// TestMemoDefaultPerBackend pins who keeps an issuance record: every keyring
// by default and under a positive capacity, whatever the backend, and none
// under a negative one. Without a record every verification is a miss that
// reaches the backend, and still a correct one.
func TestMemoDefaultPerBackend(t *testing.T) {
	for _, name := range BackendNames() {
		for _, capacity := range []int{0, 16, -1} {
			ResetKeyCache() // the keyring derives its key
			kr := NewKeyringWith(Options{Backend: name, MemoCapacity: capacity}, "memo-seed", []string{"a"})
			msg := []byte("artefact")
			s := kr.Sign("a", msg)
			for i := 0; i < 2; i++ {
				if !kr.Verify("a", msg, s) || kr.Verify("a", []byte("tampered"), s) {
					t.Fatalf("%s capacity %d: wrong verdict on round %d", name, capacity, i)
				}
			}
			want := Stats{KeygenMisses: 1, MemoMisses: 2, MemoHits: 2, Rendered: 1}
			if capacity < 0 {
				want = Stats{KeygenMisses: 1, MemoMisses: 4, Rendered: 1}
			}
			if st := kr.Stats(); st != want {
				t.Fatalf("%s capacity %d: stats %+v, want %+v", name, capacity, st, want)
			}
		}
	}
}

// TestVerifyMemoDisabledAndEviction: without a record every verification
// reaches the backend; with one, nothing evicts a term but a Reset — a
// keyring nobody resets answers every signature it ever made, however small
// its MemoCapacity, across chunks of its arenas, and also after holding a key
// again, which the keyring's one seed derives unchanged.
func TestVerifyMemoDisabledAndEviction(t *testing.T) {
	off := NewKeyringWith(Options{Backend: BackendEd25519, MemoCapacity: -1}, "memo-seed", []string{"a"})
	msg := []byte("artefact")
	s := off.Sign("a", msg)
	off.Verify("a", msg, s)
	off.Verify("a", msg, s)
	if st := off.Stats(); st.MemoHits != 0 || st.MemoMisses != 2 {
		t.Fatalf("disabled record stats = %+v", st)
	}

	kr := NewKeyringWith(Options{Backend: BackendHMAC, MemoCapacity: 2}, "memo-seed", []string{"a", "b"})
	n := 3*termChunk + 1
	sigs := make([]Signature, n)
	for i := range sigs {
		sigs[i] = kr.Sign("a", []byte(strconv.Itoa(i)))
	}
	for i, s := range sigs {
		if !kr.Verify("a", []byte(strconv.Itoa(i)), s) {
			t.Fatalf("signature %d of %d rejected", i, n)
		}
	}
	if st := kr.Stats(); st.MemoHits != uint64(n) || st.MemoMisses != 0 {
		t.Fatalf("stats %+v, want %d hits and no miss", st, n)
	}
	kr.Hold(0, "a")
	if !kr.Verify("a", []byte("0"), sigs[0]) {
		t.Fatal("a signature rejected after its key was held again")
	}
	if st := kr.Stats(); st.MemoHits != uint64(n)+1 || st.MemoMisses != 0 {
		t.Fatalf("stats %+v after holding a key again, want the verification answered from the record", st)
	}
}

// referencePayload is the canonical encoding spelled out field by field:
// every field length-prefixed with eight big-endian bytes, integers and
// times as eight big-endian bytes. render must produce exactly these bytes,
// or every signature would change.
func referencePayload(fields ...any) []byte {
	var out []byte
	put := func(b []byte) {
		out = binary.BigEndian.AppendUint64(out, uint64(len(b)))
		out = append(out, b...)
	}
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			put([]byte(v))
		case sim.Time:
			put(binary.BigEndian.AppendUint64(nil, uint64(v)))
		}
	}
	return out
}

// render encodes every typed artefact in exactly the canonical form, keeps
// field boundaries apart, and builds in a grown scratch without allocating.
func TestCanonicalTypedCases(t *testing.T) {
	var buf []byte
	render := func(c content) []byte { buf = c.render(buf[:0]); return buf }
	cases := []struct {
		name  string
		build func() []byte // the result aliases buf until the next build
		want  []byte
	}{
		{"chi", func() []byte {
			return render((&PaymentCert{PaymentID: "p", Issuer: "bob", Payer: "alice", IssuedAt: 9}).content())
		}, referencePayload("chi", "p", "bob", "alice", sim.Time(9))},
		{"guarantee", func() []byte {
			return render((&Guarantee{PaymentID: "p", Escrow: "e0", Customer: "c0", D: 7, IssuedAt: -3}).content())
		}, referencePayload("guarantee", "p", "e0", "c0", sim.Time(7), sim.Time(-3))},
		{"promise", func() []byte {
			return render((&Promise{PaymentID: "p", Escrow: "e0", Customer: "c1", A: 5, Epsilon: 2, IssuedAt: 11}).content())
		}, referencePayload("promise", "p", "e0", "c1", sim.Time(5), sim.Time(2), sim.Time(11))},
		{"decision", func() []byte {
			return render((&DecisionCert{PaymentID: "p", Decision: DecisionAbort, Manager: "manager", IssuedAt: 4}).content())
		}, referencePayload("decision", "p", "abort", "manager", sim.Time(4))},
		{"receipt", func() []byte {
			return render((&Receipt{PaymentID: "p", Issuer: "bob", Subject: "funds-received", IssuedAt: 1}).content())
		}, referencePayload("receipt", "p", "bob", "funds-received", sim.Time(1))},
	}
	for _, c := range cases {
		if got := c.build(); !bytes.Equal(got, c.want) {
			t.Fatalf("%s payload = %x, want %x", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(20, func() { c.build() }); n != 0 {
			t.Fatalf("%s payload allocates %v times once the scratch has grown, want 0", c.name, n)
		}
	}
	// Distinct field splits must encode distinctly (length prefixes).
	ab := append([]byte(nil), render((&Receipt{PaymentID: "ab", Issuer: "c"}).content())...)
	if bytes.Equal(ab, render((&Receipt{PaymentID: "a", Issuer: "bc"}).content())) {
		t.Fatal("field boundaries collide")
	}
}

// GlobalStats aggregates across keyrings — a record hit on one, a miss there
// for the signature the other made — and ResetGlobalStats zeroes it.
func TestGlobalStats(t *testing.T) {
	ResetGlobalStats()
	ResetKeyCache()
	kr := NewKeyringWith(Options{Backend: BackendEd25519}, "global-seed", []string{"a"})
	other := NewKeyringWith(Options{Backend: BackendEd25519}, "global-seed", []string{"a"})
	mine, theirs := []byte("m"), []byte("n")
	kr.Verify("a", mine, kr.Sign("a", mine))
	kr.Verify("a", theirs, other.Sign("a", theirs))
	st := GlobalStats()
	if want := (Stats{KeygenHits: 1, KeygenMisses: 1, MemoHits: 1, MemoMisses: 1, Rendered: 1}); st != want {
		t.Fatalf("GlobalStats() = %+v, want %+v", st, want)
	}
	ResetGlobalStats()
	if st := GlobalStats(); st != (Stats{}) {
		t.Fatalf("ResetGlobalStats left %+v", st)
	}
}

// A run that never verifies anything is not a cache regression.
func TestVerifyMissRateNoVerifications(t *testing.T) {
	if rate := (Stats{}).VerifyMissRate(); rate != 0 {
		t.Fatalf("VerifyMissRate() with no verifications = %v, want 0", rate)
	}
	if rate := (Stats{MemoMisses: 3}).VerifyMissRate(); rate != 1 {
		t.Fatalf("VerifyMissRate() with only misses = %v, want 1", rate)
	}
}

// TestHMACSignVerifyAllocs is the allocation gate on Sign and Verify, at
// every backend: once a key's signer is bound, a verification answered from
// the record allocates nothing, nor does an hmac one paid to the backend (a
// per-operation hmac.New would show here as a dozen allocations); and on a
// keyring that is Reset between payments — a world's — neither does a
// signature: Sign runs no backend, and a payment's worth of terms and
// payloads goes into the arena chunks the Reset rewound.
func TestHMACSignVerifyAllocs(t *testing.T) {
	ids := []string{"a"}
	payload := []byte(strings.Repeat("payload.", 8)) // 64 bytes: a term chunk's payloads fill a byte chunk
	for _, name := range BackendNames() {
		kr := NewKeyringWith(Options{Backend: name}, "alloc-seed", ids)
		s := kr.Sign("a", payload)
		foreign := NewKeyringWith(Options{Backend: name}, "alloc-seed", ids).Sign("a", payload[1:])
		if !kr.Verify("a", payload, s) || !kr.Verify("a", payload[1:], foreign) {
			t.Fatalf("%s: signature does not verify", name)
		}
		if n := testing.AllocsPerRun(200, func() { kr.Verify("a", payload, s) }); n != 0 {
			t.Errorf("%s Verify from the record allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { kr.Verify("a", payload[1:], foreign) }); n != 0 && name == BackendHMAC {
			t.Errorf("hmac Verify by the backend allocates %v times, want 0", n)
		}
		payment := func() {
			kr.Reset("alloc-seed", ids)
			for i := 0; i < 17; i++ { // an n=8 timelock chain signs 17 artefacts
				kr.Sign("a", payload)
			}
		}
		if n := testing.AllocsPerRun(200, payment); n != 0 {
			t.Errorf("%s Sign on a warmed keyring allocates %v times per payment, want 0", name, n)
		}
		// A keyring nobody resets starts a term chunk and a byte chunk every
		// termChunk signatures.
		kr.Reset("alloc-seed", ids)
		if n := testing.AllocsPerRun(10, func() {
			for i := 0; i < termChunk; i++ {
				kr.Sign("a", payload)
			}
		}); n != 2 {
			t.Errorf("%s: a chunk's worth of signatures allocates %v times, want 2", name, n)
		}
	}
}

// TestRenderedMatchesEager: for each backend, over a population of signers
// and payloads and across two keyrings, what Bytes renders is what the
// backend signed when Sign was called — whether the signature is read at
// once, after the rest of the population was signed, or after its keyring's
// arenas moved on to later chunks.
func TestRenderedMatchesEager(t *testing.T) {
	ids := []string{"alice", "bob", "escrow0", "notary3"}
	for _, name := range BackendNames() {
		krs := []*Keyring{
			NewKeyringWith(Options{Backend: name}, "eager-a", ids),
			NewKeyringWith(Options{Backend: name}, "eager-b", ids),
		}
		type signed struct {
			s     Signature
			eager []byte
		}
		var pop []signed
		for i := 0; i < 3*termChunk; i++ {
			kr, id := krs[i%2], ids[i%len(ids)]
			payload := []byte(fmt.Sprintf("artefact %d: %s", i, strings.Repeat("x", i%97)))
			eager := bytes.Clone(kr.backend.bind(kr.held(kr.index(id)).key).sign(payload))
			s := kr.Sign(id, payload)
			if i%5 == 0 && !bytes.Equal(s.Bytes(), eager) {
				t.Fatalf("%s: signature %d read at once renders %x, the backend signed %x", name, i, s.Bytes(), eager)
			}
			pop = append(pop, signed{s, eager})
		}
		for i, x := range pop {
			if !bytes.Equal(x.s.Bytes(), x.eager) {
				t.Fatalf("%s: signature %d renders %x, the backend signed %x at Sign", name, i, x.s.Bytes(), x.eager)
			}
		}
		if got, want := krs[0].Stats().Rendered+krs[1].Stats().Rendered, uint64(len(pop)); got != want {
			t.Fatalf("%s: %d renderings for %d signatures read, want one each", name, got, want)
		}
	}
}

// TestSignatureArenaRollover: signatures handed out before the keyring's
// arenas move on to their next chunks — and before the ones after that —
// keep their terms and render the right bytes; a Reset makes them all stale
// and hands the current chunks out again, and what is signed afterwards is
// right too.
func TestSignatureArenaRollover(t *testing.T) {
	ids := []string{"a", "b"}
	opts := Options{Backend: BackendHMAC}
	kr := NewKeyringWith(opts, "arena-seed", ids)
	const n = 3*termChunk + 7 // into the fourth term chunk, and past several byte chunks
	payloads := make([][]byte, n)
	sigs := make([]Signature, n)
	for i := range sigs {
		payloads[i] = []byte(fmt.Sprintf("artefact #%d %s", i, strings.Repeat("-", 80)))
		sigs[i] = kr.Sign(ids[i%2], payloads[i])
	}
	ref := NewKeyringWith(opts, "arena-seed", ids)
	check := func(when string) {
		t.Helper()
		for i, s := range sigs {
			if !kr.Verify(ids[i%2], payloads[i], s) {
				t.Fatalf("%s: signature %d no longer verifies", when, i)
			}
			ref.Reset("arena-seed", ids) // the reference never leaves its first chunks
			if want := ref.Sign(ids[i%2], payloads[i]).Bytes(); !bytes.Equal(s.Bytes(), want) {
				t.Fatalf("%s: signature %d renders differently", when, i)
			}
		}
	}
	check("after the term arena rolled over three times")

	// A Reset makes them all stale and hands the current chunks out again.
	old := slices.Clone(sigs)
	rewound := sigs[n-7].t // the first term of the fourth chunk
	kr.Reset("arena-seed", ids)
	for i, s := range old {
		if s.Bytes() != nil || kr.Verify(ids[i%2], payloads[i], s) {
			t.Fatalf("signature %d renders or verifies after a Reset", i)
		}
	}
	for i := range sigs {
		sigs[i] = kr.Sign(ids[i%2], payloads[i])
	}
	if sigs[0].t != rewound {
		t.Fatal("Reset did not hand the current term chunk out again")
	}
	check("after a Reset and everything signed again")
}

// heldIDs lists the IDs whose keys kr holds, in PID order.
func heldIDs(kr *Keyring) string {
	var ids []string
	for pid := range kr.pids {
		if e := kr.held(pid); e != nil {
			ids = append(ids, e.id)
		}
	}
	return strings.Join(ids, ",")
}

// TestResetKeepsDroppedSigners: a participant that drops out of a shorter
// chain keeps its bound signer for the next longer one — and only for a
// keyring of the same seed in the same key-cache epoch. While dropped it is
// as absent as on a new keyring.
func TestResetKeepsDroppedSigners(t *testing.T) {
	long, short := []string{"c0", "c1", "c2", "e0", "e1"}, []string{"c0", "c1", "e0"}
	msg := []byte("m")
	for _, backend := range BackendNames() {
		ResetKeyCache()
		opts := Options{Backend: backend}
		kr := NewKeyringWith(opts, "seed-a", long)
		sigC2 := bytes.Clone(kr.Sign("c2", msg).Bytes())
		bound := func() bool { return kr.keys[kr.byName["c2"]].s != nil }
		signers := func() int {
			n := 0
			for _, e := range kr.keys {
				if e.s != nil {
					n++
				}
			}
			return n
		}
		if !bound() {
			t.Fatalf("%s: signing did not bind c2's signer", backend)
		}

		kr.Reset("seed-a", short)
		if !bound() {
			t.Fatalf("%s: Reset to a shorter chain dropped c2's signer", backend)
		}
		if kr.index("c2") >= 0 || kr.Sign("c2", msg) != (Signature{}) || kr.Verify("c2", msg, Raw(sigC2)) {
			t.Fatalf("%s: a dropped participant still signs or verifies", backend)
		}
		if got := heldIDs(kr); got != "c0,c1,e0" {
			t.Fatalf("%s: participants %s after Reset to the shorter chain", backend, got)
		}

		kr.Reset("seed-a", long)
		if !bound() {
			t.Fatalf("%s: the longer chain did not find c2's signer again", backend)
		}
		if !bytes.Equal(kr.Sign("c2", msg).Bytes(), sigC2) {
			t.Fatalf("%s: the kept signer signs differently", backend)
		}

		// Another seed: nothing bound under seed-a may answer.
		kr.Reset("seed-a", short)
		kr.Reset("seed-b", long)
		if n := signers(); n != 0 {
			t.Fatalf("%s: %d signers survived a Reset to another seed", backend, n)
		}
		want := NewKeyringWith(opts, "seed-b", long).Sign("c2", msg).Bytes()
		if got := kr.Sign("c2", msg).Bytes(); !bytes.Equal(got, want) || bytes.Equal(got, sigC2) {
			t.Fatalf("%s: c2 signs under the wrong seed after Reset(seed-b)", backend)
		}

		// A key-cache flush: a new keyring would derive again, so must this.
		kr.Reset("seed-b", long)
		kr.Sign("c2", msg)
		kr.Reset("seed-b", short)
		ResetKeyCache()
		kr.Reset("seed-b", long)
		if n := signers(); n != 0 {
			t.Fatalf("%s: %d signers survived ResetKeyCache", backend, n)
		}
		for _, id := range long {
			kr.Sign(id, msg).Bytes() // reads every key
		}
		if st := kr.Stats(); st.KeygenMisses != uint64(len(long)) || st.KeygenHits != 0 {
			t.Fatalf("%s: after ResetKeyCache the keyring counts %+v, want %d misses", backend, st, len(long))
		}

		// A late Hold of a dropped participant after a flush: its entry kept
		// its key, but a new keyring reading it would miss, and so must this
		// one.
		kr.Reset("seed-b", short)
		ResetKeyCache()
		before := kr.Stats()
		kr.Hold(sim.PID(len(short)), "c2")
		kr.Sign("c2", msg).Bytes()
		if st := kr.Stats(); st.KeygenMisses != before.KeygenMisses+1 || st.KeygenHits != before.KeygenHits {
			t.Fatalf("%s: a Hold after ResetKeyCache counts %+v, before it %+v: want one miss", backend, st, before)
		}
	}
	ResetKeyCache()
}

// TestKeyringResetEquivalence resets one keyring through changing
// participant sets, seeds and a key-cache flush, and expects after every
// Reset what a new keyring shows: the same signatures, exactly the
// participants' keys, no term answering from before, and the same Stats and
// process-wide counter deltas.
func TestKeyringResetEquivalence(t *testing.T) {
	for _, backend := range []string{BackendHMAC, BackendEd25519} {
		ResetKeyCache()
		opts := Options{Backend: backend}
		reused := NewKeyringWith(opts, "seed-a", []string{"c0", "c1", "e0"})
		steps := []struct {
			seed  string
			parts []string
			flush bool // empty the key cache first
			extra string
		}{
			{seed: "seed-a", parts: []string{"c0", "c1", "e0"}},
			{seed: "seed-a", parts: []string{"c0", "c1", "e0"}, extra: "manager"},
			{seed: "seed-a", parts: []string{"c0", "c1", "c2", "e0", "e1"}},
			{seed: "seed-a", parts: []string{"c0", "c1", "e0"}, extra: "manager"},
			// c2 and e1 dropped out and come back: their entries, and the
			// manager's, are held again without the key cache.
			{seed: "seed-a", parts: []string{"c0", "c1", "c2", "e0", "e1"}, extra: "manager"},
			{seed: "seed-a", parts: []string{"c0", "c1", "e0"}},
			// They come back after the cache was emptied: a new keyring
			// misses, and so must the reused one.
			{seed: "seed-a", parts: []string{"c0", "c1", "c2", "e0", "e1"}, flush: true, extra: "manager"},
			{seed: "seed-b", parts: []string{"c0", "c1", "e0"}},
			{seed: "seed-b", parts: []string{"c0", "c1", "e0"}, flush: true},
			{seed: "seed-b", parts: []string{"c0", "c1", "e0"}},
		}
		msg := []byte("m")
		for i, st := range steps {
			// use drives a keyring the way a run does: a late Hold (the
			// notary's key, after the chain's), a signature, two record hits
			// and a rendering.
			use := func(kr *Keyring) ([]byte, Stats) {
				if pid := sim.PID(len(st.parts)); st.extra != "" && !kr.Holds(pid, st.extra) {
					kr.Hold(pid, st.extra)
				}
				s := kr.Sign("c1", msg)
				kr.Verify("c1", msg, s)
				kr.Verify("c1", msg, s)
				return bytes.Clone(s.Bytes()), kr.Stats()
			}
			// Both keyrings must meet the key cache in the same state: empty
			// on a flush step, otherwise already holding the step's keys.
			if st.flush {
				ResetKeyCache()
			} else {
				use(NewKeyringWith(opts, st.seed, st.parts))
			}
			g0 := GlobalStats()
			fresh := NewKeyringWith(opts, st.seed, st.parts)
			wantSig, wantStats := use(fresh)
			g1 := GlobalStats()
			if st.flush {
				ResetKeyCache()
			}
			reused.Reset(st.seed, st.parts)
			if got, want := heldIDs(reused), strings.Join(st.parts, ","); got != want {
				t.Fatalf("%s step %d: after Reset the keyring holds %s, want exactly %s", backend, i, got, want)
			}
			gotSig, gotStats := use(reused)
			g2 := GlobalStats()
			if !bytes.Equal(gotSig, wantSig) {
				t.Fatalf("%s step %d: the reset keyring signs differently", backend, i)
			}
			if gotStats != wantStats {
				t.Fatalf("%s step %d: Stats %+v on the reset keyring, %+v on a new one", backend, i, gotStats, wantStats)
			}
			if d1, d2 := statsDelta(g0, g1), statsDelta(g1, g2); d1 != d2 {
				t.Fatalf("%s step %d: process-wide counters moved by %+v for the reset keyring, %+v for a new one", backend, i, d2, d1)
			}
		}
	}
	ResetKeyCache()
}

func statsDelta(a, b Stats) Stats {
	return Stats{
		KeygenHits:   b.KeygenHits - a.KeygenHits,
		KeygenMisses: b.KeygenMisses - a.KeygenMisses,
		MemoHits:     b.MemoHits - a.MemoHits,
		MemoMisses:   b.MemoMisses - a.MemoMisses,
		Rendered:     b.Rendered - a.Rendered,
	}
}
