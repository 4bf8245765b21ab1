package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
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
			opts := Options{Backend: name, DisableKeyCache: true}
			kr := NewKeyringWith(opts, "seed", []string{"a", "b"})
			if kr.Backend() != name {
				t.Fatalf("Backend() = %q, want %q", kr.Backend(), name)
			}
			msg := []byte("payload")
			s := kr.Sign("a", msg)
			if len(s) == 0 {
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
			if kr.Verify("a", msg, nil) {
				t.Fatal("empty signature verified")
			}
			// Determinism across keyrings.
			kr2 := NewKeyringWith(opts, "seed", []string{"a"})
			if !bytes.Equal(kr2.Sign("a", msg), s) {
				t.Fatal("same (backend, seed, id) produced different signatures")
			}
			kr3 := NewKeyringWith(opts, "other", []string{"a"})
			if bytes.Equal(kr3.Sign("a", msg), s) {
				t.Fatal("different seeds produced identical signatures")
			}
		})
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
	ed := NewKeyringWith(Options{Backend: BackendEd25519, DisableKeyCache: true}, "seed", []string{"a"})
	mac := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true}, "seed", []string{"a"})
	if mac.Verify("a", msg, ed.Sign("a", msg)) {
		t.Fatal("ed25519 signature verified under hmac")
	}
	if ed.Verify("a", msg, mac.Sign("a", msg)) {
		t.Fatal("hmac MAC verified under ed25519")
	}
}

// The process-wide key cache must serve the same keys as direct generation,
// and hit after the first derivation.
func TestKeyCacheEquivalenceAndHits(t *testing.T) {
	ResetKeyCache()
	msg := []byte("payload")
	for _, name := range BackendNames() {
		cached := NewKeyringWith(Options{Backend: name}, "cache-seed", []string{"x", "y"})
		direct := NewKeyringWith(Options{Backend: name, DisableKeyCache: true}, "cache-seed", []string{"x", "y"})
		if !bytes.Equal(cached.Sign("x", msg), direct.Sign("x", msg)) {
			t.Fatalf("%s: cached and direct keys differ", name)
		}
		if st := cached.Stats(); st.KeygenMisses != 2 || st.KeygenHits != 0 {
			t.Fatalf("%s: first keyring stats = %+v, want 2 misses", name, st)
		}
		again := NewKeyringWith(Options{Backend: name}, "cache-seed", []string{"x", "y"})
		if st := again.Stats(); st.KeygenHits != 2 || st.KeygenMisses != 0 {
			t.Fatalf("%s: second keyring stats = %+v, want 2 hits", name, st)
		}
		if !bytes.Equal(again.Sign("x", msg), direct.Sign("x", msg)) {
			t.Fatalf("%s: cache served a wrong key", name)
		}
	}
	if KeyCacheLen() != 4 {
		t.Fatalf("KeyCacheLen() = %d, want 4 (2 ids x 2 backends)", KeyCacheLen())
	}
	ResetKeyCache()
	if KeyCacheLen() != 0 {
		t.Fatal("ResetKeyCache left entries behind")
	}
}

// Key-cache concurrency: any goroutine interleaving must produce the same
// keys (run under -race; the CI race job includes this package).
func TestKeyCacheConcurrency(t *testing.T) {
	ResetKeyCache()
	msg := []byte("concurrent payload")
	for _, name := range BackendNames() {
		want := NewKeyringWith(Options{Backend: name, DisableKeyCache: true}, "race-seed", []string{"p0", "p1", "p2"}).Sign("p1", msg)
		const goroutines = 16
		got := make([]Signature, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				kr := NewKeyringWith(Options{Backend: name}, "race-seed", []string{"p0", "p1", "p2"})
				got[g] = kr.Sign("p1", msg)
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
		if l := KeyCacheLen(); l > peak {
			peak = l
		}
	}
	return peak
}

// Verification memoization: the same artefact re-verified costs one backend
// operation; tampering reaches the backend again; negative results memoize
// too; overflow evicts wholesale.
func TestVerifyMemoization(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendEd25519, DisableKeyCache: true}, "memo-seed", []string{"a"})
	msg := []byte("artefact")
	s := kr.Sign("a", msg)
	for i := 0; i < 3; i++ {
		if !kr.Verify("a", msg, s) {
			t.Fatal("valid signature rejected")
		}
	}
	if st := kr.Stats(); st.MemoMisses != 1 || st.MemoHits != 2 {
		t.Fatalf("stats after 3 identical verifies = %+v, want 1 miss + 2 hits", kr.Stats())
	}
	// A tampered payload is a distinct memo entry and must fail repeatedly.
	for i := 0; i < 2; i++ {
		if kr.Verify("a", []byte("tampered"), s) {
			t.Fatal("tampered payload verified")
		}
	}
	if st := kr.Stats(); st.MemoMisses != 2 || st.MemoHits != 3 {
		t.Fatalf("stats after tampered verifies = %+v", kr.Stats())
	}
	if rate := kr.Stats().VerifyMissRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("VerifyMissRate() = %v, want a proper fraction", rate)
	}
}

// TestMemoDefaultPerBackend pins who memoizes: by default only a backend
// whose verification is dearer than the memo's key, and an explicit capacity
// — positive or negative — under either. Without a memo every verification
// is a miss that reaches the backend, and still a correct one.
func TestMemoDefaultPerBackend(t *testing.T) {
	for _, tc := range []struct {
		backend  string
		capacity int
		memo     bool
	}{
		{BackendEd25519, 0, true},
		{BackendEd25519, 16, true},
		{BackendEd25519, -1, false},
		{BackendHMAC, 0, false},
		{BackendHMAC, 16, true},
		{BackendHMAC, -1, false},
	} {
		kr := NewKeyringWith(Options{Backend: tc.backend, DisableKeyCache: true, MemoCapacity: tc.capacity}, "memo-seed", []string{"a"})
		if (kr.memo != nil) != tc.memo {
			t.Fatalf("%s capacity %d: keeps a memo: %v, want %v", tc.backend, tc.capacity, kr.memo != nil, tc.memo)
		}
		msg := []byte("artefact")
		s := kr.Sign("a", msg)
		for i := 0; i < 2; i++ {
			if !kr.Verify("a", msg, s) || kr.Verify("a", []byte("tampered"), s) {
				t.Fatalf("%s capacity %d: wrong verdict on round %d", tc.backend, tc.capacity, i)
			}
		}
		want := Stats{KeygenMisses: 1, MemoMisses: 4}
		if tc.memo {
			want = Stats{KeygenMisses: 1, MemoMisses: 2, MemoHits: 2}
		}
		if st := kr.Stats(); st != want {
			t.Fatalf("%s capacity %d: stats %+v, want %+v", tc.backend, tc.capacity, st, want)
		}
	}
	for _, name := range BackendNames() {
		b, _ := BackendByName(name)
		if b.MemoByDefault() != (name == BackendEd25519) {
			t.Fatalf("%s: MemoByDefault() = %v", name, b.MemoByDefault())
		}
	}
}

func TestVerifyMemoDisabledAndEviction(t *testing.T) {
	// Disabled memo: every verify reaches the backend.
	off := NewKeyringWith(Options{Backend: BackendEd25519, DisableKeyCache: true, MemoCapacity: -1}, "memo-seed", []string{"a"})
	msg := []byte("artefact")
	s := off.Sign("a", msg)
	off.Verify("a", msg, s)
	off.Verify("a", msg, s)
	if st := off.Stats(); st.MemoHits != 0 || st.MemoMisses != 2 {
		t.Fatalf("disabled memo stats = %+v", st)
	}

	// Tiny capacity: distinct artefacts force bulk evictions, and results
	// stay correct afterwards.
	small := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true, MemoCapacity: 2}, "memo-seed", []string{"a"})
	payloads := [][]byte{[]byte("p1"), []byte("p2"), []byte("p3"), []byte("p4")}
	for _, p := range payloads {
		if !small.Verify("a", p, small.Sign("a", p)) {
			t.Fatalf("valid signature over %q rejected", p)
		}
	}
	if st := small.Stats(); st.MemoEvictions == 0 {
		t.Fatalf("no evictions at capacity 2 across 4 artefacts: %+v", st)
	}
	if !small.Verify("a", payloads[3], small.Sign("a", payloads[3])) {
		t.Fatal("verification wrong after eviction")
	}
}

// White-box: Participants() caches its sorted slice and Add invalidates it.
func TestParticipantsCached(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true}, "parts-seed", []string{"c", "a", "b"})
	p1 := kr.Participants()
	p2 := kr.Participants()
	if &p1[0] != &p2[0] {
		t.Fatal("Participants() re-allocated on a clean cache")
	}
	if p1[0] != "a" || p1[1] != "b" || p1[2] != "c" {
		t.Fatalf("Participants() not sorted: %v", p1)
	}
	kr.Add("parts-seed", "aa")
	p3 := kr.Participants()
	if len(p3) != 4 || p3[1] != "aa" {
		t.Fatalf("Participants() after Add = %v", p3)
	}
	if kr.parts == nil {
		t.Fatal("cache not rebuilt")
	}
	kr.Add("parts-seed", "zz")
	if kr.parts != nil {
		t.Fatal("Add did not invalidate the cached participant slice")
	}
}

// referencePayload is the canonical encoding spelled out field by field:
// every field length-prefixed with eight big-endian bytes, integers and
// times as eight big-endian bytes. The typed payload builders must produce
// exactly these bytes, or every signature (and every memo key) would change.
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

// The typed payload builders encode exactly the canonical form, keep field
// boundaries apart, and build in the keyring's scratch without allocating.
func TestCanonicalTypedCases(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendHMAC}, "canon-seed", []string{"a"})
	cases := []struct {
		name  string
		build func() []byte // the result aliases kr's scratch until the next build
		want  []byte
	}{
		{"chi", func() []byte {
			return kr.paymentCertPayload(PaymentCert{PaymentID: "p", Issuer: "bob", Payer: "alice", IssuedAt: 9})
		}, referencePayload("chi", "p", "bob", "alice", sim.Time(9))},
		{"guarantee", func() []byte {
			return kr.guaranteePayload(Guarantee{PaymentID: "p", Escrow: "e0", Customer: "c0", D: 7, IssuedAt: -3})
		}, referencePayload("guarantee", "p", "e0", "c0", sim.Time(7), sim.Time(-3))},
		{"promise", func() []byte {
			return kr.promisePayload(Promise{PaymentID: "p", Escrow: "e0", Customer: "c1", A: 5, Epsilon: 2, IssuedAt: 11})
		}, referencePayload("promise", "p", "e0", "c1", sim.Time(5), sim.Time(2), sim.Time(11))},
		{"decision", func() []byte {
			return kr.decisionPayload(DecisionCert{PaymentID: "p", Decision: DecisionAbort, Manager: "manager", IssuedAt: 4})
		}, referencePayload("decision", "p", "abort", "manager", sim.Time(4))},
		{"receipt", func() []byte {
			return kr.receiptPayload(Receipt{PaymentID: "p", Issuer: "bob", Subject: "funds-received", IssuedAt: 1})
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
	ab := append([]byte(nil), kr.receiptPayload(Receipt{PaymentID: "ab", Issuer: "c"})...)
	if bytes.Equal(ab, kr.receiptPayload(Receipt{PaymentID: "a", Issuer: "bc"})) {
		t.Fatal("field boundaries collide")
	}
}

// GlobalStats aggregates across keyrings; ResetGlobalStats zeroes it.
func TestGlobalStats(t *testing.T) {
	ResetGlobalStats()
	ResetKeyCache()
	kr := NewKeyringWith(Options{Backend: BackendEd25519}, "global-seed", []string{"a"})
	msg := []byte("m")
	s := kr.Sign("a", msg)
	kr.Verify("a", msg, s)
	kr.Verify("a", msg, s)
	st := GlobalStats()
	if st.KeygenMisses == 0 || st.MemoMisses == 0 || st.MemoHits == 0 {
		t.Fatalf("GlobalStats() = %+v, want nonzero counters", st)
	}
	ResetGlobalStats()
	if st := GlobalStats(); st != (Stats{}) {
		t.Fatalf("ResetGlobalStats left %+v", st)
	}
}

// Replacing a participant's key must reset the memo: verdicts memoized
// under the old key may not answer for the new one.
func TestAddReplacementInvalidatesMemo(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendEd25519, DisableKeyCache: true}, "seed-a", []string{"p"})
	msg := []byte("payload")
	s := kr.Sign("p", msg)
	if !kr.Verify("p", msg, s) {
		t.Fatal("valid signature rejected")
	}
	kr.Add("seed-b", "p") // replace p's key
	if kr.Verify("p", msg, s) {
		t.Fatal("signature under the replaced key still verified (stale memo)")
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

// TestHMACSignVerifyAllocs is the allocation gate on the pre-keyed HMAC
// path: once a key's signer is bound, a verification allocates nothing, and
// on a keyring that is Reset between payments — a world's — neither does a
// signature: a payment's worth of them goes into the arena chunk the Reset
// rewound. A per-operation hmac.New would show here as a dozen allocations.
func TestHMACSignVerifyAllocs(t *testing.T) {
	ids := []string{"a"}
	kr := NewKeyringWith(Options{Backend: BackendHMAC}, "alloc-seed", ids)
	payload := []byte("the payload of one artefact, about as long as a canonical one")
	s := kr.Sign("a", payload)
	if !kr.Verify("a", payload, s) {
		t.Fatal("signature does not verify")
	}
	if n := testing.AllocsPerRun(200, func() { kr.Verify("a", payload, s) }); n != 0 {
		t.Errorf("hmac Verify allocates %v times, want 0", n)
	}
	payment := func() {
		kr.Reset("alloc-seed", ids)
		for i := 0; i < 17; i++ { // an n=8 timelock chain signs 17 artefacts
			kr.Sign("a", payload)
		}
	}
	if n := testing.AllocsPerRun(200, payment); n != 0 {
		t.Errorf("hmac Sign on a warmed keyring allocates %v times per payment, want 0", n)
	}
	// A keyring nobody resets starts a chunk every arenaChunk/32 signatures.
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < arenaChunk/sha256.Size; i++ {
			kr.Sign("a", payload)
		}
	}); n != 1 {
		t.Errorf("a chunk's worth of hmac signatures allocates %v times, want 1", n)
	}

	// With a memo asked for, a verification — miss or hit — still allocates
	// nothing once the memo's map has grown.
	memo := NewKeyringWith(Options{Backend: BackendHMAC, MemoCapacity: 64}, "alloc-seed", ids)
	s = memo.Sign("a", payload)
	memo.Verify("a", payload, s)
	if n := testing.AllocsPerRun(200, func() { memo.Verify("a", payload, s) }); n != 0 {
		t.Errorf("memoized hmac Verify allocates %v times, want 0", n)
	}
}

// TestSignatureArenaRollover: signatures handed out before the arena moves
// on to its next chunk — and before the ones after that — keep their bytes;
// a Reset hands the current chunk out again, and what is signed afterwards
// is right too.
func TestSignatureArenaRollover(t *testing.T) {
	ids := []string{"a", "b"}
	opts := Options{Backend: BackendHMAC}
	kr := NewKeyringWith(opts, "arena-seed", ids)
	const n = 3*arenaChunk/sha256.Size + 7 // into the fourth chunk
	payloads := make([][]byte, n)
	sigs := make([]Signature, n)
	for i := range sigs {
		payloads[i] = []byte(fmt.Sprintf("artefact #%d", i))
		sigs[i] = kr.Sign(ids[i%2], payloads[i])
	}
	ref := NewKeyringWith(opts, "arena-seed", ids)
	check := func(when string) {
		t.Helper()
		for i, s := range sigs {
			if !kr.Verify(ids[i%2], payloads[i], s) {
				t.Fatalf("%s: signature %d no longer verifies", when, i)
			}
			ref.Reset("arena-seed", ids) // the reference never leaves its first chunk
			if want := ref.Sign(ids[i%2], payloads[i]); !bytes.Equal(s, want) {
				t.Fatalf("%s: signature %d changed", when, i)
			}
		}
	}
	check("after the arena rolled over three times")

	// A Reset invalidates them all and hands the current chunk out again.
	rewound := &sigs[n-7][0] // the first signature of the fourth chunk
	kr.Reset("arena-seed", ids)
	for i := range sigs {
		sigs[i] = kr.Sign(ids[i%2], payloads[i])
	}
	if &sigs[0][0] != rewound {
		t.Fatal("Reset did not hand the current chunk out again")
	}
	check("after a Reset and everything signed again")
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
		sigC2 := append(Signature(nil), kr.Sign("c2", msg)...)
		bound := func() bool { _, ok := kr.signers["c2"]; return ok }
		if !bound() {
			t.Fatalf("%s: signing did not bind c2's signer", backend)
		}

		kr.Reset("seed-a", short)
		if !bound() {
			t.Fatalf("%s: Reset to a shorter chain dropped c2's signer", backend)
		}
		if kr.Has("c2") || kr.Sign("c2", msg) != nil || kr.Verify("c2", msg, sigC2) {
			t.Fatalf("%s: a dropped participant still signs or verifies", backend)
		}
		if got := strings.Join(kr.Participants(), ","); got != "c0,c1,e0" {
			t.Fatalf("%s: participants %s after Reset to the shorter chain", backend, got)
		}

		kr.Reset("seed-a", long)
		if !bound() {
			t.Fatalf("%s: the longer chain did not find c2's signer again", backend)
		}
		if !bytes.Equal(kr.Sign("c2", msg), sigC2) {
			t.Fatalf("%s: the kept signer signs differently", backend)
		}

		// Another seed: nothing bound under seed-a may answer.
		kr.Reset("seed-a", short)
		kr.Reset("seed-b", long)
		if len(kr.signers) != 0 {
			t.Fatalf("%s: %d signers survived a Reset to another seed", backend, len(kr.signers))
		}
		want := NewKeyringWith(opts, "seed-b", long).Sign("c2", msg)
		if got := kr.Sign("c2", msg); !bytes.Equal(got, want) || bytes.Equal(got, sigC2) {
			t.Fatalf("%s: c2 signs under the wrong seed after Reset(seed-b)", backend)
		}

		// A key brought in under another seed while its signer lies dormant.
		kr.Reset("seed-b", short)
		kr.Add("seed-c", "c2")
		want = NewKeyringWith(opts, "seed-c", long).Sign("c2", msg)
		if got := kr.Sign("c2", msg); !bytes.Equal(got, want) {
			t.Fatalf("%s: c2 added under seed-c signs with the signer kept from seed-b", backend)
		}

		// A key-cache flush: a new keyring would derive again, so must this.
		kr.Reset("seed-b", long)
		kr.Sign("c2", msg)
		kr.Reset("seed-b", short)
		ResetKeyCache()
		kr.Reset("seed-b", long)
		if len(kr.signers) != 0 {
			t.Fatalf("%s: %d signers survived ResetKeyCache", backend, len(kr.signers))
		}
		if st := kr.Stats(); st.KeygenMisses != uint64(len(long)) || st.KeygenHits != 0 {
			t.Fatalf("%s: after ResetKeyCache the keyring counts %+v, want %d misses", backend, st, len(long))
		}
	}
	ResetKeyCache()
}

// TestKeyringResetEquivalence resets one keyring through changing
// participant sets, seeds and a key-cache flush, and expects after every
// Reset what a new keyring shows: the same signatures, exactly the
// participants' keys, an empty memo, and the same Stats and process-wide
// counter deltas.
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
			{seed: "seed-b", parts: []string{"c0", "c1", "e0"}},
			{seed: "seed-b", parts: []string{"c0", "c1", "e0"}, flush: true},
			{seed: "seed-b", parts: []string{"c0", "c1", "e0"}},
		}
		msg := []byte("m")
		for i, st := range steps {
			// use drives a keyring the way a run does: a late Add (the
			// notary's key), a signature, a miss and a hit.
			use := func(kr *Keyring) (Signature, Stats) {
				if st.extra != "" && !kr.Has(st.extra) {
					kr.Add(st.seed, st.extra)
				}
				s := kr.Sign("c1", msg)
				kr.Verify("c1", msg, s)
				kr.Verify("c1", msg, s)
				return s, kr.Stats()
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
			wantParts := append([]string(nil), st.parts...)
			sort.Strings(wantParts)
			if got := reused.Participants(); strings.Join(got, ",") != strings.Join(wantParts, ",") {
				t.Fatalf("%s step %d: after Reset the keyring holds %v, want exactly %v", backend, i, got, wantParts)
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
		KeygenHits:    b.KeygenHits - a.KeygenHits,
		KeygenMisses:  b.KeygenMisses - a.KeygenMisses,
		MemoHits:      b.MemoHits - a.MemoHits,
		MemoMisses:    b.MemoMisses - a.MemoMisses,
		MemoEvictions: b.MemoEvictions - a.MemoEvictions,
	}
}
