package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sync"
	"sync/atomic"
)

// The paper assumes the classic Byzantine model *with authentication*:
// signatures are a model primitive, not a contribution. Which concrete
// scheme realises the primitive therefore cannot change any theorem-shaped
// verdict — it only changes how many CPU cycles each run spends on the
// model's assumption. This file makes the scheme pluggable: the default
// ed25519 backend keeps real asymmetric signatures (and byte-identical
// outputs to earlier versions), while the hmac backend authenticates with
// SHA-256 MACs under per-participant derived keys — unforgeable within the
// simulation because all signing flows through the Keyring API (a simulated
// Byzantine participant can only replay or corrupt artefacts, never reach
// another participant's key material), and orders of magnitude cheaper.

// Key is one participant's key material under one backend. For asymmetric
// backends priv and pub differ; for MAC backends they are the same secret.
type Key struct {
	priv []byte
	pub  []byte
}

// Backend abstracts the signature scheme behind the Keyring: deterministic
// key derivation from (seed, id), and detached signing and verification
// through a signer bound to one key. Implementations must be stateless and
// safe for concurrent use; whatever state signing needs lives in the signer.
//
// Contract: a signer's sign is a pure function of (key, payload) — HMAC by
// definition, Go's ed25519.Sign as RFC 8032's deterministic Ed25519 — and
// its verify accepts every signature its sign produced over the same
// payload. The keyring rests on both: it renders a signature's bytes when
// something first reads them rather than at Sign, which yields the same
// bytes only because sign is pure, and it answers a verification of a term
// it recorded with true and no backend operation, which is exactly what
// verify would have answered.
type Backend interface {
	// Name identifies the backend in options, CLIs and cache keys.
	Name() string
	// GenerateKey derives the deterministic key material for (seed, id).
	GenerateKey(seed, id string) Key
	// bind returns a signer for k. The signer belongs to the keyring that
	// asked for it and is confined to that keyring's goroutine; k itself may
	// be shared process-wide through the key cache and is never written.
	bind(k Key) signer
}

// signer signs and verifies under one key.
type signer interface {
	// sign produces a detached signature over payload. The result may be
	// the signer's scratch, valid until its next operation.
	sign(payload []byte) []byte
	// verify checks sig over payload against the public half of the key.
	verify(payload, sig []byte) bool
}

// Backend names.
const (
	// BackendEd25519 is the default: real asymmetric ed25519 signatures.
	BackendEd25519 = "ed25519"
	// BackendHMAC authenticates with SHA-256 MACs under derived keys —
	// model-equivalent within the simulation and ~100x cheaper per op.
	BackendHMAC = "hmac"
)

// ed25519Backend is the original scheme: deterministic keys, standard
// sign/verify.
type ed25519Backend struct{}

func (ed25519Backend) Name() string { return BackendEd25519 }

// GenerateKey derives the key from the 32-byte ed25519 seed
// sha256(sha256("xchainpay-keys:" + seed + "/" + id)). Every signature,
// golden and recorded trace rests on these keys, so the formula is fixed
// (TestKeyDerivationPinned).
func (ed25519Backend) GenerateKey(seed, id string) Key {
	h := sha256.Sum256([]byte("xchainpay-keys:" + seed + "/" + id))
	h = sha256.Sum256(h[:])
	priv := ed25519.NewKeyFromSeed(h[:])
	return Key{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

func (ed25519Backend) bind(k Key) signer { return ed25519Signer(k) }

type ed25519Signer Key

func (s ed25519Signer) sign(payload []byte) []byte {
	return ed25519.Sign(ed25519.PrivateKey(s.priv), payload)
}

func (s ed25519Signer) verify(payload, sig []byte) bool {
	return ed25519.Verify(ed25519.PublicKey(s.pub), payload, sig)
}

// hmacBackend authenticates with HMAC-SHA256 under a per-participant key
// derived from (seed, id). Within the simulation this is as unforgeable as
// ed25519: the only way to produce a MAC is Keyring.Sign, and a keyring only
// signs on behalf of the id the protocol code asks for.
type hmacBackend struct{}

func (hmacBackend) Name() string { return BackendHMAC }

func (hmacBackend) GenerateKey(seed, id string) Key {
	mac := sha256.Sum256([]byte("xchainpay-mac:" + seed + "/" + id))
	k := append([]byte(nil), mac[:]...)
	return Key{priv: k, pub: k}
}

func (hmacBackend) bind(k Key) signer { return &hmacSigner{mac: hmac.New(sha256.New, k.priv)} }

// hmacSigner keeps one pre-keyed HMAC: Reset restores the keyed state, so an
// operation costs the two SHA-256 finalisations and no key schedule; the MAC
// is written into the signer's own scratch, so neither operation allocates.
type hmacSigner struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

func (s *hmacSigner) sign(payload []byte) []byte {
	s.mac.Reset()
	s.mac.Write(payload)
	return s.mac.Sum(s.sum[:0])
}

func (s *hmacSigner) verify(payload, sig []byte) bool {
	s.mac.Reset()
	s.mac.Write(payload)
	return hmac.Equal(s.mac.Sum(s.sum[:0]), sig)
}

// BackendByName resolves a backend; the empty name is the ed25519 default.
// Every scenario's Validate asks, so it compares names rather than hashing
// them.
//
//xchain:hotpath
func BackendByName(name string) (Backend, bool) {
	switch name {
	case "", BackendEd25519:
		return ed25519Backend{}, true
	case BackendHMAC:
		return hmacBackend{}, true
	}
	return nil, false
}

// BackendNames lists the backend names in sorted order.
func BackendNames() []string { return []string{BackendEd25519, BackendHMAC} }

// Options selects and tunes the authentication layer of one keyring.
type Options struct {
	// Backend names the signature backend; "" means ed25519.
	Backend string
	// MemoCapacity's sign switches the issuance record: negative turns it
	// off, so that every verification pays the backend; 0 or positive keeps
	// it on. A positive value bounds nothing: every live signature is its
	// own record entry.
	MemoCapacity int
}

// backend resolves the options' backend, panicking on unknown names (callers
// validate names at the configuration boundary — core.Scenario.Validate,
// traffic.Config, the CLIs — so reaching here with a bad name is a bug).
func (o Options) backend() Backend {
	b, ok := BackendByName(o.Backend)
	if !ok {
		panic("sig: unknown backend " + o.Backend)
	}
	return b
}

// Process-wide key cache. Key derivation is a pure function of
// (backend, seed, id), so every keyring in the process can share one cache.
// What it serves is a new keyring under a key seed the process has seen: a
// Run on a world of its own (the experiment tables, the CLIs, the tests), or
// each worker's first payment of a traffic run or fuzz campaign, all of whose
// scenarios share one key seed — such a keyring pays one map lookup per
// participant instead of one ed25519.GenerateKey. A standing world's keyring
// does not come here again: Keyring.Reset keeps its keys while the seed
// stays. Bounded: reaching keyCacheLimit entries clears the map (cheap, and
// correctness never depends on residency); only runs that derive a key seed
// per scenario ("seed-<n>") ever fill it.
type keyCacheKey struct {
	backend string
	seed    string
	id      string
}

const keyCacheLimit = 1 << 16

var keyCache = struct {
	sync.RWMutex
	m map[keyCacheKey]Key
}{m: make(map[keyCacheKey]Key)}

// keyCacheEpoch counts the times the cache was emptied. A keyring that kept
// its keys across a Reset may count them as cache hits only while the epoch
// it fetched them in is still current: after a clear, a new keyring would
// miss, and so must a reused one. Every keyring's Reset reads it, so it has
// its cache line to itself: nothing written per payment shares it.
var keyCacheEpoch struct {
	_ [cacheLine]byte
	atomic.Uint64
	_ [cacheLine - 8]byte
}

// cacheLine is the size of a CPU cache line on the reference platform.
const cacheLine = 64

// stripe is one share of the process-wide cache counters. A keyring adds to
// the stripe it was given at construction, never to a counter every keyring
// adds to: workers verifying on many cores would otherwise write one cache
// line between them at every verification. A stripe spans two cache lines,
// so the line next to it, which the hardware may fetch with it, is its own
// too. GlobalStats sums the stripes, so what it reports is exact.
type stripe struct {
	keygenHits, keygenMisses atomic.Uint64
	memoHits, memoMisses     atomic.Uint64
	rendered                 atomic.Uint64
	_                        [2*cacheLine - 5*8]byte
}

// stripes are dealt to keyrings in turn (nextStripe): keyrings built at the
// same time — a run's workers, each building its world — get different
// ones. More keyrings than stripes share them, which costs speed, never
// exactness.
var (
	stripes    [64]stripe
	nextStripe atomic.Uint32
)

// takeStripe returns the stripe a new keyring adds to.
func takeStripe() *stripe {
	return &stripes[nextStripe.Add(1)%uint32(len(stripes))]
}

// cachedKey returns the key for (backend, seed, id), consulting and filling
// the process-wide cache, and whether the cache held it. Concurrent misses
// may both derive the key; the derivation is deterministic, so whichever
// insert wins stores the same bytes.
func cachedKey(b Backend, seed, id string) (Key, bool) {
	ck := keyCacheKey{backend: b.Name(), seed: seed, id: id}
	keyCache.RLock()
	k, ok := keyCache.m[ck]
	keyCache.RUnlock()
	if ok {
		return k, true
	}
	k = b.GenerateKey(seed, id)
	keyCache.Lock()
	if len(keyCache.m) >= keyCacheLimit {
		keyCache.m = make(map[keyCacheKey]Key)
		keyCacheEpoch.Add(1)
	}
	keyCache.m[ck] = k
	keyCache.Unlock()
	return k, false
}

// ResetKeyCache empties the process-wide key cache (tests).
func ResetKeyCache() {
	keyCache.Lock()
	keyCache.m = make(map[keyCacheKey]Key)
	keyCacheEpoch.Add(1)
	keyCache.Unlock()
}

// Stats counts cache traffic. Keyring.Stats reports one keyring's view;
// GlobalStats aggregates every keyring in the process (the number a traffic
// run's CI gate watches: each worker's keyring is reset per payment, and the
// counters add up over all of them).
type Stats struct {
	// KeygenHits/KeygenMisses count key derivations served from / missing
	// the process-wide key cache.
	KeygenHits   uint64
	KeygenMisses uint64
	// MemoHits/MemoMisses count signature verifications answered from the
	// keyring's recorded terms / paid to the backend.
	MemoHits   uint64
	MemoMisses uint64
	// Rendered counts signatures whose bytes the backend produced, because
	// something read them: Bytes, String, or a verification that missed.
	Rendered uint64
}

// VerifyMissRate returns the fraction of verifications that paid a backend
// operation. A run that never verified anything reports 0: "nothing to
// cache" is not a cache regression (the CLI gate would otherwise fail
// spuriously on signature-free workloads such as pure HTLC mixes).
func (s Stats) VerifyMissRate() float64 {
	total := s.MemoHits + s.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(s.MemoMisses) / float64(total)
}

// GlobalStats aggregates cache counters across every keyring in the process:
// the sum of the stripes, exact once the keyrings it counts have returned.
func GlobalStats() Stats {
	var s Stats
	for i := range stripes {
		st := &stripes[i]
		s.KeygenHits += st.keygenHits.Load()
		s.KeygenMisses += st.keygenMisses.Load()
		s.MemoHits += st.memoHits.Load()
		s.MemoMisses += st.memoMisses.Load()
		s.Rendered += st.rendered.Load()
	}
	return s
}

// ResetGlobalStats zeroes the process-wide counters (benchmarks, CI gates).
func ResetGlobalStats() {
	for i := range stripes {
		st := &stripes[i]
		st.keygenHits.Store(0)
		st.keygenMisses.Store(0)
		st.memoHits.Store(0)
		st.memoMisses.Store(0)
		st.rendered.Store(0)
	}
}
