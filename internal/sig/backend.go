package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sort"
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
type Backend interface {
	// Name identifies the backend in options, CLIs and cache keys.
	Name() string
	// GenerateKey derives the deterministic key material for (seed, id).
	GenerateKey(seed, id string) Key
	// MemoByDefault reports whether a keyring under this backend memoizes
	// verifications unless told otherwise: true when a backend verification
	// costs more than the memo's own key (two SHA-256 and a map probe).
	MemoByDefault() bool
	// bind returns a signer for k. The signer belongs to the keyring that
	// asked for it and is confined to that keyring's goroutine; k itself may
	// be shared process-wide through the key cache and is never written.
	bind(k Key) signer
}

// signer signs and verifies under one key.
type signer interface {
	// sign produces a detached signature over payload; a backend whose
	// signatures have a fixed size may take their storage from a.
	sign(a *sigArena, payload []byte) Signature
	// verify checks sig over payload against the public half of the key.
	verify(payload []byte, sig Signature) bool
}

// Backend names.
const (
	// BackendEd25519 is the default: real asymmetric ed25519 signatures.
	BackendEd25519 = "ed25519"
	// BackendHMAC authenticates with SHA-256 MACs under derived keys —
	// model-equivalent within the simulation and ~100x cheaper per op.
	BackendHMAC = "hmac"
)

// ed25519Backend is the original scheme, unchanged: deterministic key
// generation from a hash-chain reader, standard sign/verify.
type ed25519Backend struct{}

func (ed25519Backend) Name() string { return BackendEd25519 }

func (ed25519Backend) GenerateKey(seed, id string) Key {
	pub, priv, err := ed25519.GenerateKey(newDeterministicReader(seed + "/" + id))
	if err != nil {
		// ed25519.GenerateKey only fails if the reader fails, and ours cannot.
		panic("sig: key generation failed: " + err.Error())
	}
	return Key{priv: priv, pub: pub}
}

// MemoByDefault implements Backend: a verification is ~64 µs, a memo hit
// ~0.35 µs.
func (ed25519Backend) MemoByDefault() bool { return true }

func (ed25519Backend) bind(k Key) signer { return ed25519Signer(k) }

type ed25519Signer Key

func (s ed25519Signer) sign(_ *sigArena, payload []byte) Signature {
	return Signature(ed25519.Sign(ed25519.PrivateKey(s.priv), payload))
}

func (s ed25519Signer) verify(payload []byte, sig Signature) bool {
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

// MemoByDefault implements Backend: recomputing the MAC (~0.24 µs) is
// cheaper than hashing payload and signature into a memo key.
func (hmacBackend) MemoByDefault() bool { return false }

func (hmacBackend) bind(k Key) signer { return &hmacSigner{mac: hmac.New(sha256.New, k.priv)} }

// hmacSigner keeps one pre-keyed HMAC: Reset restores the keyed state, so an
// operation costs the two SHA-256 finalisations and no key schedule; a
// signature is written into the keyring's arena and verification's MAC into
// the signer's own scratch, so neither allocates.
type hmacSigner struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

func (s *hmacSigner) sign(a *sigArena, payload []byte) Signature {
	s.mac.Reset()
	s.mac.Write(payload)
	return Signature(s.mac.Sum(a.take(sha256.Size)))
}

func (s *hmacSigner) verify(payload []byte, sig Signature) bool {
	s.mac.Reset()
	s.mac.Write(payload)
	return hmac.Equal(s.mac.Sum(s.sum[:0]), sig)
}

// backends is the registry of available backends.
var backends = map[string]Backend{
	BackendEd25519: ed25519Backend{},
	BackendHMAC:    hmacBackend{},
}

// BackendByName resolves a backend; the empty name is the ed25519 default.
func BackendByName(name string) (Backend, bool) {
	if name == "" {
		name = BackendEd25519
	}
	b, ok := backends[name]
	return b, ok
}

// BackendNames lists the registered backend names in sorted order.
func BackendNames() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Options selects and tunes the authentication layer of one keyring.
type Options struct {
	// Backend names the signature backend; "" means ed25519.
	Backend string
	// DisableKeyCache bypasses the process-wide key cache (tests).
	DisableKeyCache bool
	// MemoCapacity bounds the verification memo: positive turns it on with
	// that many entries, negative turns it off, and 0 leaves the choice to
	// the backend (Backend.MemoByDefault; memoDefaultCap entries when on).
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
// miss, and so must a reused one.
var keyCacheEpoch atomic.Uint64

// Process-wide cache counters (atomic: keyrings run on many goroutines).
var (
	globalKeygenHits    atomic.Uint64
	globalKeygenMisses  atomic.Uint64
	globalMemoHits      atomic.Uint64
	globalMemoMisses    atomic.Uint64
	globalMemoEvictions atomic.Uint64
)

// cachedKey returns the key for (backend, seed, id), consulting and filling
// the process-wide cache. Concurrent misses may both derive the key; the
// derivation is deterministic, so whichever insert wins stores the same
// bytes.
func cachedKey(b Backend, seed, id string) (Key, bool) {
	ck := keyCacheKey{backend: b.Name(), seed: seed, id: id}
	keyCache.RLock()
	k, ok := keyCache.m[ck]
	keyCache.RUnlock()
	if ok {
		globalKeygenHits.Add(1)
		return k, true
	}
	globalKeygenMisses.Add(1)
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

// KeyCacheLen reports the number of resident cached keys (tests, metrics).
func KeyCacheLen() int {
	keyCache.RLock()
	defer keyCache.RUnlock()
	return len(keyCache.m)
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
	// MemoHits/MemoMisses count signature verifications served from / missing
	// the keyring's verification memo. A miss pays one backend Verify.
	MemoHits   uint64
	MemoMisses uint64
	// MemoEvictions counts bulk memo resets on capacity overflow.
	MemoEvictions uint64
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

// GlobalStats aggregates cache counters across every keyring in the process.
func GlobalStats() Stats {
	return Stats{
		KeygenHits:    globalKeygenHits.Load(),
		KeygenMisses:  globalKeygenMisses.Load(),
		MemoHits:      globalMemoHits.Load(),
		MemoMisses:    globalMemoMisses.Load(),
		MemoEvictions: globalMemoEvictions.Load(),
	}
}

// ResetGlobalStats zeroes the process-wide counters (benchmarks, CI gates).
func ResetGlobalStats() {
	globalKeygenHits.Store(0)
	globalKeygenMisses.Store(0)
	globalMemoHits.Store(0)
	globalMemoMisses.Store(0)
	globalMemoEvictions.Store(0)
}
