// Package sig provides the authentication layer of the classic Byzantine
// model with authentication assumed by the paper.
//
// It offers deterministic keyrings (one key per participant) over pluggable
// signature backends (see backend.go: real ed25519 by default, or derived-key
// HMAC-SHA256 for runs where crypto must stay off the hot path), typed signed
// artefacts — the payment certificate chi signed by Bob, the escrow promises
// G(d) and P(a), and the commit/abort certificates issued by the transaction
// manager of the weak-liveness protocol — and verification helpers. Byzantine
// participants may refuse to sign or replay artefacts, but cannot forge
// signatures of correct participants.
//
// Two mechanisms keep the model's assumed crypto cheap at traffic scale: a
// process-wide key cache (key derivation is a pure function of
// (backend, seed, id), so per-payment keyrings stop paying keygen per
// participant) and signatures kept as the records of the ideal signature
// functionality F_SIG (Canetti, CSFW 2004). Sign records a term — this
// signer signed this message — and hands out a handle on it; the bit string
// is rendered by the backend only when something reads it. A typed
// artefact's term holds its kind and fields, and their canonical encoding is
// rendered only for the backend. Verifying a term the keyring recorded since
// its last Reset is a comparison of signer and fields, and only anything
// else — a forgery, a tampered artefact, another keyring's signature — is
// rendered and paid to the backend. Every backend signs
// deterministically and accepts every signature it produces, so a late
// rendering is the bytes Sign would have produced and the comparison answers
// what the backend would: neither mechanism can move a verdict.
package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"unsafe"

	"repro/internal/sim"
)

// Signature is a detached signature over a canonical encoding, held as a
// handle on the term Sign recorded (or on bytes Raw wraps). The zero
// Signature is the absent signature: it renders nil and never verifies.
type Signature struct {
	t   *term
	gen uint64 // the generation of t's keyring when Sign recorded t
}

// term is what Sign records: kr signed c for signer with s. rendered is nil
// until read; a Raw term has nothing else.
type term struct {
	kr       *Keyring
	signer   string
	s        signer
	c        content
	rendered []byte
}

// Raw wraps literal signature bytes — a forgery, a tampered copy — as a
// Signature that is no keyring's term, so every verification of it is paid
// to the backend.
func Raw(b []byte) Signature { return Signature{t: &term{rendered: bytes.Clone(b)}} }

// Bytes returns the signature's bytes, rendering them with the signer's key
// on first read (the backend signs deterministically, so they are the bytes
// signing at Sign would have produced). A stale handle — one signed before
// its keyring's last Reset — renders nil. The result must not be modified.
func (s Signature) Bytes() []byte {
	t := s.t
	if t == nil || t.kr != nil && s.gen < t.kr.since {
		return nil
	}
	if t.rendered == nil && t.kr != nil {
		t.kr.buf = t.c.render(t.kr.buf[:0])
		b := t.s.sign(t.kr.buf)
		t.rendered = t.kr.arena.take(len(b), arenaChunk)
		copy(t.rendered, b)
		t.kr.stats.Rendered++
		globalRendered.Add(1)
	}
	return t.rendered
}

// String renders a short hex prefix of the signature: its first eight bytes,
// or all of a shorter one.
func (s Signature) String() string {
	b := s.Bytes()
	if len(b) < 8 {
		return "sig(" + hex.EncodeToString(b) + ")"
	}
	return "sig(" + hex.EncodeToString(b[:8]) + "…)"
}

// deterministicReader produces a reproducible byte stream for key generation
// so that every run with the same seed uses the same keys.
type deterministicReader struct {
	state [32]byte
	buf   []byte
}

func newDeterministicReader(seed string) *deterministicReader {
	return &deterministicReader{state: sha256.Sum256([]byte("xchainpay-keys:" + seed))}
}

func (r *deterministicReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			next := sha256.Sum256(r.state[:])
			r.state = next
			r.buf = append(r.buf, next[:]...)
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// Chunk sizes of a keyring's arenas, each several payments' worth.
const (
	arenaChunk = 4096
	termChunk  = 64
)

// arena hands out storage from fixed-size chunks, filled front to back. A
// full chunk is left to what was taken from it (and to the garbage collector
// once that is gone) and a new one begun, so nothing taken ever moves and a
// keyring that is never Reset holds on to nothing; rewind makes the current
// chunk free again.
type arena[T any] struct {
	chunk []T
	used  int
}

// take returns n elements nobody else holds, from chunks of size elements.
func (a *arena[T]) take(n, size int) []T {
	if a.used+n > len(a.chunk) {
		if n > size {
			return make([]T, n)
		}
		a.chunk, a.used = make([]T, size), 0
	}
	a.used += n
	return a.chunk[a.used-n : a.used : a.used]
}

func (a *arena[T]) rewind() { a.used = 0 }

// Keyring maps participant IDs to key pairs under one signature backend.
//
// A keyring is confined to its protocol run's goroutine (like the run's
// sim.Engine): Sign, Verify, Add and Reset mutate the terms, the key map, the
// bound signers, the arena and the rendering scratch without locking, and so
// do the Bytes and String of a Signature it signed, which render into its
// arena. The process-wide key cache behind Add is concurrency-safe, so any
// number of runs may build keyrings for the same (seed, id) concurrently.
//
// Lifetime rule: a Signature from Sign is valid until the keyring's next
// Reset, which hands its term and its storage out again; afterwards it is
// stale. Nothing else invalidates it.
type Keyring struct {
	backend  Backend
	useCache bool
	// seed, mixed and epoch say where keys came from: the seed the keyring
	// was built under, whether Add has since brought in a key of another
	// seed, and the key-cache epoch the keys were fetched in. Reset keeps
	// keys only for the same seed, unmixed, in the same epoch.
	seed  string
	mixed bool
	epoch uint64
	// keys holds each participant's key and, bound on first use, its
	// signer, indexed by the participant's PID: SignAs finds both by index.
	// Reset keeps a dropped-out participant's entry, not held, for its signer
	// (bound to the key the same seed derives again); only a later Reset or
	// Add that names it holds it again. held counts those held.
	keys []keyEntry
	held int
	// arena holds the raw payloads signed and the signatures rendered, terms
	// the terms Sign records.
	arena arena[byte]
	terms arena[term]
	// parts caches the sorted participant list; nil means dirty
	// (recomputed on demand, invalidated by Add).
	parts []string
	// gen is the keyring's generation, moved on by Reset and by a replacing
	// Add: only a term of the current generation answers a verification.
	// since is the generation of the last Reset: a handle from before it is
	// stale.
	gen, since uint64
	// record is false when every verification must pay the backend.
	record bool
	stats  Stats
	// buf is the scratch render builds canonical encodings in, for the
	// backend or a raw Verify; each is consumed before the next is built.
	buf []byte
}

type keyEntry struct {
	id   string
	key  Key
	s    signer
	held bool
}

// NewKeyring creates deterministic ed25519 keys for the given participants
// with default options (process-wide key cache on, verification of recorded
// terms answered without the backend). participants[i] is held under PID i;
// the keys themselves depend only on (seed, id).
func NewKeyring(seed string, participants []string) *Keyring {
	return NewKeyringWith(Options{}, seed, participants)
}

// NewKeyringWith creates a keyring under the options' backend.
func NewKeyringWith(opts Options, seed string, participants []string) *Keyring {
	kr := &Keyring{
		backend:  opts.backend(),
		useCache: !opts.DisableKeyCache,
		keys:     make([]keyEntry, 0, len(participants)),
		record:   opts.MemoCapacity >= 0,
	}
	kr.derive(seed, participants)
	return kr
}

// derive fills an empty keyring with the participants' keys under seed,
// participants[i] under PID i.
func (kr *Keyring) derive(seed string, participants []string) {
	kr.seed, kr.mixed, kr.epoch = seed, false, keyCacheEpoch.Load()
	for i, id := range participants {
		kr.Hold(sim.PID(i), seed, id)
	}
}

// Reset makes the keyring what NewKeyringWith(same options, seed,
// participants) returns — exactly these participants' keys, no term that
// answers a verification, Stats counting one key derivation per participant —
// while keeping what a new keyring would only fetch again: keys already held
// for the same seed count as the key-cache hits a new keyring would score
// (unless the cache was emptied since, when a new keyring would miss and this
// one derives again), and bound signers stay bound — those of participants
// that drop out too, for the next longer chain under the same seed. Every
// signature handed out before is stale afterwards.
func (kr *Keyring) Reset(seed string, participants []string) {
	kr.stats = Stats{}
	kr.gen++
	kr.since = kr.gen
	kr.arena.rewind()
	kr.terms.rewind()
	if !kr.useCache || kr.mixed || seed != kr.seed || kr.epoch != keyCacheEpoch.Load() {
		clear(kr.keys)
		kr.keys = kr.keys[:0]
		kr.held, kr.parts = 0, nil
		kr.derive(seed, participants)
		return
	}
	// Every entry a Reset keeps is under this seed, so an entry for a
	// participant's name has its key and bound signer, wherever it stands: it
	// is moved to the participant's PID, and a held one is kept as is.
	kept := 0
	for i, id := range participants {
		kr.place(i, id)
		if kr.keys[i].held {
			kept++
		} else {
			kr.Hold(sim.PID(i), seed, id)
		}
	}
	kr.stats.KeygenHits += uint64(kept)
	globalKeygenHits.Add(uint64(kept))
	for i := len(participants); i < len(kr.keys); i++ {
		if kr.keys[i].held {
			kr.keys[i].held = false
			kr.held--
		}
	}
	kr.parts = nil
}

// place brings the entry named id to PID i — the one some entry has, or a
// new one — keeping the entry that stood there under another PID: a key and
// its bound signer wait for their participant to come back.
func (kr *Keyring) place(i int, id string) {
	if i >= len(kr.keys) {
		kr.keys = append(kr.keys, make([]keyEntry, i+1-len(kr.keys))...)
	}
	if kr.keys[i].id == id {
		return
	}
	if j := kr.entry(id); j >= 0 {
		kr.keys[i], kr.keys[j] = kr.keys[j], kr.keys[i]
		return
	}
	if kr.keys[i].id != "" {
		kr.keys = append(kr.keys, kr.keys[i])
	}
	kr.keys[i] = keyEntry{id: id}
}

// Backend returns the name of the keyring's signature backend.
func (kr *Keyring) Backend() string { return kr.backend.Name() }

// Add creates (or replaces) the key pair for one participant: under the PID
// of the entry that has its name, or else under the next PID.
func (kr *Keyring) Add(seed, id string) {
	pid := sim.PID(len(kr.keys))
	if i := kr.entry(id); i >= 0 {
		pid = sim.PID(i) // held, or a dropped-out entry with its signer bound
	}
	kr.Hold(pid, seed, id)
}

// entry returns the PID of the entry named id, held or not, or -1: place
// keeps one entry per name.
func (kr *Keyring) entry(id string) int {
	for i := range kr.keys {
		if kr.keys[i].id == id {
			return i
		}
	}
	return -1
}

// index returns the PID under which the keyring holds id's key, or -1. It
// scans the entries: the way in for the name-addressed operations, never for
// a run's signing.
func (kr *Keyring) index(id string) int {
	if i := kr.entry(id); i >= 0 && kr.keys[i].held {
		return i
	}
	return -1
}

// Hold creates (or replaces) the key pair for participant id under pid,
// moving id's entry there if it stands elsewhere. Replacing a held key moves
// the generation on: what the old key signed must not answer for the new one
// without the backend.
func (kr *Keyring) Hold(pid sim.PID, seed, id string) {
	kr.place(int(pid), id)
	e := kr.keys[pid]
	replaced := e.held
	if replaced {
		kr.gen++
		kr.stats.MemoEvictions++
		globalMemoEvictions.Add(1)
	}
	if seed != kr.seed {
		kr.mixed = true
	}
	if replaced || seed != kr.seed {
		// Whatever signer id has is bound to another key than the new one.
		e.s = nil
	}
	if kr.useCache {
		k, hit := cachedKey(kr.backend, seed, id)
		if hit {
			kr.stats.KeygenHits++
		} else {
			kr.stats.KeygenMisses++
		}
		e.key = k
	} else {
		kr.stats.KeygenMisses++
		e.key = kr.backend.GenerateKey(seed, id)
	}
	if !replaced {
		kr.held++
	}
	e.held = true
	kr.keys[pid] = e
	kr.parts = nil
}

// Holds reports whether the keyring holds id's key under pid.
func (kr *Keyring) Holds(pid sim.PID, id string) bool {
	return uint(pid) < uint(len(kr.keys)) && kr.keys[pid].held && kr.keys[pid].id == id
}

// Has reports whether the keyring holds a key for id.
func (kr *Keyring) Has(id string) bool { return kr.index(id) >= 0 }

// Participants returns the sorted IDs with keys. The sorted slice is cached
// and invalidated by Add and Reset; callers must not modify it.
func (kr *Keyring) Participants() []string {
	if kr.parts == nil {
		kr.parts = make([]string, 0, kr.held)
		for _, e := range kr.keys {
			if e.held {
				kr.parts = append(kr.parts, e.id)
			}
		}
		sort.Strings(kr.parts)
	}
	return kr.parts
}

// signer returns the bound signer of the key the keyring holds under pid,
// binding it on first use.
//
//xchain:hotpath
func (kr *Keyring) signer(pid int) (signer, bool) {
	if uint(pid) >= uint(len(kr.keys)) {
		return nil, false
	}
	e := &kr.keys[pid]
	if !e.held {
		return nil, false
	}
	if e.s == nil {
		e.s = kr.backend.bind(e.key)
	}
	return e.s, true
}

// SignAs records that the participant under pid signed payload and returns
// the handle on that term; no backend runs until something reads its bytes.
// Signing for a PID without a key returns the zero Signature (which never
// verifies).
//
//xchain:hotpath
func (kr *Keyring) SignAs(pid sim.PID, payload []byte) Signature {
	sig := kr.sign(pid, &content{})
	if sig.t != nil {
		// The term holds its copy of the payload, in the arena it is
		// recorded with.
		b := kr.arena.take(len(payload), arenaChunk)
		copy(b, payload)
		sig.t.c.f[0] = unsafe.String(unsafe.SliceData(b), len(b))
	}
	return sig
}

// Sign is SignAs for the participant named id.
func (kr *Keyring) Sign(id string, payload []byte) Signature {
	return kr.SignAs(sim.PID(kr.index(id)), payload)
}

// sign records that the participant under pid signed c.
//
//xchain:hotpath
func (kr *Keyring) sign(pid sim.PID, c *content) Signature {
	s, ok := kr.signer(int(pid))
	if !ok {
		return Signature{}
	}
	t := &kr.terms.take(1, termChunk)[0]
	t.kr, t.signer, t.s, t.c, t.rendered = kr, kr.keys[pid].id, s, *c, nil
	return Signature{t: t, gen: kr.gen}
}

// recorded returns the term of sig if it answers a verification of signer
// on kr without the backend: kr recorded it, in its current generation, for
// signer.
//
//xchain:hotpath
func (kr *Keyring) recorded(signer string, sig Signature) *term {
	if t := sig.t; kr.record && t != nil && t.kr == kr && sig.gen == kr.gen && t.signer == signer {
		return t
	}
	return nil
}

// Verify checks that signer produced sig over payload. A term this keyring
// recorded in its current generation, by the same signer over an equal
// payload, is answered true with no backend operation (a record hit):
// re-verifying chi at every hop of a chain costs a comparison. A typed
// artefact's term is rendered to its canonical encoding to be compared.
// Anything else is rendered and paid to the backend (a miss).
func (kr *Keyring) Verify(signer string, payload []byte, sig Signature) bool {
	if t := kr.recorded(signer, sig); t != nil {
		var same bool
		if t.c.kind == kindRaw {
			same = t.c.f[0] == string(payload)
		} else {
			kr.buf = t.c.render(kr.buf[:0])
			same = bytes.Equal(kr.buf, payload)
		}
		if same {
			kr.hit()
			return true
		}
	}
	return kr.miss(signer, payload, nil, sig)
}

// verify checks that signer signed the typed artefact c in sig: for a term
// recorded on kr, a comparison of signer, generation and fields; else the
// backend's answer over c's canonical encoding.
//
//xchain:hotpath
func (kr *Keyring) verify(signer string, c *content, sig Signature) bool {
	if t := kr.recorded(signer, sig); t != nil && t.c == *c {
		kr.hit()
		return true
	}
	return kr.miss(signer, nil, c, sig)
}

// hit counts a verification answered from the record.
//
//xchain:hotpath
func (kr *Keyring) hit() {
	kr.stats.MemoHits++
	globalMemoHits.Add(1)
}

// miss answers a verification the record did not: the backend checks sig's
// bytes under signer's key, over payload or, for a typed artefact, over c's
// canonical encoding.
func (kr *Keyring) miss(signer string, payload []byte, c *content, sig Signature) bool {
	if sig.t == nil {
		return false
	}
	s, ok := kr.signer(kr.index(signer))
	if !ok {
		return false
	}
	b := sig.Bytes()
	if len(b) == 0 {
		return false
	}
	if c != nil {
		// After the bytes, which may have been rendered in the same scratch.
		kr.buf = c.render(kr.buf[:0])
		payload = kr.buf
	}
	kr.stats.MemoMisses++
	globalMemoMisses.Add(1)
	return s.verify(payload, b)
}

// Stats returns this keyring's cache counters (see Stats; GlobalStats
// aggregates across keyrings).
func (kr *Keyring) Stats() Stats { return kr.stats }

// content is what a term records as signed: a typed artefact's kind and
// fields, compared with ==, or (kindRaw) a raw payload, held in f[0]. Every
// artefact has three string fields and one to three times; the unused times
// are zero.
type content struct {
	kind kind
	f    [3]string
	t    [3]sim.Time
}

// kind tells the typed artefacts apart.
type kind uint8

const (
	kindRaw kind = iota
	kindChi
	kindGuarantee
	kindPromise
	kindDecision
	kindReceipt
)

// kindTags are the kinds' first fields in their canonical encodings, and
// kindTimes how many times each encodes.
var (
	kindTags  = [...]string{kindChi: "chi", kindGuarantee: "guarantee", kindPromise: "promise", kindDecision: "decision", kindReceipt: "receipt"}
	kindTimes = [...]int{kindChi: 1, kindGuarantee: 2, kindPromise: 3, kindDecision: 1, kindReceipt: 1}
)

// render appends c's canonical encoding to b and returns it: a raw payload
// as it is, and a typed artefact as its kind followed by its fields, each
// length-prefixed so distinct field values can never collide — strings as
// their bytes, times as eight big-endian bytes. It is what the backend signs
// and verifies, so it runs only for the backend (a signature's Bytes, a
// verification the record does not answer) and for a raw Verify against a
// typed term: a signature and its verification on the record compare
// content.
func (c *content) render(b []byte) []byte {
	if c.kind == kindRaw {
		return append(b, c.f[0]...)
	}
	b = appendField(b, kindTags[c.kind])
	for _, f := range c.f {
		b = appendField(b, f)
	}
	for _, t := range c.t[:kindTimes[c.kind]] {
		b = binary.BigEndian.AppendUint64(b, 8)
		b = binary.BigEndian.AppendUint64(b, uint64(t))
	}
	return b
}

func appendField(b []byte, f string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(f)))
	return append(b, f...)
}

// An artefact is signed and verified in place, in the message that carries
// it: its Sign records its content as the term, and its Verify compares its
// content with the term's.

// PaymentCert is the certificate chi: a statement signed by Bob that Alice's
// obligation to pay him has been met (Definition 1).
type PaymentCert struct {
	PaymentID string
	Issuer    string // Bob
	Payer     string // Alice
	IssuedAt  sim.Time
	Sig       Signature
}

func (c *PaymentCert) content() content {
	return content{kind: kindChi, f: [3]string{c.PaymentID, c.Issuer, c.Payer}, t: [3]sim.Time{c.IssuedAt}}
}

// NewPaymentCert builds and signs chi with issuer's key.
func NewPaymentCert(kr *Keyring, paymentID, issuer, payer string, at sim.Time) PaymentCert {
	c := PaymentCert{PaymentID: paymentID, Issuer: issuer, Payer: payer, IssuedAt: at}
	c.Sign(kr, sim.PID(kr.index(issuer)))
	return c
}

// Sign signs chi as it stands with the key under by, its issuer's PID, into
// Sig.
//
//xchain:hotpath
func (c *PaymentCert) Sign(kr *Keyring, by sim.PID) {
	cc := c.content()
	c.Sig = kr.sign(by, &cc)
}

// Verify checks chi's signature against the expected issuer.
//
//xchain:hotpath
func (c *PaymentCert) Verify(kr *Keyring, expectedIssuer string) bool {
	if c.Issuer != expectedIssuer {
		return false
	}
	cc := c.content()
	return kr.verify(c.Issuer, &cc, c.Sig)
}

// Describe implements a human-readable label.
func (c PaymentCert) Describe() string {
	return "chi(" + c.PaymentID + " by " + c.Issuer + ")"
}

// Guarantee is the promise G(d) issued by escrow e_i to its upstream
// customer c_i: "if I receive $ from you at my local time w, I will send you
// either $ or chi by my local time w + d".
type Guarantee struct {
	PaymentID string
	Escrow    string
	Customer  string
	D         sim.Time // the bound d, in the escrow's local clock units
	IssuedAt  sim.Time
	Sig       Signature
}

func (g *Guarantee) content() content {
	return content{kind: kindGuarantee, f: [3]string{g.PaymentID, g.Escrow, g.Customer}, t: [3]sim.Time{g.D, g.IssuedAt}}
}

// NewGuarantee builds and signs G(d).
func NewGuarantee(kr *Keyring, paymentID, escrow, customer string, d, at sim.Time) Guarantee {
	g := Guarantee{PaymentID: paymentID, Escrow: escrow, Customer: customer, D: d, IssuedAt: at}
	g.Sign(kr, sim.PID(kr.index(escrow)))
	return g
}

// Sign signs G(d) as it stands with the key under by, its escrow's PID, into
// Sig.
//
//xchain:hotpath
func (g *Guarantee) Sign(kr *Keyring, by sim.PID) {
	c := g.content()
	g.Sig = kr.sign(by, &c)
}

// Verify checks the guarantee's signature against its stated escrow.
//
//xchain:hotpath
func (g *Guarantee) Verify(kr *Keyring) bool {
	c := g.content()
	return kr.verify(g.Escrow, &c, g.Sig)
}

// Describe implements a human-readable label.
func (g Guarantee) Describe() string {
	return describePromise("G(d=", g.D, g.Escrow, g.Customer)
}

// describePromise renders an escrow promise's label, "G(d=1.000ms from e0 to
// c0)", in one buffer: every traced timelock message carries one.
func describePromise(open string, window sim.Time, escrow, customer string) string {
	var buf [64]byte
	b := append(buf[:0], open...)
	b = window.Append(b)
	b = append(b, " from "...)
	b = append(b, escrow...)
	b = append(b, " to "...)
	b = append(b, customer...)
	return string(append(b, ')'))
}

// Promise is P(a) issued by escrow e_i to its downstream customer c_{i+1}:
// "if I receive chi from you at my time v with v < now + a, I will send you
// $ by my local time v + epsilon".
type Promise struct {
	PaymentID string
	Escrow    string
	Customer  string
	A         sim.Time // the window a, in the escrow's local clock units
	Epsilon   sim.Time // processing bound epsilon
	IssuedAt  sim.Time // escrow-local issue time (the "now" in the promise)
	Sig       Signature
}

func (p *Promise) content() content {
	return content{kind: kindPromise, f: [3]string{p.PaymentID, p.Escrow, p.Customer}, t: [3]sim.Time{p.A, p.Epsilon, p.IssuedAt}}
}

// NewPromise builds and signs P(a).
func NewPromise(kr *Keyring, paymentID, escrow, customer string, a, epsilon, at sim.Time) Promise {
	p := Promise{PaymentID: paymentID, Escrow: escrow, Customer: customer, A: a, Epsilon: epsilon, IssuedAt: at}
	p.Sign(kr, sim.PID(kr.index(escrow)))
	return p
}

// Sign signs P(a) as it stands with the key under by, its escrow's PID, into
// Sig.
//
//xchain:hotpath
func (p *Promise) Sign(kr *Keyring, by sim.PID) {
	c := p.content()
	p.Sig = kr.sign(by, &c)
}

// Verify checks the promise's signature against its stated escrow.
//
//xchain:hotpath
func (p *Promise) Verify(kr *Keyring) bool {
	c := p.content()
	return kr.verify(p.Escrow, &c, p.Sig)
}

// Describe implements a human-readable label.
func (p Promise) Describe() string {
	return describePromise("P(a=", p.A, p.Escrow, p.Customer)
}

// Decision enumerates transaction-manager decisions in the weak-liveness
// protocol (Definition 2). The zero value is no decision.
type Decision uint8

// Transaction manager decisions.
const (
	DecisionCommit Decision = iota + 1
	DecisionAbort
)

// String is the decision's name in signed content, descriptions and traces:
// "commit", "abort", or "" for the zero value.
func (d Decision) String() string {
	switch d {
	case DecisionCommit:
		return "commit"
	case DecisionAbort:
		return "abort"
	}
	return ""
}

// DecisionCert is a commit or abort certificate (chi_c / chi_a) issued by
// the transaction manager. For a notary committee, Signers carries one
// signature per notary; Quorum records how many were required.
type DecisionCert struct {
	PaymentID string
	Decision  Decision
	Manager   string // logical manager identity (single party or committee name)
	IssuedAt  sim.Time
	// Signers lists the notary IDs that signed (just Manager for a single
	// trusted manager).
	Signers []string
	// Sigs holds one signature per entry of Signers, in the same order.
	Sigs []Signature
	// Quorum is the number of signatures required for validity.
	Quorum int
}

func (c *DecisionCert) content() content {
	return content{kind: kindDecision, f: [3]string{c.PaymentID, c.Decision.String(), c.Manager}, t: [3]sim.Time{c.IssuedAt}}
}

// NewCommitteeDecisionCert creates a certificate carrying one signature per
// signer; quorum is the validity threshold (e.g. 2f+1 of 3f+1 notaries, or 1
// for a single manager that signs alone).
func NewCommitteeDecisionCert(kr *Keyring, paymentID string, d Decision, committee string, at sim.Time, signers []string, quorum int) DecisionCert {
	c := DecisionCert{PaymentID: paymentID, Decision: d, Manager: committee, IssuedAt: at, Quorum: quorum, Signers: slices.Clone(signers)}
	by := make([]sim.PID, len(signers))
	for i, s := range signers {
		by[i] = sim.PID(kr.index(s))
	}
	c.Sign(kr, by)
	return c
}

// Sign signs the certificate as it stands on behalf of every entry of
// Signers, by[i] being Signers[i]'s PID, into Sigs, whose storage it reuses:
// an issuer that keeps one certificate and rewrites it per run
// (internal/notary) issues without allocating. What Sigs held before is gone.
//
//xchain:hotpath
func (c *DecisionCert) Sign(kr *Keyring, by []sim.PID) {
	cc := c.content()
	c.Sigs = c.Sigs[:0]
	for _, pid := range by {
		c.Sigs = append(c.Sigs, kr.sign(pid, &cc))
	}
}

// Verify checks that the certificate carries at least Quorum valid
// signatures from distinct signers.
//
//xchain:hotpath
func (c *DecisionCert) Verify(kr *Keyring) bool {
	if len(c.Signers) != len(c.Sigs) || c.Quorum <= 0 {
		return false
	}
	cc := c.content()
	valid := 0
	// verified[j] records whether entry j's signature verified; a signer
	// counts once, so a later entry under an already-verified name is
	// skipped. Committees are a handful of notaries: a linear scan over a
	// stack buffer replaces a per-call map.
	var buf [16]bool
	verified := buf[:0]
	for i, s := range c.Signers {
		dup := false
		for j, ok := range verified {
			if ok && c.Signers[j] == s {
				dup = true
				break
			}
		}
		ok := !dup && kr.verify(s, &cc, c.Sigs[i])
		verified = append(verified, ok)
		if ok {
			valid++
		}
	}
	return valid >= c.Quorum
}

// Describe implements a human-readable label.
func (c DecisionCert) Describe() string {
	return c.Decision.String() + "-cert(" + c.PaymentID + " by " + c.Manager + ", " + strconv.Itoa(len(c.Sigs)) + " sigs)"
}

// Receipt is a generic signed receipt used by the HTLC/Interledger-atomic
// baseline (the "certified" variant where the recipient signs receipt of
// funds) and by the certified-blockchain deal protocol.
type Receipt struct {
	PaymentID string
	Issuer    string
	Subject   string // what the receipt attests, e.g. "funds-received"
	IssuedAt  sim.Time
	Sig       Signature
}

func (r *Receipt) content() content {
	return content{kind: kindReceipt, f: [3]string{r.PaymentID, r.Issuer, r.Subject}, t: [3]sim.Time{r.IssuedAt}}
}

// NewReceipt builds and signs a receipt.
func NewReceipt(kr *Keyring, paymentID, issuer, subject string, at sim.Time) Receipt {
	r := Receipt{PaymentID: paymentID, Issuer: issuer, Subject: subject, IssuedAt: at}
	r.Sign(kr, sim.PID(kr.index(issuer)))
	return r
}

// Sign signs the receipt as it stands with the key under by, its issuer's
// PID, into Sig.
//
//xchain:hotpath
func (r *Receipt) Sign(kr *Keyring, by sim.PID) {
	c := r.content()
	r.Sig = kr.sign(by, &c)
}

// Verify checks the receipt's signature.
//
//xchain:hotpath
func (r *Receipt) Verify(kr *Keyring) bool {
	c := r.content()
	return kr.verify(r.Issuer, &c, r.Sig)
}

// Describe implements a human-readable label.
func (r Receipt) Describe() string {
	return "receipt(" + r.PaymentID + ":" + r.Subject + " by " + r.Issuer + ")"
}

// HashLock helpers used by the HTLC baseline.

// HashPreimage hashes a preimage for use as a hashlock. The hash is a value,
// so a caller that keeps it puts nothing on the heap.
func HashPreimage(preimage []byte) [32]byte {
	return sha256.Sum256(preimage)
}

// CheckPreimage reports whether preimage hashes to lock.
func CheckPreimage(lock, preimage []byte) bool {
	h := sha256.Sum256(preimage)
	return bytes.Equal(lock, h[:])
}
