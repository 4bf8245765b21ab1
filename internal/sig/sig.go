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
// Two caches keep the model's assumed crypto cheap at traffic scale: a
// process-wide key cache (key derivation is a pure function of
// (backend, seed, id), so per-payment keyrings stop paying keygen per
// participant) and, under a backend whose verification is dearer than the
// memo's own key, a per-keyring verification memo (the same chi, guarantee
// or promise re-verified at every hop costs one backend operation per
// artefact, not one per hop). Whether a keyring memoizes is a cost decision
// per backend and can never move a verdict.
package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Signature is a detached signature over a canonical payload encoding.
type Signature []byte

// String renders a short hex prefix of the signature.
func (s Signature) String() string {
	if len(s) == 0 {
		return "sig()"
	}
	return "sig(" + hex.EncodeToString(s[:8]) + "…)"
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

// memoDefaultCap bounds the verification memo of one keyring. Single-payment
// runs verify a handful of artefacts; the bound only matters for long-lived
// keyrings, where overflowing resets the memo wholesale (correctness never
// depends on residency).
const memoDefaultCap = 4096

// memoKey identifies one (signer, payload, signature) verification. Payload
// and signature enter by SHA-256 so a memo entry cannot be satisfied by a
// colliding artefact.
type memoKey struct {
	signer  string
	payload [sha256.Size]byte
	sig     [sha256.Size]byte
}

// arenaChunk is the size of one chunk of a keyring's signature arena: 128
// HMAC signatures, several payments' worth.
const arenaChunk = 4096

// sigArena is the storage fixed-size signatures are written into: one chunk
// at a time, filled front to back. A full chunk is left to the signatures in
// it (and to the garbage collector once they are gone) and a new one begun,
// so a signature never moves and a keyring that is never Reset holds on to
// nothing; rewind makes the current chunk free again.
type sigArena struct {
	chunk []byte
	free  []byte // the unused tail of chunk
}

// take returns n bytes of capacity (and zero length) nobody else holds.
func (a *sigArena) take(n int) []byte {
	if len(a.free) < n {
		a.chunk = make([]byte, arenaChunk)
		a.free = a.chunk
	}
	b := a.free[:0:n]
	a.free = a.free[n:]
	return b
}

func (a *sigArena) rewind() { a.free = a.chunk }

// Keyring maps participant IDs to key pairs under one signature backend.
//
// A keyring is confined to its protocol run's goroutine (like the run's
// sim.Engine): Sign, Verify, Add and Reset mutate the memo, the key map, the
// bound signers, the signature arena and the payload scratch without
// locking. The process-wide key cache behind Add is concurrency-safe, so any
// number of runs may build keyrings for the same (seed, id) concurrently.
//
// Lifetime rule: a Signature from Sign may live in the keyring's arena and
// is valid until the keyring's next Reset, which hands its storage out
// again. Nothing else invalidates it.
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
	// keys holds each participant's key and, bound on first use, its signer:
	// Sign and Verify find both in one probe. Reset keeps a dropped-out
	// participant's entry, not held, for its signer (bound to the key the same
	// seed derives again); only Add holds it again. held counts those held.
	keys map[string]keyEntry
	held int
	// arena is where fixed-size signatures are written (see sigArena).
	arena sigArena
	// parts caches the sorted participant list; nil means dirty
	// (recomputed on demand, invalidated by Add).
	parts []string
	// memo caches verification outcomes; nil means memoization is disabled.
	memo    map[memoKey]bool
	memoCap int
	stats   Stats
	// buf is the scratch the typed artefacts build their canonical payloads
	// in; a payload is consumed by Sign or Verify before the next is built.
	buf []byte
}

type keyEntry struct {
	key  Key
	s    signer
	held bool
}

// NewKeyring creates deterministic ed25519 keys for the given participants
// with default options (process-wide key cache and verification memo on).
// The participant order does not matter: keys depend only on (seed, id).
func NewKeyring(seed string, participants []string) *Keyring {
	return NewKeyringWith(Options{}, seed, participants)
}

// NewKeyringWith creates a keyring under the options' backend.
func NewKeyringWith(opts Options, seed string, participants []string) *Keyring {
	kr := &Keyring{
		backend:  opts.backend(),
		useCache: !opts.DisableKeyCache,
		keys:     make(map[string]keyEntry, len(participants)),
		memoCap:  opts.MemoCapacity,
	}
	if kr.memoCap == 0 {
		kr.memoCap = -1
		if kr.backend.MemoByDefault() {
			kr.memoCap = memoDefaultCap
		}
	}
	if kr.memoCap > 0 {
		kr.memo = make(map[memoKey]bool)
	}
	kr.derive(seed, participants)
	return kr
}

// derive fills an empty keyring with the participants' keys under seed, in
// sorted order.
func (kr *Keyring) derive(seed string, participants []string) {
	kr.seed, kr.mixed, kr.epoch = seed, false, keyCacheEpoch.Load()
	for _, id := range slices.Sorted(slices.Values(participants)) {
		kr.Add(seed, id)
	}
}

// Reset makes the keyring what NewKeyringWith(same options, seed,
// participants) returns — exactly these participants' keys, an empty
// verification memo, Stats counting one key derivation per participant —
// while keeping what a new keyring would only fetch again: keys already held
// for the same seed count as the key-cache hits a new keyring would score
// (unless the cache was emptied since, when a new keyring would miss and this
// one derives again), and bound signers stay bound — those of participants
// that drop out too, for the next longer chain under the same seed. Every
// signature handed out before is invalid afterwards.
func (kr *Keyring) Reset(seed string, participants []string) {
	kr.stats = Stats{}
	clear(kr.memo)
	kr.arena.rewind()
	if !kr.useCache || kr.mixed || seed != kr.seed || kr.epoch != keyCacheEpoch.Load() {
		clear(kr.keys)
		kr.held, kr.parts = 0, nil
		kr.derive(seed, participants)
		return
	}
	kept := 0
	for _, id := range participants {
		if kr.Has(id) {
			kept++
		} else {
			kr.Add(seed, id)
		}
	}
	kr.stats.KeygenHits += uint64(kept)
	globalKeygenHits.Add(uint64(kept))
	if kr.held > len(participants) {
		for id, e := range kr.keys {
			if e.held && !slices.Contains(participants, id) {
				kr.keys[id], kr.held = keyEntry{key: e.key, s: e.s}, kr.held-1
			}
		}
		kr.parts = nil
	}
}

// Backend returns the name of the keyring's signature backend.
func (kr *Keyring) Backend() string { return kr.backend.Name() }

// Add creates (or replaces) the key pair for one participant. Replacing an
// existing key resets the verification memo: outcomes memoized under the
// old key must not answer for the new one.
func (kr *Keyring) Add(seed, id string) {
	e := kr.keys[id]
	replaced := e.held
	if replaced && len(kr.memo) > 0 {
		kr.memo = make(map[memoKey]bool)
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
	kr.keys[id] = e
	kr.parts = nil
}

// Has reports whether the keyring holds a key for id.
func (kr *Keyring) Has(id string) bool { return kr.keys[id].held }

// Participants returns the sorted IDs with keys. The sorted slice is cached
// and invalidated by Add; callers must not modify it.
func (kr *Keyring) Participants() []string {
	if kr.parts == nil {
		kr.parts = make([]string, 0, kr.held)
		for id, e := range kr.keys {
			if e.held {
				kr.parts = append(kr.parts, id)
			}
		}
		sort.Strings(kr.parts)
	}
	return kr.parts
}

// signer returns the bound signer of a key the keyring holds, binding it on
// first use.
//
//xchain:hotpath
func (kr *Keyring) signer(id string) (signer, bool) {
	e := kr.keys[id]
	if !e.held {
		return nil, false
	}
	if e.s == nil {
		e.s = kr.backend.bind(e.key)
		kr.keys[id] = e
	}
	return e.s, true
}

// Sign signs payload on behalf of id. Signing for an unknown participant
// returns nil (which never verifies).
func (kr *Keyring) Sign(id string, payload []byte) Signature {
	s, ok := kr.signer(id)
	if !ok {
		return nil
	}
	return s.sign(&kr.arena, payload)
}

// Verify checks that signer produced sig over payload. A keyring with a
// memo keeps outcomes per (signer, payload-hash, sig-hash): re-verifying the
// same artefact at every hop of a chain costs one backend operation total.
// Without one every verification is a miss and pays the backend.
func (kr *Keyring) Verify(signer string, payload []byte, sig Signature) bool {
	if len(sig) == 0 {
		return false
	}
	s, ok := kr.signer(signer)
	if !ok {
		return false
	}
	if kr.memo == nil {
		kr.stats.MemoMisses++
		globalMemoMisses.Add(1)
		return s.verify(payload, sig)
	}
	mk := memoKey{signer: signer, payload: sha256.Sum256(payload), sig: sha256.Sum256(sig)}
	if v, hit := kr.memo[mk]; hit {
		kr.stats.MemoHits++
		globalMemoHits.Add(1)
		return v
	}
	kr.stats.MemoMisses++
	globalMemoMisses.Add(1)
	v := s.verify(payload, sig)
	if len(kr.memo) >= kr.memoCap {
		kr.memo = make(map[memoKey]bool)
		kr.stats.MemoEvictions++
		globalMemoEvictions.Add(1)
	}
	kr.memo[mk] = v
	return v
}

// Stats returns this keyring's cache counters (see Stats; GlobalStats
// aggregates across keyrings).
func (kr *Keyring) Stats() Stats { return kr.stats }

// A typed artefact's canonical payload is its kind followed by its fields,
// each length-prefixed so distinct field values can never collide: strings
// and byte slices as their bytes, integers and times as eight big-endian
// bytes. The payload functions below build it with typed appends into the
// keyring's scratch (payload building runs per artefact on the signing hot
// path); the result is valid until the keyring builds its next payload. They
// read the artefact in place, as do its Sign and Verify: an artefact lives in
// the message that carries it, and is signed there, not built aside and
// copied in.

func appendField(b []byte, f string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(f)))
	return append(b, f...)
}

func appendTime(b []byte, t sim.Time) []byte {
	b = binary.BigEndian.AppendUint64(b, 8)
	return binary.BigEndian.AppendUint64(b, uint64(t))
}

// PaymentCert is the certificate chi: a statement signed by Bob that Alice's
// obligation to pay him has been met (Definition 1).
type PaymentCert struct {
	PaymentID string
	Issuer    string // Bob
	Payer     string // Alice
	IssuedAt  sim.Time
	Sig       Signature
}

func (kr *Keyring) paymentCertPayload(c *PaymentCert) []byte {
	b := appendField(kr.buf[:0], "chi")
	b = appendField(b, c.PaymentID)
	b = appendField(b, c.Issuer)
	b = appendField(b, c.Payer)
	kr.buf = appendTime(b, c.IssuedAt)
	return kr.buf
}

// NewPaymentCert builds and signs chi with issuer's key.
func NewPaymentCert(kr *Keyring, paymentID, issuer, payer string, at sim.Time) PaymentCert {
	c := PaymentCert{PaymentID: paymentID, Issuer: issuer, Payer: payer, IssuedAt: at}
	c.Sign(kr)
	return c
}

// Sign signs chi as it stands with its issuer's key, into Sig.
func (c *PaymentCert) Sign(kr *Keyring) { c.Sig = kr.Sign(c.Issuer, kr.paymentCertPayload(c)) }

// Verify checks chi's signature against the expected issuer.
func (c *PaymentCert) Verify(kr *Keyring, expectedIssuer string) bool {
	if c.Issuer != expectedIssuer {
		return false
	}
	return kr.Verify(c.Issuer, kr.paymentCertPayload(c), c.Sig)
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

func (kr *Keyring) guaranteePayload(g *Guarantee) []byte {
	b := appendField(kr.buf[:0], "guarantee")
	b = appendField(b, g.PaymentID)
	b = appendField(b, g.Escrow)
	b = appendField(b, g.Customer)
	b = appendTime(b, g.D)
	kr.buf = appendTime(b, g.IssuedAt)
	return kr.buf
}

// NewGuarantee builds and signs G(d).
func NewGuarantee(kr *Keyring, paymentID, escrow, customer string, d, at sim.Time) Guarantee {
	g := Guarantee{PaymentID: paymentID, Escrow: escrow, Customer: customer, D: d, IssuedAt: at}
	g.Sign(kr)
	return g
}

// Sign signs G(d) as it stands with its escrow's key, into Sig.
func (g *Guarantee) Sign(kr *Keyring) { g.Sig = kr.Sign(g.Escrow, kr.guaranteePayload(g)) }

// Verify checks the guarantee's signature against its stated escrow.
func (g *Guarantee) Verify(kr *Keyring) bool {
	return kr.Verify(g.Escrow, kr.guaranteePayload(g), g.Sig)
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

func (kr *Keyring) promisePayload(p *Promise) []byte {
	b := appendField(kr.buf[:0], "promise")
	b = appendField(b, p.PaymentID)
	b = appendField(b, p.Escrow)
	b = appendField(b, p.Customer)
	b = appendTime(b, p.A)
	b = appendTime(b, p.Epsilon)
	kr.buf = appendTime(b, p.IssuedAt)
	return kr.buf
}

// NewPromise builds and signs P(a).
func NewPromise(kr *Keyring, paymentID, escrow, customer string, a, epsilon, at sim.Time) Promise {
	p := Promise{PaymentID: paymentID, Escrow: escrow, Customer: customer, A: a, Epsilon: epsilon, IssuedAt: at}
	p.Sign(kr)
	return p
}

// Sign signs P(a) as it stands with its escrow's key, into Sig.
func (p *Promise) Sign(kr *Keyring) { p.Sig = kr.Sign(p.Escrow, kr.promisePayload(p)) }

// Verify checks the promise's signature against its stated escrow.
func (p *Promise) Verify(kr *Keyring) bool {
	return kr.Verify(p.Escrow, kr.promisePayload(p), p.Sig)
}

// Describe implements a human-readable label.
func (p Promise) Describe() string {
	return describePromise("P(a=", p.A, p.Escrow, p.Customer)
}

// Decision enumerates transaction-manager decisions in the weak-liveness
// protocol (Definition 2).
type Decision string

// Transaction manager decisions.
const (
	DecisionCommit Decision = "commit"
	DecisionAbort  Decision = "abort"
)

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

func (kr *Keyring) decisionPayload(c *DecisionCert) []byte {
	b := appendField(kr.buf[:0], "decision")
	b = appendField(b, c.PaymentID)
	b = appendField(b, string(c.Decision))
	b = appendField(b, c.Manager)
	kr.buf = appendTime(b, c.IssuedAt)
	return kr.buf
}

// NewCommitteeDecisionCert creates a certificate carrying one signature per
// signer; quorum is the validity threshold (e.g. 2f+1 of 3f+1 notaries, or 1
// for a single manager that signs alone).
func NewCommitteeDecisionCert(kr *Keyring, paymentID string, d Decision, committee string, at sim.Time, signers []string, quorum int) DecisionCert {
	c := DecisionCert{PaymentID: paymentID, Decision: d, Manager: committee, IssuedAt: at, Quorum: quorum, Signers: slices.Clone(signers)}
	c.Sign(kr)
	return c
}

// Sign signs the certificate as it stands on behalf of every entry of
// Signers, into Sigs, whose storage it reuses: an issuer that keeps one
// certificate and rewrites it per run (internal/notary) issues without
// allocating. What Sigs held before is gone.
func (c *DecisionCert) Sign(kr *Keyring) {
	payload := kr.decisionPayload(c)
	c.Sigs = c.Sigs[:0]
	for _, s := range c.Signers {
		c.Sigs = append(c.Sigs, kr.Sign(s, payload))
	}
}

// Verify checks that the certificate carries at least Quorum valid
// signatures from distinct signers.
func (c *DecisionCert) Verify(kr *Keyring) bool {
	if len(c.Signers) != len(c.Sigs) || c.Quorum <= 0 {
		return false
	}
	payload := kr.decisionPayload(c)
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
		ok := !dup && kr.Verify(s, payload, c.Sigs[i])
		verified = append(verified, ok)
		if ok {
			valid++
		}
	}
	return valid >= c.Quorum
}

// Describe implements a human-readable label.
func (c DecisionCert) Describe() string {
	return string(c.Decision) + "-cert(" + c.PaymentID + " by " + c.Manager + ", " + strconv.Itoa(len(c.Sigs)) + " sigs)"
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

func (kr *Keyring) receiptPayload(r *Receipt) []byte {
	b := appendField(kr.buf[:0], "receipt")
	b = appendField(b, r.PaymentID)
	b = appendField(b, r.Issuer)
	b = appendField(b, r.Subject)
	kr.buf = appendTime(b, r.IssuedAt)
	return kr.buf
}

// NewReceipt builds and signs a receipt.
func NewReceipt(kr *Keyring, paymentID, issuer, subject string, at sim.Time) Receipt {
	r := Receipt{PaymentID: paymentID, Issuer: issuer, Subject: subject, IssuedAt: at}
	r.Sig = kr.Sign(issuer, kr.receiptPayload(&r))
	return r
}

// Verify checks the receipt's signature.
func (r *Receipt) Verify(kr *Keyring) bool {
	return kr.Verify(r.Issuer, kr.receiptPayload(r), r.Sig)
}

// Describe implements a human-readable label.
func (r Receipt) Describe() string {
	return "receipt(" + r.PaymentID + ":" + r.Subject + " by " + r.Issuer + ")"
}

// HashLock helpers used by the HTLC baseline.

// HashPreimage hashes a preimage for use as a hashlock.
func HashPreimage(preimage []byte) []byte {
	h := sha256.Sum256(preimage)
	return h[:]
}

// CheckPreimage reports whether preimage hashes to lock.
func CheckPreimage(lock, preimage []byte) bool {
	h := sha256.Sum256(preimage)
	return bytes.Equal(lock, h[:])
}
