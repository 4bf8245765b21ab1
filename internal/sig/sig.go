// Package sig provides the authentication layer of the classic Byzantine
// model with authentication assumed by the paper.
//
// It offers deterministic keyrings (one key per participant, each derived
// under the keyring's one key seed) over pluggable signature backends (see
// backend.go: real ed25519 by default, or derived-key HMAC-SHA256 for runs
// where crypto must stay off the hot path), typed signed artefacts — the
// payment certificate chi signed by Bob, the escrow promises G(d) and P(a),
// and the commit/abort certificates issued by the transaction manager of the
// weak-liveness protocol — each signed in place by its signer's PID, and
// verification helpers. Byzantine participants may refuse to sign or replay
// artefacts, but cannot forge signatures of correct participants.
//
// Two mechanisms keep the model's assumed crypto cheap at traffic scale: keys
// derived only when first read, through a process-wide key cache (key
// derivation is a pure function of (backend, seed, id)), and signatures kept
// as the records of the ideal signature functionality F_SIG (Canetti, CSFW
// 2004). Sign records a term — this signer signed this message — and hands
// out a handle on it; the bit string is rendered by the backend only when
// something reads it. A typed artefact's Sign writes its kind and fields
// into the term, and their canonical encoding is rendered only for the
// backend. Verifying a term the keyring recorded since its last Reset is a
// comparison of signer, then kind, then fields, each where it stands, with
// nothing built or copied; only anything else — a forgery, a tampered or
// re-kinded artefact, another keyring's signature — builds the artefact's
// content, is rendered and paid to the backend, and only then is a key
// derived: a run that renders nothing and misses no verification reads no
// key. Every backend signs deterministically and accepts every
// signature it produces, so a late rendering is the bytes Sign would have
// produced and the comparison answers what the backend would: neither
// mechanism can move a verdict.
package sig

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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

// term is what Sign records: kr signed c for signer, whose entry is
// kr.keys[key]. rendered is nil until read; a Raw term has nothing else.
type term struct {
	kr       *Keyring
	signer   string
	key      int32
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
	if t == nil || t.kr != nil && s.gen != t.kr.gen {
		return nil
	}
	if t.rendered == nil && t.kr != nil {
		s := t.kr.read(t.key).s
		t.kr.buf = t.c.render(t.kr.buf[:0])
		b := s.sign(t.kr.buf)
		t.rendered = t.kr.arena.take(len(b), arenaChunk)
		copy(t.rendered, b)
		t.kr.stats.Rendered++
		t.kr.stripe.rendered.Add(1)
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

// Keyring maps participant IDs to key pairs under one signature backend and
// one key seed.
//
// A keyring is confined to its protocol run's goroutine (like the run's
// sim.Engine): Sign, Verify, Hold and Reset mutate the terms, the key map, the
// bound signers, the arena and the rendering scratch without locking, and so
// do the Bytes and String of a Signature it signed, which render into its
// arena. The process-wide key cache a key is read through is
// concurrency-safe, so any number of runs may read keys of the same
// (seed, id) concurrently.
//
// A keyring holds names; a key is derived, through the process-wide key
// cache, only when a signature is rendered or a verification misses the
// record: a run that does neither derives no key.
//
// Lifetime rule: a Signature from Sign is valid until the keyring's next
// Reset, which hands its term and its storage out again; afterwards it is
// stale. Nothing else invalidates it.
type Keyring struct {
	backend Backend
	// seed is what every key is derived under, and epoch the key-cache
	// epoch of the Reset that last emptied the entries: Reset keeps them
	// only for the same seed in the same epoch.
	seed  string
	epoch uint64
	// keys holds one entry per name the keyring has held under its seed:
	// the key and its signer once read. An entry never moves while the seed
	// stays, so a participant that drops out at a Reset keeps its signer
	// (bound to the key the same seed derives again) until a later Reset or
	// Hold names it again. byName finds a name's entry.
	keys   []keyEntry
	byName map[string]int32
	// pids maps a PID to the entry it holds, -1 for none: SignAs finds a
	// participant's entry by index. An entry is held under one PID at most,
	// its keyEntry.pid.
	pids []int32
	// arena holds the raw payloads signed and the signatures rendered, terms
	// the terms Sign records.
	arena arena[byte]
	terms arena[term]
	// gen is the keyring's generation, moved on by Reset: a handle from an
	// earlier one is stale.
	gen uint64
	// record is false when every verification must pay the backend.
	record bool
	stats  Stats
	// stripe is the keyring's share of the process-wide counters: every
	// count stats takes is added there too.
	stripe *stripe
	// buf is the scratch render builds canonical encodings in, for the
	// backend or a raw Verify; each is consumed before the next is built.
	buf []byte
}

type keyEntry struct {
	id  string
	key Key
	s   signer
	pid int32  // the PID holding the entry, -1 if none
	gen uint64 // the generation the key was last read in
}

// NewKeyringWith creates a keyring under the options' backend holding the
// participants under seed, participants[i] under PID i.
func NewKeyringWith(opts Options, seed string, participants []string) *Keyring {
	kr := &Keyring{
		backend: opts.backend(),
		keys:    make([]keyEntry, 0, len(participants)),
		byName:  make(map[string]int32, len(participants)),
		pids:    make([]int32, 0, len(participants)),
		record:  opts.MemoCapacity >= 0,
		stripe:  takeStripe(),
	}
	kr.Reset(seed, participants)
	return kr
}

// Reset makes the keyring what NewKeyringWith(same options, seed,
// participants) returns — exactly these participants, no term that answers a
// verification, zeroed Stats — while keeping, under the same seed and
// key-cache epoch, the keys and bound signers it read, those of participants
// that drop out too, for the next longer chain (see read for how they
// count). Every signature handed out before is stale afterwards.
func (kr *Keyring) Reset(seed string, participants []string) {
	kr.stats = Stats{}
	kr.gen++
	kr.arena.rewind()
	kr.terms.rewind()
	if epoch := keyCacheEpoch.Load(); seed != kr.seed || kr.epoch != epoch {
		clear(kr.keys)
		kr.keys = kr.keys[:0]
		clear(kr.byName)
		kr.pids = kr.pids[:0]
		kr.seed, kr.epoch = seed, epoch
	}
	for i := len(participants); i < len(kr.pids); i++ {
		kr.unhold(i)
	}
	kr.pids = kr.pids[:min(len(kr.pids), len(participants))]
	for i, id := range participants {
		kr.place(i, id)
	}
}

// place makes PID i hold the entry named id — the one the keyring has, or a
// new one without a key. The entry that PID i held before, and the PID that
// held id's entry, hold nothing afterwards.
func (kr *Keyring) place(i int, id string) {
	for len(kr.pids) <= i {
		kr.pids = append(kr.pids, -1)
	}
	if j := kr.pids[i]; j >= 0 && kr.keys[j].id == id {
		return
	}
	kr.unhold(i)
	j, ok := kr.byName[id]
	if !ok {
		j = int32(len(kr.keys))
		kr.keys = append(kr.keys, keyEntry{id: id, pid: -1})
		kr.byName[id] = j
	}
	e := &kr.keys[j]
	if e.pid >= 0 {
		kr.pids[e.pid] = -1
	}
	e.pid, kr.pids[i] = int32(i), j
}

// unhold makes PID i hold nothing.
func (kr *Keyring) unhold(i int) {
	if j := kr.pids[i]; j >= 0 {
		kr.keys[j].pid, kr.pids[i] = -1, -1
	}
}

// index returns the PID under which the keyring holds id, or -1: the way in
// for the name-addressed operations, never for a run's signing.
func (kr *Keyring) index(id string) int {
	if j, ok := kr.byName[id]; ok {
		return int(kr.keys[j].pid)
	}
	return -1
}

// Hold holds participant id under pid, moving id's entry there if it stands
// elsewhere, with its key and signer if it has them; it derives no key.
func (kr *Keyring) Hold(pid sim.PID, id string) { kr.place(int(pid), id) }

// Holds reports whether the keyring holds id under pid.
func (kr *Keyring) Holds(pid sim.PID, id string) bool {
	j := kr.entry(int(pid))
	return j >= 0 && kr.keys[j].id == id
}

// entry returns the index of the entry the keyring holds under pid, -1 if
// none.
//
//xchain:hotpath
func (kr *Keyring) entry(pid int) int32 {
	if uint(pid) >= uint(len(kr.pids)) {
		return -1
	}
	return kr.pids[pid]
}

// read returns entry j with its key read and its signer bound. Its first
// read in a generation counts: the entry's own key, as the cache hit a new
// keyring would score if the cache kept the entries' epoch, else the cache's.
func (kr *Keyring) read(j int32) *keyEntry {
	e := &kr.keys[j]
	if e.gen != kr.gen {
		e.gen = kr.gen
		hit := e.key.pub != nil && kr.epoch == keyCacheEpoch.Load()
		if !hit {
			e.key, hit = cachedKey(kr.backend, kr.seed, e.id)
		}
		if hit {
			kr.stats.KeygenHits++
			kr.stripe.keygenHits.Add(1)
		} else {
			kr.stats.KeygenMisses++
			kr.stripe.keygenMisses.Add(1)
		}
	}
	if e.s == nil {
		e.s = kr.backend.bind(e.key)
	}
	return e
}

// SignAs records that the participant under pid signed payload and returns
// the handle on that term; no key is read and no backend runs until
// something reads its bytes. Signing for a PID the keyring does not hold
// returns the zero Signature (which never verifies).
//
//xchain:hotpath
func (kr *Keyring) SignAs(pid sim.PID, payload []byte) Signature {
	sig := kr.sign(pid)
	if sig.t != nil {
		// The term holds its copy of the payload, in the arena it is
		// recorded with.
		b := kr.arena.take(len(payload), arenaChunk)
		copy(b, payload)
		sig.t.set(kindRaw, unsafe.String(unsafe.SliceData(b), len(b)), "", "", 0, 0, 0)
	}
	return sig
}

// Sign is SignAs for the participant named id.
func (kr *Keyring) Sign(id string, payload []byte) Signature {
	return kr.SignAs(sim.PID(kr.index(id)), payload)
}

// sign records that the participant under pid signed something, which the
// caller writes into the term (term.set): the zero Signature, with no term,
// for a PID the keyring does not hold.
//
//xchain:hotpath
func (kr *Keyring) sign(pid sim.PID) Signature {
	j := kr.entry(int(pid))
	if j < 0 {
		return Signature{}
	}
	t := &kr.terms.take(1, termChunk)[0]
	t.kr, t.signer, t.key, t.rendered = kr, kr.keys[j].id, j, nil
	return Signature{t: t, gen: kr.gen}
}

// set writes into t, if there is one, what it records as signed: kind k with
// fields f0, f1, f2 and times t0, t1, t2, in place.
func (t *term) set(k kind, f0, f1, f2 string, t0, t1, t2 sim.Time) {
	if t != nil {
		t.c.kind = k
		t.c.f[0], t.c.f[1], t.c.f[2] = f0, f1, f2
		t.c.t[0], t.c.t[1], t.c.t[2] = t0, t1, t2
	}
}

// is reports whether t, if there is one, records kind k with fields f0, f1,
// f2 and times t0, t1, t2: kind first, then each field, compared in place.
func (t *term) is(k kind, f0, f1, f2 string, t0, t1, t2 sim.Time) bool {
	return t != nil && t.c.kind == k && t.c.f[0] == f0 && t.c.f[1] == f1 && t.c.f[2] == f2 &&
		t.c.t[0] == t0 && t.c.t[1] == t1 && t.c.t[2] == t2
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
			return kr.hit()
		}
	}
	return kr.miss(signer, payload, content{}, sig)
}

// hit counts a verification answered from the record, true.
//
//xchain:hotpath
func (kr *Keyring) hit() bool {
	kr.stats.MemoHits++
	kr.stripe.memoHits.Add(1)
	return true
}

// miss answers a verification the record did not: the backend checks sig's
// bytes under signer's key, over payload or, for a typed artefact, over c's
// canonical encoding.
func (kr *Keyring) miss(signer string, payload []byte, c content, sig Signature) bool {
	if sig.t == nil {
		return false
	}
	j := kr.entry(kr.index(signer))
	if j < 0 {
		return false
	}
	b := sig.Bytes()
	if len(b) == 0 {
		return false
	}
	e := kr.read(j)
	if c.kind != kindRaw {
		// After the bytes, which may have been rendered in the same scratch.
		kr.buf = c.render(kr.buf[:0])
		payload = kr.buf
	}
	kr.stats.MemoMisses++
	kr.stripe.memoMisses.Add(1)
	return e.s.verify(payload, b)
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
// it: its Sign writes its kind and fields into the term, and its Verify
// compares them with the term's, kind first, where they stand. Only a
// verification the record does not answer builds its content, for the
// backend.

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

// Sign signs chi as it stands with the key under by, its issuer's PID, into
// Sig.
//
//xchain:hotpath
func (c *PaymentCert) Sign(kr *Keyring, by sim.PID) {
	c.Sig = kr.sign(by)
	c.Sig.t.set(kindChi, c.PaymentID, c.Issuer, c.Payer, c.IssuedAt, 0, 0)
}

// Verify checks chi's signature against the expected issuer.
//
//xchain:hotpath
func (c *PaymentCert) Verify(kr *Keyring, expectedIssuer string) bool {
	if c.Issuer != expectedIssuer {
		return false
	}
	if kr.recorded(c.Issuer, c.Sig).is(kindChi, c.PaymentID, c.Issuer, c.Payer, c.IssuedAt, 0, 0) {
		return kr.hit()
	}
	return kr.miss(c.Issuer, nil, c.content(), c.Sig)
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

// Sign signs G(d) as it stands with the key under by, its escrow's PID, into
// Sig.
//
//xchain:hotpath
func (g *Guarantee) Sign(kr *Keyring, by sim.PID) {
	g.Sig = kr.sign(by)
	g.Sig.t.set(kindGuarantee, g.PaymentID, g.Escrow, g.Customer, g.D, g.IssuedAt, 0)
}

// Verify checks the guarantee's signature against its stated escrow.
//
//xchain:hotpath
func (g *Guarantee) Verify(kr *Keyring) bool {
	if kr.recorded(g.Escrow, g.Sig).is(kindGuarantee, g.PaymentID, g.Escrow, g.Customer, g.D, g.IssuedAt, 0) {
		return kr.hit()
	}
	return kr.miss(g.Escrow, nil, g.content(), g.Sig)
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

// Sign signs P(a) as it stands with the key under by, its escrow's PID, into
// Sig.
//
//xchain:hotpath
func (p *Promise) Sign(kr *Keyring, by sim.PID) {
	p.Sig = kr.sign(by)
	p.Sig.t.set(kindPromise, p.PaymentID, p.Escrow, p.Customer, p.A, p.Epsilon, p.IssuedAt)
}

// Verify checks the promise's signature against its stated escrow.
//
//xchain:hotpath
func (p *Promise) Verify(kr *Keyring) bool {
	if kr.recorded(p.Escrow, p.Sig).is(kindPromise, p.PaymentID, p.Escrow, p.Customer, p.A, p.Epsilon, p.IssuedAt) {
		return kr.hit()
	}
	return kr.miss(p.Escrow, nil, p.content(), p.Sig)
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

// Sign signs the certificate as it stands on behalf of every entry of
// Signers, by[i] being Signers[i]'s PID, into Sigs, whose storage it reuses:
// an issuer that keeps one certificate and rewrites it per run
// (internal/notary) issues without allocating. What Sigs held before is gone.
//
//xchain:hotpath
func (c *DecisionCert) Sign(kr *Keyring, by []sim.PID) {
	d := c.Decision.String()
	c.Sigs = c.Sigs[:0]
	for _, pid := range by {
		s := kr.sign(pid)
		s.t.set(kindDecision, c.PaymentID, d, c.Manager, c.IssuedAt, 0, 0)
		c.Sigs = append(c.Sigs, s)
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
	d := c.Decision.String()
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
		ok := !dup && c.verifyOne(kr, d, s, c.Sigs[i])
		verified = append(verified, ok)
		if ok {
			valid++
		}
	}
	return valid >= c.Quorum
}

// verifyOne checks that signer signed the certificate, whose decision reads
// d, in sig.
//
//xchain:hotpath
func (c *DecisionCert) verifyOne(kr *Keyring, d, signer string, sig Signature) bool {
	if kr.recorded(signer, sig).is(kindDecision, c.PaymentID, d, c.Manager, c.IssuedAt, 0, 0) {
		return kr.hit()
	}
	return kr.miss(signer, nil, c.content(), sig)
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

// Sign signs the receipt as it stands with the key under by, its issuer's
// PID, into Sig.
//
//xchain:hotpath
func (r *Receipt) Sign(kr *Keyring, by sim.PID) {
	r.Sig = kr.sign(by)
	r.Sig.t.set(kindReceipt, r.PaymentID, r.Issuer, r.Subject, r.IssuedAt, 0, 0)
}

// Verify checks the receipt's signature.
//
//xchain:hotpath
func (r *Receipt) Verify(kr *Keyring) bool {
	if kr.recorded(r.Issuer, r.Sig).is(kindReceipt, r.PaymentID, r.Issuer, r.Subject, r.IssuedAt, 0, 0) {
		return kr.hit()
	}
	return kr.miss(r.Issuer, nil, r.content(), r.Sig)
}

// Describe implements a human-readable label.
func (r Receipt) Describe() string {
	return "receipt(" + r.PaymentID + ":" + r.Subject + " by " + r.Issuer + ")"
}
