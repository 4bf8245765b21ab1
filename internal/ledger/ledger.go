// Package ledger implements the escrow substrate: per-escrow asset ledgers
// with accounts, escrow locks and conditional release.
//
// In the paper an escrow is "a bank or a blockchain smart contract" that can
// handle value for other parties in a predefined manner: two customers of the
// same escrow can place value "in escrow" and, after a predefined period and
// depending on which conditions are met, either complete the transfer or
// return the value. This package provides exactly that mechanism, plus the
// hashed-timelock conditions needed by the HTLC baseline and conservation
// auditing used by the Escrow-security checker.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"unsafe"

	"repro/internal/sim"
)

// Errors returned by ledger operations.
var (
	ErrNoAccount         = errors.New("ledger: account does not exist")
	ErrInsufficientFunds = errors.New("ledger: insufficient funds")
	ErrNoSuchLock        = errors.New("ledger: escrow lock does not exist")
	ErrLockSettled       = errors.New("ledger: escrow lock already settled")
	ErrBadAmount         = errors.New("ledger: amount must be positive")
	ErrBadPreimage       = errors.New("ledger: preimage does not match hashlock")
	ErrNotExpired        = errors.New("ledger: timelock has not expired")
	ErrExpired           = errors.New("ledger: timelock has expired")
	ErrDuplicateLock     = errors.New("ledger: duplicate lock id")
	ErrDuplicateAccount  = errors.New("ledger: duplicate account")
	ErrHoldNotCompact    = errors.New("ledger: held locks need a compacting ledger")
)

// settledError is the refusal to release or refund a lock that is no longer
// pending. It is ErrLockSettled to errors.Is, and renders the lock's ID only
// when read: the protocols discard it.
type settledError struct {
	lock  lockName
	state LockState
}

func (e *settledError) Error() string {
	return ErrLockSettled.Error() + ": " + e.lock.id() + " is " + string(e.state)
}

func (e *settledError) Unwrap() error { return ErrLockSettled }

// LockState describes the lifecycle of an escrow lock.
type LockState string

// Lock states.
const (
	LockPending  LockState = "pending"
	LockReleased LockState = "released"
	LockRefunded LockState = "refunded"
)

// Condition optionally restricts how a lock may be released.
//
// A zero Condition means the escrow itself decides (the paper's model, where
// release is governed by the escrow's protocol behaviour). A HashLock
// requires a matching preimage; an Expiry allows refund only after the given
// ledger-local time (HTLC semantics used by the baseline).
type Condition struct {
	// HashLock, if non-empty, requires a preimage hashing to this value for
	// release.
	HashLock []byte
	// Expiry, if non-zero, is the local time after which the payer may
	// reclaim the funds and before which release must happen.
	Expiry sim.Time
}

// HashPreimage hashes a preimage for use as a HashLock. The hash is a value,
// so a caller that keeps it puts nothing on the heap.
func HashPreimage(preimage []byte) [32]byte {
	return sha256.Sum256(preimage)
}

// CheckPreimage reports whether preimage hashes to lock.
func CheckPreimage(lock, preimage []byte) bool {
	h := sha256.Sum256(preimage)
	return bytes.Equal(lock, h[:])
}

// Lock is value held in escrow between two customers of this ledger, as a
// read renders it (Lock, Locks, LockOf): the ledger keeps the
// participants as PIDs and a keyed lock's ID as its label and key.
type Lock struct {
	ID        string
	Payer     string
	Payee     string
	Amount    int64
	CreatedAt sim.Time
	Cond      Condition
	State     LockState
	SettledAt sim.Time
}

// lockStates are the states a record's state indexes.
var lockStates = [...]LockState{LockPending, LockReleased, LockRefunded}

// Record states: indices into lockStates.
const (
	statePending uint8 = iota
	stateReleased
	stateRefunded
)

// lockRec is a ledger's record of one lock. prev and next link the locks a
// ledger holds into the list every walk over them follows, from Ledger.head;
// next alone links the records it keeps for reuse (Ledger.free). gen counts
// the times the record left the held list, so that a Handle taken before
// tells it is stale.
type lockRec struct {
	// label, key and form are the lock's name (see lockName), kept flat so
	// that form packs beside state.
	label     string
	key       uint64
	amount    int64
	createdAt sim.Time
	settledAt sim.Time
	cond      Condition
	payer     sim.PID
	payee     sim.PID
	gen       uint32
	state     uint8
	form      uint8
	prev      *lockRec
	next      *lockRec
}

// lockName is a lock's ID as the ledger keeps it, for a lock record and for
// the log entries of its operations: the ID itself (formID), or a keyed
// lock's label and key, whose ID is rendered only when read.
type lockName struct {
	label string
	key   uint64
	form  uint8
}

// Lock ID forms: how a keyed lock's ID is rendered from its label and key.
const (
	formID  uint8 = iota // the label is the ID
	formHop              // label/e<key>: a payment's lock on escrow e_key
)

// id renders the lock ID.
func (n lockName) id() string {
	if n.form == formHop {
		return n.label + "/e" + strconv.FormatUint(n.key, 10)
	}
	return n.label
}

// name returns the record's lock name.
func (r *lockRec) name() lockName { return lockName{r.label, r.key, r.form} }

// id renders the record's lock ID.
func (r *lockRec) id() string { return r.name().id() }

// Handle addresses a lock on the ledger that holds it. The Escrow family
// returns one, and ReleaseLock and RefundLock settle the lock through it
// without looking up its ID. A handle goes stale when its lock leaves the
// ledger, that is when compaction forgets it or Reset drops it; a stale handle
// settles nothing. The zero Handle addresses no lock.
type Handle struct {
	rec *lockRec
	gen uint32
}

// holdings tallies a ledger's held locks: how many are pending, and their
// value by payer PID.
type holdings struct {
	n  int
	by []int64
}

// account is one owner's account, keyed by the owner's PID.
type account struct {
	pid     sim.PID
	balance int64 // available, excluding escrowed funds
}

// OpKind enumerates ledger operations for the audit log.
type OpKind string

// Ledger operation kinds.
const (
	OpMint    OpKind = "mint"
	OpLock    OpKind = "lock"
	OpRelease OpKind = "release"
	OpRefund  OpKind = "refund"
)

// Op is one entry of the ledger's operation log. A lock operation's entry
// keeps the lock's name and renders its ID when read (LockID).
type Op struct {
	Seq    int
	At     sim.Time
	Kind   OpKind
	From   string
	To     string
	Amount int64
	lock   lockName
}

// LockID renders the ID of the lock the operation moved value into or out
// of, "" for a mint or a transfer.
func (o *Op) LockID() string { return o.lock.id() }

// opJSON is an Op as it is serialised, its lock ID rendered.
type opJSON struct {
	Seq    int
	At     sim.Time
	Kind   OpKind
	From   string
	To     string
	Amount int64
	LockID string
}

// MarshalJSON serialises the entry with its lock ID rendered.
func (o Op) MarshalJSON() ([]byte, error) {
	return json.Marshal(opJSON{o.Seq, o.At, o.Kind, o.From, o.To, o.Amount, o.LockID()})
}

// UnmarshalJSON reads an entry MarshalJSON wrote; its lock ID reads back as
// it was rendered.
func (o *Op) UnmarshalJSON(b []byte) error {
	var j opJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*o = Op{Seq: j.Seq, At: j.At, Kind: j.Kind, From: j.From, To: j.To, Amount: j.Amount, lock: lockName{label: j.LockID}}
	return nil
}

// Ledger is a single escrow's book: accounts, escrow locks and an operation
// log. All amounts are integer value units of a single asset; cross-currency
// concerns are, as the paper notes, orthogonal to the protocol and handled by
// the payment specification choosing per-hop amounts.
type Ledger struct {
	name string
	// names is the participant table the owners' PIDs index (see
	// SetParticipants); a name is only rendered, never compared, by the
	// PID-keyed operations. own is the table's storage when the ledger keeps
	// its own (PID's additions), and owned says names is in it.
	names []string
	own   []string
	owned bool
	// compact is SetCompact's.
	compact bool
	// accounts are in creation order (capture order after FromState): three
	// on a payment ledger, one per party on a deal chain — few enough that a
	// scan over their PIDs finds an owner before anything could be hashed.
	accounts []account
	// The held list is the only index of the locks: the ID-addressed
	// operations scan it (a deal's ledger holds a few), and the protocols'
	// locks are settled through their Handles. The traffic timeline's
	// thousands are held (Hold) and have no record.
	held int      // locks on the held list
	head lockRec  // the held list's sentinel: head.next is the most recent lock held
	free *lockRec // records of locks dropped by Reset or forgotten under compaction, for Escrow to reuse
	// holding tallies the pending locks the ledger keeps no record of
	// (Hold), made with the first.
	holding *holdings
	// made counts the records the ledger has made; past recordsAlone of them
	// it makes them recordBlock at a time, what is left of the block in block.
	made  int
	block []lockRec

	ops     []Op
	opCount int
	minted  int64
	settled int // settled locks forgotten under compaction

	// byz marks, by PID, the owners currently controlled by Byzantine
	// parties (see SetByzantine); byzEscrowed is the running total of value
	// held in pending locks whose payer is marked — lock-and-abandon griefing
	// made observable. Updated in O(1) per lock operation.
	byz         []bool
	byzEscrowed int64

	// m holds optional instrumentation hooks (see SetMetrics); the zero
	// value is muted and every update is an inlined nil no-op.
	m Metrics
}

// New creates an empty ledger named name (normally the escrow's ID).
func New(name string) *Ledger {
	return &Ledger{name: name}
}

// Reset returns the ledger to the state New(name) builds — no accounts, no
// locks, an empty participant table and log, zeroed totals, compaction off,
// muted metrics — keeping its accounts', lock records' and log's storage.
// Log entries handed out before the Reset must no longer be used, and every
// Handle goes stale.
func (l *Ledger) Reset(name string) {
	l.name = name
	l.names, l.owned = l.own[:0], true
	l.accounts = l.accounts[:0]
	for lk := l.head.next; lk != nil; lk = l.head.next {
		lk.gen++
		l.head.next, lk.next, l.free = lk.next, l.free, lk
	}
	clear(l.byz)
	if h := l.holding; h != nil {
		clear(h.by)
		h.n = 0
	}
	l.held = 0
	l.ops = l.ops[:0]
	l.opCount, l.minted, l.settled, l.byzEscrowed = 0, 0, 0, 0
	l.compact = false
	l.m = Metrics{}
}

// Name returns the ledger's name.
func (l *Ledger) Name() string { return l.name }

// SetCompact toggles compaction: when on, settled (released or refunded)
// locks are forgotten immediately and operations are counted but not
// retained in the log, so the ledger's memory is proportional to its
// accounts plus *pending* locks rather than to its full history. Audit,
// Balance, PendingLocks, EscrowedTotal and OpCount are unaffected —
// conservation of value is checked against balances and pending escrow,
// neither of which compaction touches. Long-running traffic ledgers enable
// this; single-payment protocol runs keep the full history for the
// property checkers and traces.
//
// A compacting ledger recycles a forgotten lock's record for a later
// Escrow; the forgotten lock's Handle goes stale first, so it never
// addresses the record's next lock.
func (l *Ledger) SetCompact(on bool) { l.compact = on }

// Compact reports whether compaction is enabled.
func (l *Ledger) Compact() bool { return l.compact }

// SettledForgotten returns the number of settled locks dropped under
// compaction.
func (l *Ledger) SettledForgotten() int { return l.settled }

// SetParticipants makes names the table the owners' PIDs index: PID i is
// names[i]. The ledger reads names without copying it and never writes to it
// (PID's additions go to a copy); the caller must not change what a PID
// names while the ledger holds its account.
func (l *Ledger) SetParticipants(names []string) {
	l.names, l.owned = names, false
}

// PID returns name's PID, adding name to the participant table if the table
// does not hold it yet. It scans the table: the way in for the name-addressed
// operations, never for a run's.
func (l *Ledger) PID(name string) sim.PID {
	for i, nm := range l.names {
		if nm == name {
			return sim.PID(i)
		}
	}
	if !l.owned {
		l.names, l.owned = append(l.own[:0], l.names...), true
	}
	l.names = append(l.names, name)
	l.own = l.names
	return sim.PID(len(l.names) - 1)
}

// growByz makes byz long enough to mark pid.
func (l *Ledger) growByz(pid sim.PID) {
	if int(pid) >= len(l.byz) {
		l.byz = append(l.byz, make([]bool, int(pid)+1-len(l.byz))...)
	}
}

// byzantine reports whether pid is marked Byzantine.
//
//xchain:hotpath
func (l *Ledger) byzantine(pid sim.PID) bool {
	return uint(pid) < uint(len(l.byz)) && l.byz[pid]
}

// owner renders pid's name from the participant table.
//
//xchain:hotpath
func (l *Ledger) owner(pid sim.PID) string {
	if uint(pid) < uint(len(l.names)) {
		return l.names[pid]
	}
	return ""
}

// find returns the index of pid's account, or -1.
//
//xchain:hotpath
func (l *Ledger) find(pid sim.PID) int {
	for i := range l.accounts {
		if l.accounts[i].pid == pid {
			return i
		}
	}
	return -1
}

// credit adds amount to pid's balance, opening the account if needed.
//
//xchain:hotpath
func (l *Ledger) credit(pid sim.PID, amount int64) {
	if i := l.find(pid); i >= 0 {
		l.accounts[i].balance += amount
		return
	}
	l.accounts = append(l.accounts, account{pid: pid, balance: amount})
}

// OpenAccount registers an account with a zero balance for participant pid.
func (l *Ledger) OpenAccount(pid sim.PID) error {
	if l.HasAccount(pid) {
		return fmt.Errorf("%w: %s", ErrDuplicateAccount, l.owner(pid))
	}
	l.accounts = append(l.accounts, account{pid: pid})
	return nil
}

// CreateAccount is OpenAccount for the participant named owner.
func (l *Ledger) CreateAccount(owner string) error { return l.OpenAccount(l.PID(owner)) }

// HasAccount reports whether pid holds an account.
func (l *Ledger) HasAccount(pid sim.PID) bool { return l.find(pid) >= 0 }

// Accounts returns the sorted account owners.
func (l *Ledger) Accounts() []string {
	out := make([]string, 0, len(l.accounts))
	for _, a := range l.accounts {
		out = append(out, l.owner(a.pid))
	}
	sort.Strings(out)
	return out
}

// Balance returns pid's available balance (excluding escrowed funds).
//
//xchain:hotpath
func (l *Ledger) Balance(pid sim.PID) int64 {
	if i := l.find(pid); i >= 0 {
		return l.accounts[i].balance
	}
	return 0
}

// Deposit credits pid with newly created value (initial endowments in
// scenarios). It creates the account if needed.
func (l *Ledger) Deposit(at sim.Time, pid sim.PID, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	l.credit(pid, amount)
	l.minted += amount
	l.m.Available.Add(float64(amount))
	l.log(at, OpMint, "", l.owner(pid), amount, lockName{})
	return nil
}

// Mint is Deposit for the participant named owner.
func (l *Ledger) Mint(at sim.Time, owner string, amount int64) error {
	return l.Deposit(at, l.PID(owner), amount)
}

// Escrow moves amount from payer's account into escrow under id, payable to
// payee, and returns the lock's handle. The ID must be new to the ledger
// (ErrDuplicateLock): the held list is scanned for it.
//
//xchain:hotpath
func (l *Ledger) Escrow(at sim.Time, id string, payer, payee sim.PID, amount int64, cond Condition) (Handle, error) {
	if amount <= 0 {
		return Handle{}, ErrBadAmount
	}
	if l.lookup(id) != nil {
		return Handle{}, fmt.Errorf("%w: %s", ErrDuplicateLock, id)
	}
	return l.escrow(at, lockName{label: id}, payer, payee, amount, cond)
}

// EscrowHop is Escrow for the lock with ID label/e<hop>: payment label's
// lock on escrow e_hop of its chain, the one lock a protocol run's escrow
// holds. The ID is rendered only when the lock is read, and not looked up:
// the caller keeps its labels and hops unique among the locks the ledger
// holds, and settles the lock through the returned handle.
//
//xchain:hotpath
func (l *Ledger) EscrowHop(at sim.Time, label string, hop int, payer, payee sim.PID, amount int64, cond Condition) (Handle, error) {
	if amount <= 0 {
		return Handle{}, ErrBadAmount
	}
	return l.escrow(at, lockName{label, uint64(hop), formHop}, payer, payee, amount, cond)
}

// escrow is the Escrow family's common tail: amount and ID passed.
//
//xchain:hotpath
func (l *Ledger) escrow(at sim.Time, name lockName, payer, payee sim.PID, amount int64, cond Condition) (Handle, error) {
	if err := l.reserve(payer, payee, amount); err != nil {
		return Handle{}, err
	}
	lk := l.newRec()
	// Written field by field: the record is the ledger's, and a composite
	// literal would be built aside and copied over it.
	lk.label, lk.key, lk.form, lk.amount = name.label, name.key, name.form, amount
	lk.payer, lk.payee = payer, payee
	lk.createdAt, lk.cond, lk.state, lk.settledAt = at, cond, statePending, 0
	l.hold(lk)
	l.logLock(at, OpLock, lk, payee)
	return Handle{rec: lk, gen: lk.gen}, nil
}

// reserve moves amount (positive) from payer's account into escrow, payable
// to payee: the value half of a new lock, recorded (escrow) or held (Hold).
//
//xchain:hotpath
func (l *Ledger) reserve(payer, payee sim.PID, amount int64) error {
	p := l.find(payer)
	if p < 0 {
		return fmt.Errorf("%w: %s on %s", ErrNoAccount, l.owner(payer), l.name)
	}
	if !l.HasAccount(payee) {
		return fmt.Errorf("%w: %s on %s", ErrNoAccount, l.owner(payee), l.name)
	}
	if l.accounts[p].balance < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, l.owner(payer), l.accounts[p].balance, amount)
	}
	l.accounts[p].balance -= amount
	l.m.LocksCreated.Inc()
	l.m.Available.Add(-float64(amount))
	l.m.Escrowed.Add(float64(amount))
	if l.byzantine(payer) {
		l.byzEscrowed += amount
		l.m.ByzantineEscrowed.Add(float64(amount))
	}
	return nil
}

// Hold is Escrow for a caller that keeps the lock's record itself: it moves
// amount from payer's account into escrow, payable to payee, and keeps no
// record of the lock — only its value by payer, which EscrowedTotal,
// PendingCount, Audit, SetByzantine and ByzantineEscrowed count as they
// count a recorded lock's, and LocksCreated, OpCount and the liquidity
// gauges as they count Escrow; State captures the tallies. A held lock has no
// ID, handle or log entry and is not among Lock or Locks: the caller keeps
// its record, and settles it with ReleaseHold or RefundHold. Only a
// compacting ledger, whose log names no lock, holds locks
// (ErrHoldNotCompact). The traffic timeline holds its thousands so, in the
// memory of its flights.
//
//xchain:hotpath
func (l *Ledger) Hold(payer, payee sim.PID, amount int64) error {
	if !l.compact {
		return ErrHoldNotCompact
	}
	if amount <= 0 {
		return ErrBadAmount
	}
	if err := l.reserve(payer, payee, amount); err != nil {
		return err
	}
	l.addHeld(payer, amount)
	l.countOp()
	return nil
}

// ReleaseHold pays a lock Hold(payer, payee, amount) held out to payee, as
// Release pays a recorded lock; RefundHold returns it to payer, as Refund
// does. The caller names the lock by what it held: the ledger, keeping no
// record, checks only that payer has that much held (ErrNoSuchLock
// otherwise). Each counts among SettledForgotten, as a settled record a
// compacting ledger forgets.
//
//xchain:hotpath
func (l *Ledger) ReleaseHold(payer, payee sim.PID, amount int64) error {
	if err := l.unhold(payer, amount); err != nil {
		return err
	}
	l.m.LocksReleased.Inc()
	l.payOut(payer, payee, amount)
	l.countOp()
	l.settled++
	return nil
}

// RefundHold is ReleaseHold's refund: the held value goes back to payer.
//
//xchain:hotpath
func (l *Ledger) RefundHold(payer sim.PID, amount int64) error {
	if err := l.unhold(payer, amount); err != nil {
		return err
	}
	l.m.LocksRefunded.Inc()
	l.payOut(payer, payer, amount)
	l.countOp()
	l.settled++
	return nil
}

// addHeld adds amount to payer's held value.
//
//xchain:hotpath
func (l *Ledger) addHeld(payer sim.PID, amount int64) {
	h := l.holding
	if h == nil {
		h = &holdings{}
		l.holding = h
	}
	if int(payer) >= len(h.by) {
		h.by = append(h.by, make([]int64, int(payer)+1-len(h.by))...)
	}
	h.by[payer] += amount
	h.n++
}

// holds returns the number of pending held locks.
func (l *Ledger) holds() int {
	if h := l.holding; h != nil {
		return h.n
	}
	return 0
}

// heldBy returns the value payer has held.
//
//xchain:hotpath
func (l *Ledger) heldBy(payer sim.PID) int64 {
	if h := l.holding; h != nil && uint(payer) < uint(len(h.by)) {
		return h.by[payer]
	}
	return 0
}

// unhold takes amount off payer's held value, refusing when payer has less
// held.
//
//xchain:hotpath
func (l *Ledger) unhold(payer sim.PID, amount int64) error {
	if amount <= 0 || l.heldBy(payer) < amount {
		return ErrNoSuchLock
	}
	l.holding.by[payer] -= amount
	l.holding.n--
	return nil
}

// CreateLock is Escrow between the participants named payer and payee.
func (l *Ledger) CreateLock(at sim.Time, id, payer, payee string, amount int64, cond Condition) (Handle, error) {
	p := l.PID(payer)
	return l.Escrow(at, id, p, l.PID(payee), amount, cond)
}

// Record blocks: a ledger makes its first recordsAlone records one by one (a
// protocol run's holds one or two locks), and then, since it holds many at
// once (a traffic timeline's holds one per payment in flight), recordBlock at
// a time: as many as fill an 8 KiB size class beside the 8-byte header the
// allocator gives a block that holds pointers.
const (
	recordsAlone = 8
	recordBlock  = (8<<10 - 8) / int(unsafe.Sizeof(lockRec{}))
)

// newRec returns a record for a new lock: a reused one, else a new one.
//
//xchain:hotpath
func (l *Ledger) newRec() *lockRec {
	if lk := l.free; lk != nil {
		l.free = lk.next
		return lk
	}
	l.made++
	if l.made <= recordsAlone {
		return &lockRec{}
	}
	if len(l.block) == cap(l.block) {
		l.block = make([]lockRec, 0, recordBlock)
	}
	l.block = l.block[:len(l.block)+1]
	return &l.block[len(l.block)-1]
}

// hold files a lock's record at the front of the held list.
//
//xchain:hotpath
func (l *Ledger) hold(lk *lockRec) {
	lk.next, lk.prev = l.head.next, &l.head
	if lk.next != nil {
		lk.next.prev = lk
	}
	l.head.next = lk
	l.held++
}

// lookup returns the held lock with that ID, or nil. A keyed lock's ID is
// rendered to compare it: the ID-addressed operations are for ledgers of
// ID-labelled locks, a keyed lock is settled through its handle.
//
//xchain:hotpath
func (l *Ledger) lookup(id string) *lockRec {
	for lk := l.head.next; lk != nil; lk = lk.next {
		if lk.id() == id {
			return lk
		}
	}
	return nil
}

// ID renders the ID of the lock h addresses, "" when h is stale.
func (h Handle) ID() string {
	if lk := h.held(); lk != nil {
		return lk.id()
	}
	return ""
}

// held returns the record h addresses, or nil when h is stale.
//
//xchain:hotpath
func (h Handle) held() *lockRec {
	if h.rec == nil || h.rec.gen != h.gen {
		return nil
	}
	return h.rec
}

// render renders a record as the Lock a read returns.
func (l *Ledger) render(lk *lockRec) Lock {
	return Lock{
		ID: lk.id(), Payer: l.owner(lk.payer), Payee: l.owner(lk.payee), Amount: lk.amount,
		CreatedAt: lk.createdAt, Cond: lk.cond, State: lockStates[lk.state], SettledAt: lk.settledAt,
	}
}

// Lock returns the lock with the given id.
func (l *Ledger) Lock(id string) (Lock, bool) {
	if lk := l.lookup(id); lk != nil {
		return l.render(lk), true
	}
	return Lock{}, false
}

// LockOf returns the lock h addresses, unless h is stale.
func (l *Ledger) LockOf(h Handle) (Lock, bool) {
	if lk := h.held(); lk != nil {
		return l.render(lk), true
	}
	return Lock{}, false
}

// Locks returns all locks sorted by id.
func (l *Ledger) Locks() []Lock {
	out := make([]Lock, 0, l.held)
	for lk := l.head.next; lk != nil; lk = lk.next {
		out = append(out, l.render(lk))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PendingLocks returns the locks still pending, sorted by id.
func (l *Ledger) PendingLocks() []Lock {
	var out []Lock
	for _, lk := range l.Locks() {
		if lk.State == LockPending {
			out = append(out, lk)
		}
	}
	return out
}

// PendingCount returns the number of locks still pending, recorded or held.
func (l *Ledger) PendingCount() int {
	n := l.holds()
	for lk := l.head.next; lk != nil; lk = lk.next {
		if lk.state == statePending {
			n++
		}
	}
	return n
}

// Release completes the escrowed transfer to the payee. If the lock carries
// a hashlock, preimage must match; if it carries an expiry, release must
// happen strictly before the expiry (localNow < Expiry).
//
//xchain:hotpath
func (l *Ledger) Release(at sim.Time, id string, preimage []byte, localNow sim.Time) error {
	lk := l.lookup(id)
	if lk == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchLock, id)
	}
	return l.release(at, lk, preimage, localNow)
}

// ReleaseLock is Release of the lock h addresses; a stale h is ErrNoSuchLock.
//
//xchain:hotpath
func (l *Ledger) ReleaseLock(at sim.Time, h Handle, preimage []byte, localNow sim.Time) error {
	lk := h.held()
	if lk == nil {
		return ErrNoSuchLock
	}
	return l.release(at, lk, preimage, localNow)
}

// release is Release's and ReleaseLock's common tail: the lock is found.
//
//xchain:hotpath
func (l *Ledger) release(at sim.Time, lk *lockRec, preimage []byte, localNow sim.Time) error {
	if lk.state != statePending {
		return &settledError{lk.name(), lockStates[lk.state]}
	}
	if len(lk.cond.HashLock) > 0 && !CheckPreimage(lk.cond.HashLock, preimage) {
		return ErrBadPreimage
	}
	if lk.cond.Expiry != 0 && localNow >= lk.cond.Expiry {
		return ErrExpired
	}
	l.m.LocksReleased.Inc()
	l.settle(at, lk, stateReleased, OpRelease, lk.payee)
	return nil
}

// Refund returns the escrowed value to the payer. If the lock carries an
// expiry, refund is only allowed at or after the expiry.
//
//xchain:hotpath
func (l *Ledger) Refund(at sim.Time, id string, localNow sim.Time) error {
	lk := l.lookup(id)
	if lk == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchLock, id)
	}
	return l.refund(at, lk, localNow)
}

// RefundLock is Refund of the lock h addresses; a stale h is ErrNoSuchLock.
//
//xchain:hotpath
func (l *Ledger) RefundLock(at sim.Time, h Handle, localNow sim.Time) error {
	lk := h.held()
	if lk == nil {
		return ErrNoSuchLock
	}
	return l.refund(at, lk, localNow)
}

// refund is Refund's and RefundLock's common tail: the lock is found.
//
//xchain:hotpath
func (l *Ledger) refund(at sim.Time, lk *lockRec, localNow sim.Time) error {
	if lk.state != statePending {
		return &settledError{lk.name(), lockStates[lk.state]}
	}
	if lk.cond.Expiry != 0 && localNow < lk.cond.Expiry {
		return ErrNotExpired
	}
	l.m.LocksRefunded.Inc()
	l.settle(at, lk, stateRefunded, OpRefund, lk.payer)
	return nil
}

// settle pays a pending lock out to Release's payee or Refund's payer. Under
// compaction it then forgets the lock — unlinked from the held list, its
// handles stale — and keeps its record for the next Escrow.
//
//xchain:hotpath
func (l *Ledger) settle(at sim.Time, lk *lockRec, state uint8, kind OpKind, to sim.PID) {
	lk.state, lk.settledAt = state, at
	l.payOut(lk.payer, to, lk.amount)
	l.logLock(at, kind, lk, to)
	if l.compact {
		l.forget(lk)
		l.settled++
	}
}

// forget unlinks a record from the held list — its handles go stale — and
// keeps it for the next Escrow.
//
//xchain:hotpath
func (l *Ledger) forget(lk *lockRec) {
	l.held--
	lk.prev.next = lk.next
	if lk.next != nil {
		lk.next.prev = lk.prev
	}
	lk.gen++
	lk.prev, lk.next, l.free = nil, l.free, lk
}

// payOut credits to with amount out of escrow, from a lock payer paid: the
// value half of a settlement, recorded (settle) or held (ReleaseHold,
// RefundHold).
//
//xchain:hotpath
func (l *Ledger) payOut(payer, to sim.PID, amount int64) {
	l.credit(to, amount)
	l.m.Escrowed.Add(-float64(amount))
	l.m.Available.Add(float64(amount))
	if l.byzantine(payer) {
		l.byzEscrowed -= amount
		l.m.ByzantineEscrowed.Add(-float64(amount))
	}
}

// Ops returns the retained operation log (empty under compaction; see
// OpCount for the total).
func (l *Ledger) Ops() []Op { return l.ops }

// OpCount returns the total number of operations ever logged, retained or
// not.
func (l *Ledger) OpCount() int { return l.opCount }

// log records one operation: counted always, appended to the log — written in
// its slot, not built aside and copied there — unless compacting.
//
//xchain:hotpath
func (l *Ledger) log(at sim.Time, kind OpKind, from, to string, amount int64, lock lockName) {
	seq := l.opCount
	l.opCount++
	l.m.Ops.Inc()
	if l.compact {
		return
	}
	l.ops = append(l.ops, Op{})
	op := &l.ops[len(l.ops)-1]
	op.Seq, op.At, op.Kind = seq, at, kind
	op.From, op.To, op.Amount, op.lock = from, to, amount, lock
}

// logLock logs a lock operation on lk, from its payer to to; the names are
// only rendered for a log that retains the entry, and the lock ID when the
// entry is read.
//
//xchain:hotpath
func (l *Ledger) logLock(at sim.Time, kind OpKind, lk *lockRec, to sim.PID) {
	if l.compact {
		l.countOp()
		return
	}
	l.log(at, kind, l.owner(lk.payer), l.owner(to), lk.amount, lk.name())
}

// countOp counts an operation the log does not retain.
//
//xchain:hotpath
func (l *Ledger) countOp() {
	l.opCount++
	l.m.Ops.Inc()
}

// EscrowedTotal returns the total value currently held in pending locks,
// recorded or held.
func (l *Ledger) EscrowedTotal() int64 {
	var total int64
	for lk := l.head.next; lk != nil; lk = lk.next {
		if lk.state == statePending {
			total += lk.amount
		}
	}
	if h := l.holding; h != nil {
		for _, v := range h.by {
			total += v
		}
	}
	return total
}

// SetByzantine marks (or unmarks) pid's account as controlled by a
// Byzantine party. Marking sweeps pid's currently pending locks into the
// Byzantine-held total (O(recorded pending locks)); from then on every lock
// operation maintains it in O(1). Unmarking sweeps them back out.
func (l *Ledger) SetByzantine(pid sim.PID, on bool) {
	if l.byzantine(pid) == on {
		return
	}
	l.growByz(pid)
	held := l.heldBy(pid)
	for lk := l.head.next; lk != nil; lk = lk.next {
		if lk.state == statePending && lk.payer == pid {
			held += lk.amount
		}
	}
	l.byz[pid] = on
	if on {
		l.byzEscrowed += held
		l.m.ByzantineEscrowed.Add(float64(held))
	} else {
		l.byzEscrowed -= held
		l.m.ByzantineEscrowed.Add(-float64(held))
	}
}

// ByzantineEscrowed returns the value currently held in pending locks whose
// payer is marked Byzantine — the liquidity an attacker is griefing away
// from honest payments.
func (l *Ledger) ByzantineEscrowed() int64 { return l.byzEscrowed }

// AccountsTotal returns the sum of available balances.
func (l *Ledger) AccountsTotal() int64 {
	var total int64
	for _, a := range l.accounts {
		total += a.balance
	}
	return total
}

// Minted returns the total value ever minted on this ledger.
func (l *Ledger) Minted() int64 { return l.minted }

// Audit verifies conservation of value: minted == available + escrowed.
// The Escrow-security property checker relies on this to prove the escrow
// itself never loses (or creates) money. Of several negative balances it
// names the first in the ledger's own order (creation, or capture order after
// FromState).
func (l *Ledger) Audit() error {
	if got := l.AccountsTotal() + l.EscrowedTotal(); got != l.minted {
		return fmt.Errorf("ledger %s: conservation violated: minted=%d accounted=%d", l.name, l.minted, got)
	}
	for _, a := range l.accounts {
		if a.balance < 0 {
			return fmt.Errorf("ledger %s: negative balance for %s: %d", l.name, l.owner(a.pid), a.balance)
		}
	}
	return nil
}

// String summarises the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger(%s: %d accounts, %d locks, minted=%d)", l.name, len(l.accounts), l.held+l.holds(), l.minted)
}

// Book is a collection of ledgers, one per escrow, plus helpers to observe a
// customer's total wealth across all escrows (used by the checkers: a
// connector must end up with "her money back", summed across her upstream
// and downstream escrow accounts).
type Book struct {
	order []*Ledger // the ledgers as Add registered them, found by name by a linear scan
	// chain is order's first storage, so that a book of up to eight ledgers
	// (the usual chains) is one allocation.
	chain [8]*Ledger
}

// NewBook creates an empty ledger collection.
func NewBook() *Book {
	b := &Book{}
	b.order = b.chain[:0]
	return b
}

// Reset forgets every registered ledger, keeping the book's storage.
func (b *Book) Reset() {
	clear(b.order)
	b.order = b.order[:0]
}

// Add registers a ledger; it returns the ledger for chaining. Registering a
// name again replaces the ledger that held it, in that ledger's place.
func (b *Book) Add(l *Ledger) *Ledger {
	for i, o := range b.order {
		if o.name == l.name {
			b.order[i] = l
			return l
		}
	}
	b.order = append(b.order, l)
	return l
}

// Ledgers returns the ledgers in the order they were registered — on a
// payment chain e_0..e_{N-1} — which, unlike Names, costs nothing to ask for.
// Callers must not modify the slice.
func (b *Book) Ledgers() []*Ledger { return b.order }

// Get returns the ledger with the given name.
//
//xchain:hotpath
func (b *Book) Get(name string) (*Ledger, bool) {
	for _, l := range b.order {
		if l.name == name {
			return l, true
		}
	}
	return nil, false
}

// MustGet returns the ledger or panics; for scenario builders where absence
// is a programming error.
func (b *Book) MustGet(name string) *Ledger {
	l, ok := b.Get(name)
	if !ok {
		panic("ledger: no such ledger " + name)
	}
	return l
}

// Names returns the sorted ledger names.
func (b *Book) Names() []string {
	out := make([]string, 0, len(b.order))
	for _, l := range b.order {
		out = append(out, l.name)
	}
	sort.Strings(out)
	return out
}

// AuditAll audits every ledger and returns the violation of the first
// ledger, by name, that has one.
func (b *Book) AuditAll() error {
	var first *Ledger
	var firstErr error
	for _, l := range b.order {
		if err := l.Audit(); err != nil && (first == nil || l.name < first.name) {
			first, firstErr = l, err
		}
	}
	return firstErr
}

// TotalOps returns the total number of operations logged across all ledgers
// (including operations whose log entries compaction dropped); the cost
// experiments report it as "ledger operations".
func (b *Book) TotalOps() int {
	total := 0
	for _, l := range b.order {
		total += l.opCount
	}
	return total
}

// CountOps returns how many retained operations of the given kind the book's
// ledgers logged: the locks, releases and refunds of a run are ledger
// operations, whether or not a trace recorded them.
func (b *Book) CountOps(kind OpKind) int {
	n := 0
	for _, l := range b.order {
		for i := range l.ops {
			if l.ops[i].Kind == kind {
				n++
			}
		}
	}
	return n
}

// SnapshotWealth captures every participant's total wealth across ledgers.
func (b *Book) SnapshotWealth() map[string]int64 {
	out := map[string]int64{}
	for _, l := range b.order {
		for _, a := range l.accounts {
			out[l.owner(a.pid)] += a.balance
		}
	}
	return out
}
