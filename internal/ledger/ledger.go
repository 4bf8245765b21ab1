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
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"

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
)

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

// Lock is value held in escrow between two customers of this ledger.
type Lock struct {
	ID        string
	Payer     string
	Payee     string
	Amount    int64
	CreatedAt sim.Time
	Cond      Condition
	State     LockState
	SettledAt sim.Time

	// next links the records a ledger keeps for reuse (Ledger.free); nil in
	// every lock a ledger holds.
	next *Lock
}

// OpKind enumerates ledger operations for the audit log.
type OpKind string

// Ledger operation kinds.
const (
	OpMint     OpKind = "mint"
	OpTransfer OpKind = "transfer"
	OpLock     OpKind = "lock"
	OpRelease  OpKind = "release"
	OpRefund   OpKind = "refund"
)

// Op is one entry of the ledger's operation log.
type Op struct {
	Seq    int
	At     sim.Time
	Kind   OpKind
	From   string
	To     string
	Amount int64
	LockID string
}

// Ledger is a single escrow's book: accounts, escrow locks and an operation
// log. All amounts are integer value units of a single asset; cross-currency
// concerns are, as the paper notes, orthogonal to the protocol and handled by
// the payment specification choosing per-hop amounts.
type Ledger struct {
	name     string
	accounts map[string]int64
	locks    map[string]*Lock
	free     *Lock // records of locks dropped by Reset or forgotten under compaction, for CreateLock to reuse
	ops      []Op
	opCount  int
	minted   int64
	compact  bool
	settled  int // settled locks forgotten under compaction

	// byzOwners marks accounts currently controlled by Byzantine parties
	// (see SetByzantine); byzEscrowed is the running total of value held in
	// pending locks whose payer is marked — lock-and-abandon griefing made
	// observable. Updated in O(1) per lock operation.
	byzOwners   map[string]bool
	byzEscrowed int64

	// m holds optional instrumentation hooks (see SetMetrics); the zero
	// value is muted and every update is an inlined nil no-op.
	m Metrics
}

// New creates an empty ledger named name (normally the escrow's ID).
func New(name string) *Ledger {
	return &Ledger{
		name:     name,
		accounts: map[string]int64{},
		locks:    map[string]*Lock{},
	}
}

// Reset returns the ledger to the state New(name) builds — no accounts, no
// locks, an empty log, zeroed totals, compaction off, muted metrics —
// keeping its maps' and its log's storage. Locks and log entries handed out
// before the Reset must no longer be used.
func (l *Ledger) Reset(name string) {
	l.name = name
	clear(l.accounts)
	//lint:maporder the order only decides which record a later lock reuses, and CreateLock overwrites it whole
	for _, lk := range l.locks {
		lk.next, l.free = l.free, lk
	}
	clear(l.locks)
	clear(l.byzOwners)
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
// CreateLock, so the *Lock that CreateLock or Lock returned is valid only
// until that lock settles. No caller keeps one that long: the traffic
// timeline, the only user of compaction, discards CreateLock's result and
// settles by lock ID.
func (l *Ledger) SetCompact(on bool) { l.compact = on }

// Compact reports whether compaction is enabled.
func (l *Ledger) Compact() bool { return l.compact }

// SettledForgotten returns the number of settled locks dropped under
// compaction.
func (l *Ledger) SettledForgotten() int { return l.settled }

// CreateAccount registers an account with a zero balance.
func (l *Ledger) CreateAccount(owner string) error {
	if _, ok := l.accounts[owner]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateAccount, owner)
	}
	l.accounts[owner] = 0
	return nil
}

// HasAccount reports whether owner holds an account.
func (l *Ledger) HasAccount(owner string) bool {
	_, ok := l.accounts[owner]
	return ok
}

// Accounts returns the sorted account owners.
func (l *Ledger) Accounts() []string {
	out := make([]string, 0, len(l.accounts))
	for a := range l.accounts {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Balance returns owner's available balance (excluding escrowed funds).
func (l *Ledger) Balance(owner string) int64 { return l.accounts[owner] }

// Mint credits owner with newly created value (initial endowments in
// scenarios). It creates the account if needed.
func (l *Ledger) Mint(at sim.Time, owner string, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	if _, ok := l.accounts[owner]; !ok {
		l.accounts[owner] = 0
	}
	l.accounts[owner] += amount
	l.minted += amount
	l.m.Available.Add(float64(amount))
	l.log(Op{At: at, Kind: OpMint, To: owner, Amount: amount})
	return nil
}

// Transfer moves value directly between two accounts of this ledger.
//
//xchain:hotpath
func (l *Ledger) Transfer(at sim.Time, from, to string, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	if !l.HasAccount(from) || !l.HasAccount(to) {
		return fmt.Errorf("%w: %s or %s on %s", ErrNoAccount, from, to, l.name)
	}
	if l.accounts[from] < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, from, l.accounts[from], amount)
	}
	l.accounts[from] -= amount
	l.accounts[to] += amount
	l.log(Op{At: at, Kind: OpTransfer, From: from, To: to, Amount: amount})
	return nil
}

// CreateLock moves amount from payer's account into escrow under id.
//
//xchain:hotpath
func (l *Ledger) CreateLock(at sim.Time, id, payer, payee string, amount int64, cond Condition) (*Lock, error) {
	if amount <= 0 {
		return nil, ErrBadAmount
	}
	if _, dup := l.locks[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateLock, id)
	}
	if !l.HasAccount(payer) {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoAccount, payer, l.name)
	}
	if !l.HasAccount(payee) {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoAccount, payee, l.name)
	}
	if l.accounts[payer] < amount {
		return nil, fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, payer, l.accounts[payer], amount)
	}
	l.accounts[payer] -= amount
	lk := l.free
	if lk != nil {
		l.free = lk.next
	} else {
		lk = &Lock{}
	}
	*lk = Lock{ID: id, Payer: payer, Payee: payee, Amount: amount, CreatedAt: at, Cond: cond, State: LockPending}
	l.locks[id] = lk
	l.m.LocksCreated.Inc()
	l.m.Available.Add(-float64(amount))
	l.m.Escrowed.Add(float64(amount))
	if l.byzOwners[payer] {
		l.byzEscrowed += amount
		l.m.ByzantineEscrowed.Add(float64(amount))
	}
	l.log(Op{At: at, Kind: OpLock, From: payer, To: payee, Amount: amount, LockID: id})
	return lk, nil
}

// Lock returns the lock with the given id.
func (l *Ledger) Lock(id string) (*Lock, bool) {
	lk, ok := l.locks[id]
	return lk, ok
}

// Locks returns all locks sorted by id.
func (l *Ledger) Locks() []*Lock {
	out := make([]*Lock, 0, len(l.locks))
	for _, lk := range l.locks {
		out = append(out, lk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PendingLocks returns the locks still pending, sorted by id.
func (l *Ledger) PendingLocks() []*Lock {
	var out []*Lock
	for _, lk := range l.Locks() {
		if lk.State == LockPending {
			out = append(out, lk)
		}
	}
	return out
}

// PendingCount returns the number of locks still pending.
func (l *Ledger) PendingCount() int {
	n := 0
	for _, lk := range l.locks {
		if lk.State == LockPending {
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
	lk, ok := l.locks[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchLock, id)
	}
	if lk.State != LockPending {
		return fmt.Errorf("%w: %s is %s", ErrLockSettled, id, lk.State)
	}
	if len(lk.Cond.HashLock) > 0 && !checkPreimage(lk.Cond.HashLock, preimage) {
		return ErrBadPreimage
	}
	if lk.Cond.Expiry != 0 && localNow >= lk.Cond.Expiry {
		return ErrExpired
	}
	lk.State = LockReleased
	lk.SettledAt = at
	l.accounts[lk.Payee] += lk.Amount
	l.m.LocksReleased.Inc()
	l.m.Escrowed.Add(-float64(lk.Amount))
	l.m.Available.Add(float64(lk.Amount))
	if l.byzOwners[lk.Payer] {
		l.byzEscrowed -= lk.Amount
		l.m.ByzantineEscrowed.Add(-float64(lk.Amount))
	}
	l.log(Op{At: at, Kind: OpRelease, From: lk.Payer, To: lk.Payee, Amount: lk.Amount, LockID: id})
	l.forget(lk)
	return nil
}

// Refund returns the escrowed value to the payer. If the lock carries an
// expiry, refund is only allowed at or after the expiry.
//
//xchain:hotpath
func (l *Ledger) Refund(at sim.Time, id string, localNow sim.Time) error {
	lk, ok := l.locks[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchLock, id)
	}
	if lk.State != LockPending {
		return fmt.Errorf("%w: %s is %s", ErrLockSettled, id, lk.State)
	}
	if lk.Cond.Expiry != 0 && localNow < lk.Cond.Expiry {
		return ErrNotExpired
	}
	lk.State = LockRefunded
	lk.SettledAt = at
	l.accounts[lk.Payer] += lk.Amount
	l.m.LocksRefunded.Inc()
	l.m.Escrowed.Add(-float64(lk.Amount))
	l.m.Available.Add(float64(lk.Amount))
	if l.byzOwners[lk.Payer] {
		l.byzEscrowed -= lk.Amount
		l.m.ByzantineEscrowed.Add(-float64(lk.Amount))
	}
	l.log(Op{At: at, Kind: OpRefund, From: lk.Payer, To: lk.Payer, Amount: lk.Amount, LockID: id})
	l.forget(lk)
	return nil
}

// forget drops a settled lock under compaction and keeps its record for the
// next CreateLock.
//
//xchain:hotpath
func (l *Ledger) forget(lk *Lock) {
	if l.compact {
		delete(l.locks, lk.ID)
		lk.next, l.free = l.free, lk
		l.settled++
	}
}

// Ops returns the retained operation log (empty under compaction; see
// OpCount for the total).
func (l *Ledger) Ops() []Op { return l.ops }

// OpCount returns the total number of operations ever logged, retained or
// not.
func (l *Ledger) OpCount() int { return l.opCount }

//xchain:hotpath
func (l *Ledger) log(op Op) {
	op.Seq = l.opCount
	l.opCount++
	l.m.Ops.Inc()
	if !l.compact {
		l.ops = append(l.ops, op)
	}
}

// EscrowedTotal returns the total value currently held in pending locks.
func (l *Ledger) EscrowedTotal() int64 {
	var total int64
	for _, lk := range l.locks {
		if lk.State == LockPending {
			total += lk.Amount
		}
	}
	return total
}

// SetByzantine marks (or unmarks) owner's account as controlled by a
// Byzantine party. Marking sweeps owner's currently pending locks into the
// Byzantine-held total (O(pending locks)); from then on every lock
// operation maintains it in O(1). Unmarking sweeps them back out.
func (l *Ledger) SetByzantine(owner string, on bool) {
	if l.byzOwners[owner] == on {
		return
	}
	if l.byzOwners == nil {
		l.byzOwners = map[string]bool{}
	}
	var held int64
	for _, lk := range l.locks {
		if lk.State == LockPending && lk.Payer == owner {
			held += lk.Amount
		}
	}
	if on {
		l.byzOwners[owner] = true
		l.byzEscrowed += held
		l.m.ByzantineEscrowed.Add(float64(held))
	} else {
		delete(l.byzOwners, owner)
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
	for _, b := range l.accounts {
		total += b
	}
	return total
}

// Minted returns the total value ever minted on this ledger.
func (l *Ledger) Minted() int64 { return l.minted }

// Audit verifies conservation of value: minted == available + escrowed.
// The Escrow-security property checker relies on this to prove the escrow
// itself never loses (or creates) money.
func (l *Ledger) Audit() error {
	if got := l.AccountsTotal() + l.EscrowedTotal(); got != l.minted {
		return fmt.Errorf("ledger %s: conservation violated: minted=%d accounted=%d", l.name, l.minted, got)
	}
	for owner, bal := range l.accounts {
		if bal < 0 {
			return fmt.Errorf("ledger %s: negative balance for %s: %d", l.name, owner, bal)
		}
	}
	return nil
}

// Snapshot captures balances (available only) for later comparison, e.g. by
// the customer-security checkers ("got her money back").
func (l *Ledger) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(l.accounts))
	for k, v := range l.accounts {
		out[k] = v
	}
	return out
}

// String summarises the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger(%s: %d accounts, %d locks, minted=%d)", l.name, len(l.accounts), len(l.locks), l.minted)
}

func checkPreimage(lock, preimage []byte) bool {
	// The hash function must match internal/sig.HashPreimage (sha256).
	h := sha256.Sum256(preimage)
	if len(lock) != len(h) {
		return false
	}
	for i := range h {
		if lock[i] != h[i] {
			return false
		}
	}
	return true
}

// Book is a collection of ledgers, one per escrow, plus helpers to observe a
// customer's total wealth across all escrows (used by the checkers: a
// connector must end up with "her money back", summed across her upstream
// and downstream escrow accounts).
type Book struct {
	ledgers map[string]*Ledger
	order   []*Ledger // the ledgers as Add registered them
	// chain is order's first storage, so that a book of up to eight ledgers
	// (the usual chains) is still two allocations: itself and its map.
	chain [8]*Ledger
}

// NewBook creates an empty ledger collection.
func NewBook() *Book {
	b := &Book{ledgers: map[string]*Ledger{}}
	b.order = b.chain[:0]
	return b
}

// Reset forgets every registered ledger, keeping the book's storage.
func (b *Book) Reset() {
	clear(b.ledgers)
	clear(b.order)
	b.order = b.order[:0]
}

// Add registers a ledger; it returns the ledger for chaining. Registering a
// name again replaces the ledger that held it, in that ledger's place.
func (b *Book) Add(l *Ledger) *Ledger {
	b.ledgers[l.name] = l
	if len(b.ledgers) > len(b.order) {
		b.order = append(b.order, l)
	} else {
		b.order[slices.IndexFunc(b.order, func(o *Ledger) bool { return o.name == l.name })] = l
	}
	return l
}

// Ledgers returns the ledgers in the order they were registered — on a
// payment chain e_0..e_{N-1} — which, unlike Names, costs nothing to ask for.
// Callers must not modify the slice.
func (b *Book) Ledgers() []*Ledger { return b.order }

// Get returns the ledger with the given name.
func (b *Book) Get(name string) (*Ledger, bool) {
	l, ok := b.ledgers[name]
	return l, ok
}

// MustGet returns the ledger or panics; for scenario builders where absence
// is a programming error.
func (b *Book) MustGet(name string) *Ledger {
	l, ok := b.ledgers[name]
	if !ok {
		panic("ledger: no such ledger " + name)
	}
	return l
}

// Names returns the sorted ledger names.
func (b *Book) Names() []string {
	out := make([]string, 0, len(b.ledgers))
	for n := range b.ledgers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AuditAll audits every ledger and returns the violation of the first
// ledger, by name, that has one. Whether any ledger fails does not depend on
// the order they are asked in, so the names are only sorted once one does.
func (b *Book) AuditAll() error {
	clean := true
	for _, l := range b.ledgers {
		if l.Audit() != nil {
			clean = false
		}
	}
	if clean {
		return nil
	}
	for _, name := range b.Names() {
		if err := b.ledgers[name].Audit(); err != nil {
			return err
		}
	}
	return nil
}

// TotalOps returns the total number of operations logged across all ledgers
// (including operations whose log entries compaction dropped); the cost
// experiments report it as "ledger operations".
func (b *Book) TotalOps() int {
	total := 0
	for _, l := range b.ledgers {
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
	for _, l := range b.ledgers {
		for _, owner := range l.Accounts() {
			out[owner] += l.Balance(owner)
		}
	}
	return out
}
