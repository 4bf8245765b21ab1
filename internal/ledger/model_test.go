package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// mapLedger is the reference model of the differential tests below: the
// ledger as it was kept before its books became slices — accounts in a map,
// locks in a map that every walk ranges over — with the same operations,
// errors and capture, and without metrics or record reuse.
type mapLedger struct {
	name        string
	accounts    map[string]int64
	locks       map[string]*Lock
	ops         []Op
	opCount     int
	minted      int64
	compact     bool
	settled     int
	byzOwners   map[string]bool
	byzEscrowed int64
}

func newMapLedger(name string) *mapLedger {
	return &mapLedger{name: name, accounts: map[string]int64{}, locks: map[string]*Lock{}, byzOwners: map[string]bool{}}
}

func (m *mapLedger) log(op Op) {
	op.Seq = m.opCount
	m.opCount++
	if !m.compact {
		m.ops = append(m.ops, op)
	}
}

func (m *mapLedger) has(owner string) bool { _, ok := m.accounts[owner]; return ok }

func (m *mapLedger) CreateAccount(owner string) error {
	if m.has(owner) {
		return fmt.Errorf("%w: %s", ErrDuplicateAccount, owner)
	}
	m.accounts[owner] = 0
	return nil
}

func (m *mapLedger) Mint(at sim.Time, owner string, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	m.accounts[owner] += amount
	m.minted += amount
	m.log(Op{At: at, Kind: OpMint, To: owner, Amount: amount})
	return nil
}

func (m *mapLedger) CreateLock(at sim.Time, id, payer, payee string, amount int64, cond Condition) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	if _, dup := m.locks[id]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateLock, id)
	}
	if !m.has(payer) {
		return fmt.Errorf("%w: %s on %s", ErrNoAccount, payer, m.name)
	}
	if !m.has(payee) {
		return fmt.Errorf("%w: %s on %s", ErrNoAccount, payee, m.name)
	}
	if m.accounts[payer] < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, payer, m.accounts[payer], amount)
	}
	m.accounts[payer] -= amount
	m.locks[id] = &Lock{ID: id, Payer: payer, Payee: payee, Amount: amount, CreatedAt: at, Cond: cond, State: LockPending}
	if m.byzOwners[payer] {
		m.byzEscrowed += amount
	}
	m.log(Op{At: at, Kind: OpLock, From: payer, To: payee, Amount: amount, lock: lockName{label: id}})
	return nil
}

// settle is Release's and Refund's common tail: the checks passed.
func (m *mapLedger) settle(at sim.Time, lk *Lock, state LockState, kind OpKind, to string) {
	lk.State, lk.SettledAt = state, at
	m.accounts[to] += lk.Amount
	if m.byzOwners[lk.Payer] {
		m.byzEscrowed -= lk.Amount
	}
	m.log(Op{At: at, Kind: kind, From: lk.Payer, To: to, Amount: lk.Amount, lock: lockName{label: lk.ID}})
	if m.compact {
		delete(m.locks, lk.ID)
		m.settled++
	}
}

func (m *mapLedger) Release(at sim.Time, id string, preimage []byte, localNow sim.Time) error {
	lk, ok := m.locks[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchLock, id)
	}
	if lk.State != LockPending {
		return fmt.Errorf("%w: %s is %s", ErrLockSettled, id, lk.State)
	}
	if len(lk.Cond.HashLock) > 0 && !CheckPreimage(lk.Cond.HashLock, preimage) {
		return ErrBadPreimage
	}
	if lk.Cond.Expiry != 0 && localNow >= lk.Cond.Expiry {
		return ErrExpired
	}
	m.settle(at, lk, LockReleased, OpRelease, lk.Payee)
	return nil
}

func (m *mapLedger) Refund(at sim.Time, id string, localNow sim.Time) error {
	lk, ok := m.locks[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchLock, id)
	}
	if lk.State != LockPending {
		return fmt.Errorf("%w: %s is %s", ErrLockSettled, id, lk.State)
	}
	if lk.Cond.Expiry != 0 && localNow < lk.Cond.Expiry {
		return ErrNotExpired
	}
	m.settle(at, lk, LockRefunded, OpRefund, lk.Payer)
	return nil
}

func (m *mapLedger) SetByzantine(owner string, on bool) {
	if m.byzOwners[owner] == on {
		return
	}
	var held int64
	for _, lk := range m.locks {
		if lk.State == LockPending && lk.Payer == owner {
			held += lk.Amount
		}
	}
	if on {
		m.byzOwners[owner] = true
		m.byzEscrowed += held
	} else {
		delete(m.byzOwners, owner)
		m.byzEscrowed -= held
	}
}

func (m *mapLedger) Accounts() []string {
	out := make([]string, 0, len(m.accounts))
	for a := range m.accounts {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (m *mapLedger) Locks() []*Lock {
	out := make([]*Lock, 0, len(m.locks))
	for _, lk := range m.locks {
		out = append(out, lk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *mapLedger) PendingLocks() []*Lock {
	var out []*Lock
	for _, lk := range m.Locks() {
		if lk.State == LockPending {
			out = append(out, lk)
		}
	}
	return out
}

func (m *mapLedger) EscrowedTotal() int64 {
	var total int64
	for _, lk := range m.PendingLocks() {
		total += lk.Amount
	}
	return total
}

func (m *mapLedger) AccountsTotal() int64 {
	var total int64
	for _, b := range m.accounts {
		total += b
	}
	return total
}

// Audit names a negative balance in owner order: no step the tests drive
// makes a balance negative, so the model never has two to choose between.
func (m *mapLedger) Audit() error {
	if got := m.AccountsTotal() + m.EscrowedTotal(); got != m.minted {
		return fmt.Errorf("ledger %s: conservation violated: minted=%d accounted=%d", m.name, m.minted, got)
	}
	for _, owner := range m.Accounts() {
		if bal := m.accounts[owner]; bal < 0 {
			return fmt.Errorf("ledger %s: negative balance for %s: %d", m.name, owner, bal)
		}
	}
	return nil
}

func (m *mapLedger) State() LedgerState {
	st := LedgerState{
		Name:             m.name,
		Accounts:         make([]AccountState, 0, len(m.accounts)),
		OpCount:          m.opCount,
		Minted:           m.minted,
		Compact:          m.compact,
		SettledForgotten: m.settled,
		ByzEscrowed:      m.byzEscrowed,
	}
	for _, owner := range m.Accounts() {
		st.Accounts = append(st.Accounts, AccountState{Owner: owner, Balance: m.accounts[owner]})
	}
	for _, lk := range m.Locks() {
		st.Locks = append(st.Locks, *lk)
	}
	if len(m.ops) > 0 {
		st.Ops = append([]Op(nil), m.ops...)
	}
	for owner := range m.byzOwners {
		st.ByzantineOwners = append(st.ByzantineOwners, owner)
	}
	sort.Strings(st.ByzantineOwners)
	return st
}

func mapFromState(st LedgerState) *mapLedger {
	m := newMapLedger(st.Name)
	for _, a := range st.Accounts {
		m.accounts[a.Owner] = a.Balance
	}
	for i := range st.Locks {
		lk := st.Locks[i]
		m.locks[lk.ID] = &lk
	}
	m.ops = append([]Op(nil), st.Ops...)
	m.opCount, m.minted, m.compact, m.settled = st.OpCount, st.Minted, st.Compact, st.SettledForgotten
	for _, owner := range st.ByzantineOwners {
		m.byzOwners[owner] = true
	}
	m.byzEscrowed = st.ByzEscrowed
	return m
}

var (
	modelOwners = []string{"alice", "bob", "carol", "dave", "eve"}
	// modelLockIDs are label#key, so that the keyed twin can name each by its
	// label and key; "b#1" is a prefix of "b#12".
	modelLockIDs   = []string{"a#0", "a#1", "a#2", "b#0", "b#1", "b#12"}
	modelPreimages = [][]byte{[]byte("yes"), []byte("no")}
	modelHashSum   = HashPreimage(modelPreimages[0])
	modelHashLock  = modelHashSum[:]
)

// driveLedgers decodes program five bytes a step — kind, two operands, an
// amount and a selector — applies each step to a ledger and to the model,
// and after every step requires the two to read the same through every
// accessor, error for error and byte for byte of their captures. A keyed
// twin takes the same steps the way the traffic timeline does: it escrows
// each lock under its label and key and settles it through the handle it
// got, and must read as the ledger does.
func driveLedgers(t testing.TB, program []byte) {
	t.Helper()
	l, m, k := New("e0"), newMapLedger("e0"), New("e0")
	handles := map[string]Handle{} // k's, by rendered ID
	for step := 0; len(program) >= 5; step++ {
		kind, x, y, amt, sel := program[0], int(program[1]), int(program[2]), int64(program[3]%64), int(program[4])
		program = program[5:]
		at := sim.Time(step)
		a, b := modelOwners[x%len(modelOwners)], modelOwners[y%len(modelOwners)]
		id := modelLockIDs[sel%len(modelLockIDs)]
		localNow := at + sim.Time(y%8) - 4
		var got, want, twin error
		what := ""
		switch kind % 10 {
		case 0:
			what = "CreateAccount " + a
			got, want, twin = l.CreateAccount(a), m.CreateAccount(a), k.CreateAccount(a)
		case 1:
			what = fmt.Sprintf("Mint %s %d", a, amt)
			got, want, twin = l.Mint(at, a, amt), m.Mint(at, a, amt), k.Mint(at, a, amt)
		case 2:
			var cond Condition
			switch sel / len(modelLockIDs) % 3 {
			case 1:
				cond.Expiry = at + sim.Time(amt%8)
			case 2:
				cond.HashLock = modelHashLock
			}
			what = fmt.Sprintf("CreateLock %s %s->%s %d %+v", id, a, b, amt, cond)
			_, got = l.CreateLock(at, id, a, b, amt, cond)
			want = m.CreateLock(at, id, a, b, amt, cond)
			if _, held := k.Lock(id); held && amt > 0 {
				// EscrowKeyed's caller keeps its keys unique: the twin never
				// asks for a lock it holds.
				twin = ErrDuplicateLock
				break
			}
			label, key, _ := strings.Cut(id, "#")
			n, _ := strconv.ParseUint(key, 10, 64)
			var h Handle
			if h, twin = k.EscrowKeyed(at, label, n, k.PID(a), k.PID(b), amt, cond); twin == nil {
				handles[id] = h
			}
		case 3:
			pre := modelPreimages[x%2]
			what = fmt.Sprintf("Release %s %s @%v", id, pre, localNow)
			got, want = l.Release(at, id, pre, localNow), m.Release(at, id, pre, localNow)
			twin = k.ReleaseLock(at, handles[id], pre, localNow)
		case 4:
			what = fmt.Sprintf("Refund %s @%v", id, localNow)
			got, want = l.Refund(at, id, localNow), m.Refund(at, id, localNow)
			twin = k.RefundLock(at, handles[id], localNow)
		case 5:
			what = fmt.Sprintf("SetCompact %v", x%2 == 0)
			l.SetCompact(x%2 == 0)
			k.SetCompact(x%2 == 0)
			m.compact = x%2 == 0
		case 6:
			what = fmt.Sprintf("SetByzantine %s %v", a, y%2 == 0)
			l.SetByzantine(l.PID(a), y%2 == 0)
			k.SetByzantine(k.PID(a), y%2 == 0)
			m.SetByzantine(a, y%2 == 0)
		case 7:
			name := []string{"e0", "e1"}[x%2]
			what = "Reset " + name
			l.Reset(name)
			k.Reset(name)
			m = newMapLedger(name)
		case 8:
			what = "State/FromState"
			l, m, k = FromState(l.State()), mapFromState(m.State()), FromState(k.State())
			// The rebuilt twin's locks are found the way a resumed traffic run
			// finds its flights' locks.
			clear(handles)
			for _, h := range k.Handles() {
				lk, _ := k.LockOf(h)
				handles[lk.ID] = h
			}
		case 9:
			what = "Lock " + id
			lk, ok := l.Lock(id)
			mk, mok := m.locks[id]
			if ok != mok || ok && !reflect.DeepEqual(lk, *mk) {
				t.Fatalf("step %d (%s): Lock reads %v %+v, the model %v %+v", step, what, ok, lk, mok, mk)
			}
			if kk, kok := k.Lock(id); kok != ok || !reflect.DeepEqual(kk, lk) {
				t.Fatalf("step %d (%s): the keyed twin's Lock reads %v %+v, the ledger's %v %+v", step, what, kok, kk, ok, lk)
			}
			if kk, kok := k.LockOf(handles[id]); kok && !reflect.DeepEqual(kk, lk) {
				t.Fatalf("step %d (%s): the twin's handle reads %+v, the ledger %+v", step, what, kk, lk)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s): ledger returns %v, the model %v", step, what, got, want)
		}
		if errClass(twin) != errClass(got) {
			t.Fatalf("step %d (%s): the keyed twin returns %v, the ledger %v", step, what, twin, got)
		}
		compareWithModel(t, step, what, l, m)
		compareTwins(t, step, what, l, k)
	}
}

// errClass is the ledger error err wraps, or nil: a stale handle's error does
// not name the lock an ID-addressed one names.
func errClass(err error) error {
	for _, class := range []error{
		ErrNoAccount, ErrInsufficientFunds, ErrNoSuchLock, ErrLockSettled, ErrBadAmount,
		ErrBadPreimage, ErrNotExpired, ErrExpired, ErrDuplicateLock, ErrDuplicateAccount,
	} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// compareTwins requires the keyed twin k to read as the ledger l does: the
// same balances, locks, totals, audit, operation count and capture.
func compareTwins(t testing.TB, step int, what string, l, k *Ledger) {
	t.Helper()
	for _, owner := range modelOwners {
		if got, want := k.Balance(k.PID(owner)), l.Balance(l.PID(owner)); got != want {
			t.Fatalf("step %d (%s): the keyed twin's Balance(%s) = %d, the ledger's %d", step, what, owner, got, want)
		}
	}
	if got, want := k.Locks(), l.Locks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (%s): the keyed twin's Locks = %+v, the ledger's %+v", step, what, got, want)
	}
	for _, pair := range [][2]any{
		{k.PendingCount(), l.PendingCount()},
		{k.EscrowedTotal(), l.EscrowedTotal()},
		{k.ByzantineEscrowed(), l.ByzantineEscrowed()},
		{k.OpCount(), l.OpCount()},
		{fmt.Sprint(k.Audit()), fmt.Sprint(l.Audit())},
		{k.String(), l.String()},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("step %d (%s): the keyed twin reads %v, the ledger %v", step, what, pair[0], pair[1])
		}
	}
	got, err := json.Marshal(k.State())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(l.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d (%s): the keyed twin's State\n%s\nthe ledger's\n%s", step, what, got, want)
	}
}

func compareWithModel(t testing.TB, step int, what string, l *Ledger, m *mapLedger) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): "+format, append([]any{step, what}, args...)...)
	}
	for _, owner := range modelOwners {
		if got, want := l.Balance(l.PID(owner)), m.accounts[owner]; got != want {
			fail("Balance(%s) = %d, the model %d", owner, got, want)
		}
		if got, want := l.HasAccount(l.PID(owner)), m.has(owner); got != want {
			fail("HasAccount(%s) = %v, the model %v", owner, got, want)
		}
	}
	if got, want := l.Accounts(), m.Accounts(); !reflect.DeepEqual(got, want) {
		fail("Accounts = %v, the model %v", got, want)
	}
	if got, want := l.Locks(), lockValues(m.Locks()); !reflect.DeepEqual(got, want) {
		fail("Locks = %+v, the model %+v", got, want)
	}
	if got, want := append([]Lock{}, l.PendingLocks()...), lockValues(m.PendingLocks()); !reflect.DeepEqual(got, want) {
		fail("PendingLocks = %+v, the model %+v", got, want)
	}
	if got, want := l.PendingCount(), len(m.PendingLocks()); got != want {
		fail("PendingCount = %d, the model %d", got, want)
	}
	if got, want := l.EscrowedTotal(), m.EscrowedTotal(); got != want {
		fail("EscrowedTotal = %d, the model %d", got, want)
	}
	if got, want := l.AccountsTotal(), m.AccountsTotal(); got != want {
		fail("AccountsTotal = %d, the model %d", got, want)
	}
	if got, want := l.ByzantineEscrowed(), m.byzEscrowed; got != want {
		fail("ByzantineEscrowed = %d, the model %d", got, want)
	}
	if got, want := l.OpCount(), m.opCount; got != want {
		fail("OpCount = %d, the model %d", got, want)
	}
	if got, want := fmt.Sprint(l.Audit()), fmt.Sprint(m.Audit()); got != want {
		fail("Audit = %s, the model %s", got, want)
	}
	got, err := json.Marshal(l.State())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		fail("State\n%s\nthe model's\n%s", got, want)
	}
}

func lockValues(locks []*Lock) []Lock {
	out := make([]Lock, len(locks))
	for i, lk := range locks {
		out[i] = *lk
	}
	return out
}

// TestLedgerMatchesMapModel drives random programs through the ledger and
// through the map-based model it replaced: every step must read the same.
func TestLedgerMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	program := make([]byte, 5*400)
	for run := 0; run < 120; run++ {
		rng.Read(program)
		// Bias kinds toward the book-keeping that builds state: accounts,
		// mints and locks, so that settles find something to settle.
		for i := 0; i < len(program); i += 5 {
			if program[i]%3 == 0 {
				program[i] = []byte{0, 1, 1, 2, 2, 2}[program[i+1]%6]
			}
		}
		driveLedgers(t, program)
	}
}

// FuzzLedgerOps is TestLedgerMatchesMapModel under the native fuzzing
// engine: any program, the same reading step for step — for the ledger
// against the model and for the keyed twin, which settles by handle,
// against the ledger.
func FuzzLedgerOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		0, 0, 0, 0, 0, // CreateAccount alice
		0, 1, 0, 0, 0, // CreateAccount bob
		1, 0, 0, 50, 0, // Mint alice 50
		2, 0, 1, 10, 0, // CreateLock a#0 alice->bob 10
		2, 0, 1, 10, 1, // CreateLock a#1
		5, 0, 0, 0, 0, // SetCompact on
		3, 0, 4, 0, 0, // Release a#0
		6, 0, 0, 0, 0, // SetByzantine alice
		2, 0, 1, 5, 0, // CreateLock a#0 again
		8, 0, 0, 0, 0, // State/FromState
		4, 0, 4, 0, 1, // Refund a#1
		7, 0, 0, 0, 0, // Reset
	})
	f.Add([]byte{
		0, 0, 0, 0, 0, // CreateAccount alice
		0, 1, 0, 0, 0, // CreateAccount bob
		1, 0, 0, 60, 0, // Mint alice 60
		2, 0, 1, 10, 4, // CreateLock b#1 alice->bob 10
		2, 0, 1, 10, 5, // CreateLock b#12
		9, 0, 0, 0, 4, // Lock b#1
		3, 0, 4, 0, 5, // Release b#12
		3, 0, 4, 0, 5, // Release b#12 again: settled
		5, 0, 0, 0, 0, // SetCompact on
		4, 0, 4, 0, 4, // Refund b#1: forgotten
		4, 0, 4, 0, 4, // Refund b#1 again: no such lock
		2, 0, 1, 10, 4, // CreateLock b#1 anew
		8, 0, 0, 0, 0, // State/FromState
		3, 0, 4, 0, 4, // Release b#1 through the rebuilt twin's handle
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		driveLedgers(t, program)
	})
}
