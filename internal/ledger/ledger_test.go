package ledger

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newFunded(t *testing.T) *Ledger {
	t.Helper()
	l := New("e0")
	for _, acct := range []string{"alice", "bob", "escrow"} {
		if err := l.CreateAccount(acct); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Mint(0, "alice", 1000); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAccountsAndMint(t *testing.T) {
	l := newFunded(t)
	if !l.HasAccount(l.PID("alice")) || l.HasAccount(l.PID("nobody")) {
		t.Fatal("HasAccount wrong")
	}
	if err := l.CreateAccount("alice"); !errors.Is(err, ErrDuplicateAccount) {
		t.Fatalf("duplicate account error = %v", err)
	}
	if err := l.Mint(0, "alice", 0); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("zero mint error = %v", err)
	}
	if got := l.Balance(l.PID("alice")); got != 1000 {
		t.Fatalf("balance %d", got)
	}
	if got := l.Accounts(); len(got) != 3 || got[0] != "alice" {
		t.Fatalf("accounts %v", got)
	}
	if l.Minted() != 1000 || l.Name() != "e0" || l.String() == "" {
		t.Fatal("metadata accessors wrong")
	}
}

func TestLockReleaseRefund(t *testing.T) {
	l := newFunded(t)
	h, err := l.CreateLock(1, "L1", "alice", "bob", 400, Condition{})
	if err != nil {
		t.Fatal(err)
	}
	if lk, ok := l.LockOf(h); !ok || lk.State != LockPending || l.Balance(l.PID("alice")) != 600 || l.EscrowedTotal() != 400 {
		t.Fatal("lock accounting wrong")
	}
	if _, err := l.CreateLock(2, "L1", "alice", "bob", 1, Condition{}); !errors.Is(err, ErrDuplicateLock) {
		t.Fatalf("duplicate lock error = %v", err)
	}
	if err := l.Release(3, "L1", nil, 0); err != nil {
		t.Fatal(err)
	}
	if l.Balance(l.PID("bob")) != 400 || l.EscrowedTotal() != 0 {
		t.Fatal("release accounting wrong")
	}
	if err := l.Release(4, "L1", nil, 0); !errors.Is(err, ErrLockSettled) {
		t.Fatalf("double release error = %v", err)
	}
	if err := l.Refund(5, "L1", 0); !errors.Is(err, ErrLockSettled) || err.Error() != "ledger: escrow lock already settled: L1 is released" {
		t.Fatalf("refund after release error = %v", err)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}

	// Refund path.
	if _, err := l.CreateLock(6, "L2", "alice", "bob", 100, Condition{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund(7, "L2", 0); err != nil {
		t.Fatal(err)
	}
	if l.Balance(l.PID("alice")) != 600 {
		t.Fatalf("refund did not restore alice: %d", l.Balance(l.PID("alice")))
	}
	if got := len(l.Locks()); got != 2 {
		t.Fatalf("lock count %d", got)
	}
	if got := len(l.PendingLocks()); got != 0 {
		t.Fatalf("pending lock count %d", got)
	}
	if got := len(l.Ops()); got == 0 {
		t.Fatal("operation log empty")
	}
}

func TestLockErrors(t *testing.T) {
	l := newFunded(t)
	if _, err := l.CreateLock(0, "X", "alice", "bob", 0, Condition{}); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("bad amount error = %v", err)
	}
	if _, err := l.CreateLock(0, "X", "nobody", "bob", 10, Condition{}); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("unknown payer error = %v", err)
	}
	if _, err := l.CreateLock(0, "X", "alice", "nobody", 10, Condition{}); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("unknown payee error = %v", err)
	}
	if _, err := l.CreateLock(0, "X", "bob", "alice", 10, Condition{}); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("unfunded payer error = %v", err)
	}
	if err := l.Release(0, "missing", nil, 0); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("missing lock error = %v", err)
	}
	if err := l.Refund(0, "missing", 0); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("missing lock refund error = %v", err)
	}
}

func TestHashPreimage(t *testing.T) {
	pre := []byte("open sesame")
	lock := HashPreimage(pre)
	if !CheckPreimage(lock[:], pre) {
		t.Fatal("correct preimage rejected")
	}
	if CheckPreimage(lock[:], []byte("wrong")) {
		t.Fatal("wrong preimage accepted")
	}
	if CheckPreimage([]byte("short"), pre) {
		t.Fatal("malformed lock accepted")
	}
}

func TestHashlockAndExpiryConditions(t *testing.T) {
	l := newFunded(t)
	preimage := []byte("secret")
	lock := HashPreimage(preimage)
	cond := Condition{HashLock: lock[:], Expiry: 100 * sim.Millisecond}
	if _, err := l.CreateLock(1, "H", "alice", "bob", 100, cond); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(2, "H", []byte("wrong"), 10*sim.Millisecond); !errors.Is(err, ErrBadPreimage) {
		t.Fatalf("wrong preimage error = %v", err)
	}
	if err := l.Refund(3, "H", 10*sim.Millisecond); !errors.Is(err, ErrNotExpired) {
		t.Fatalf("early refund error = %v", err)
	}
	if err := l.Release(4, "H", preimage, 200*sim.Millisecond); !errors.Is(err, ErrExpired) {
		t.Fatalf("late release error = %v", err)
	}
	if err := l.Release(5, "H", preimage, 50*sim.Millisecond); err != nil {
		t.Fatalf("valid claim rejected: %v", err)
	}

	if _, err := l.CreateLock(6, "H2", "alice", "bob", 100, cond); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund(7, "H2", 150*sim.Millisecond); err != nil {
		t.Fatalf("post-expiry refund rejected: %v", err)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestBook(t *testing.T) {
	b := NewBook()
	l0, l1 := New("e0"), New("e1")
	b.Add(l0)
	b.Add(l1)
	if err := l0.Mint(0, "alice", 50); err != nil {
		t.Fatal(err)
	}
	if err := l1.Mint(0, "alice", 70); err != nil {
		t.Fatal(err)
	}
	if got := b.SnapshotWealth()["alice"]; got != 120 {
		t.Fatalf("wealth %d", got)
	}
	if got := b.Names(); len(got) != 2 || got[0] != "e0" {
		t.Fatalf("names %v", got)
	}
	if _, ok := b.Get("e0"); !ok {
		t.Fatal("Get failed")
	}
	if _, ok := b.Get("missing"); ok {
		t.Fatal("Get found a missing ledger")
	}
	if b.TotalOps() != 2 {
		t.Fatalf("TotalOps %d", b.TotalOps())
	}
	if got := b.Ledgers(); len(got) != 2 || got[0] != l0 || got[1] != l1 {
		t.Fatalf("Ledgers %v, want the two in registration order", got)
	}
	again := New("e0")
	b.Add(again)
	if got := b.Ledgers(); len(got) != 2 || got[0] != again || got[1] != l1 {
		t.Fatalf("Ledgers %v after e0 was registered again, want it in e0's place", got)
	}
	b.Add(l0)
	if _, err := l1.CreateLock(1, "k", "alice", "alice", 5, Condition{}); err != nil {
		t.Fatal(err)
	}
	if mints, locks, refunds := b.CountOps(OpMint), b.CountOps(OpLock), b.CountOps(OpRefund); mints != 2 || locks != 1 || refunds != 0 {
		t.Fatalf("CountOps: %d mints, %d locks, %d refunds", mints, locks, refunds)
	}
	if err := b.AuditAll(); err != nil {
		t.Fatal(err)
	}
	snap := b.SnapshotWealth()
	if snap["alice"] != 115 {
		t.Fatalf("snapshot %v", snap)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on a missing ledger did not panic")
		}
	}()
	b.MustGet("missing")
}

// TestPropertyConservation is the core safety invariant of the escrow
// substrate: under any sequence of valid operations, minted value equals
// available value plus escrowed value, and no balance goes negative.
func TestPropertyConservation(t *testing.T) {
	type step struct {
		Kind    uint8
		A, B    uint8
		Amount  uint16
		LockRef uint8
	}
	accounts := []string{"a", "b", "c", "d"}
	f := func(steps []step) bool {
		l := New("prop")
		for _, acct := range accounts {
			if err := l.CreateAccount(acct); err != nil {
				return false
			}
		}
		var lockIDs []string
		for i, s := range steps {
			from := accounts[int(s.A)%len(accounts)]
			to := accounts[int(s.B)%len(accounts)]
			amount := int64(s.Amount)%500 + 1
			switch s.Kind % 4 {
			case 0:
				_ = l.Mint(sim.Time(i), from, amount)
			case 1:
				id := string(rune('L')) + string(rune('0'+len(lockIDs)%10)) + string(rune('0'+len(lockIDs)/10))
				if _, err := l.CreateLock(sim.Time(i), id, from, to, amount, Condition{}); err == nil {
					lockIDs = append(lockIDs, id)
				}
			case 2:
				if len(lockIDs) > 0 {
					_ = l.Release(sim.Time(i), lockIDs[int(s.LockRef)%len(lockIDs)], nil, 0)
				}
			case 3:
				if len(lockIDs) > 0 {
					_ = l.Refund(sim.Time(i), lockIDs[int(s.LockRef)%len(lockIDs)], 0)
				}
			}
			if err := l.Audit(); err != nil {
				t.Logf("audit failed after step %d: %v", i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCompaction checks the constant-memory mode used by traffic ledgers:
// settled locks are forgotten and ops are counted but not retained, while
// balances, pending locks and the conservation audit are unaffected.
func TestCompaction(t *testing.T) {
	full := New("e0")
	compact := New("e0")
	compact.SetCompact(true)
	if full.Compact() || !compact.Compact() {
		t.Fatal("compaction flag wrong")
	}
	for _, l := range []*Ledger{full, compact} {
		if err := l.Mint(0, "alice", 10_000); err != nil {
			t.Fatal(err)
		}
		if err := l.CreateAccount("bob"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("lk%d", i)
			if _, err := l.CreateLock(sim.Time(i), id, "alice", "bob", 10, Condition{}); err != nil {
				t.Fatal(err)
			}
			var err error
			if i%2 == 0 {
				err = l.Release(sim.Time(i+1), id, nil, sim.Time(i+1))
			} else {
				err = l.Refund(sim.Time(i+1), id, sim.Time(i+1))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.CreateLock(1000, "pending", "alice", "bob", 7, Condition{}); err != nil {
			t.Fatal(err)
		}
	}
	// Identical observable state...
	if full.Balance(full.PID("alice")) != compact.Balance(compact.PID("alice")) || full.Balance(full.PID("bob")) != compact.Balance(compact.PID("bob")) {
		t.Fatal("balances diverge under compaction")
	}
	if full.EscrowedTotal() != compact.EscrowedTotal() || compact.EscrowedTotal() != 7 {
		t.Fatal("pending escrow diverges under compaction")
	}
	if len(full.PendingLocks()) != 1 || len(compact.PendingLocks()) != 1 {
		t.Fatal("pending locks diverge under compaction")
	}
	if full.OpCount() != compact.OpCount() {
		t.Fatalf("op counts diverge: %d vs %d", full.OpCount(), compact.OpCount())
	}
	if err := full.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := compact.Audit(); err != nil {
		t.Fatal(err)
	}
	// ...but history is dropped: only the pending lock and no ops retained.
	if got := len(compact.Locks()); got != 1 {
		t.Fatalf("compacted ledger retains %d locks, want 1", got)
	}
	if got := len(compact.Ops()); got != 0 {
		t.Fatalf("compacted ledger retains %d ops, want 0", got)
	}
	if compact.SettledForgotten() != 100 {
		t.Fatalf("forgot %d settled locks, want 100", compact.SettledForgotten())
	}
	if got := len(full.Locks()); got != 101 {
		t.Fatalf("full ledger retains %d locks, want 101", got)
	}
	if len(full.Ops()) != full.OpCount() {
		t.Fatal("full ledger op log incomplete")
	}
	// A forgotten lock ID cannot be settled twice.
	if err := compact.Release(2000, "lk0", nil, 2000); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("double settle of forgotten lock = %v", err)
	}
	// Book.TotalOps counts dropped entries too.
	b := NewBook()
	b.Add(compact)
	if b.TotalOps() != compact.OpCount() {
		t.Fatal("TotalOps ignores compacted ops")
	}
}

// TestCompactionRecyclesLockRecords: a compacting ledger hands a settled
// lock's record to the next CreateLock, so a steady lock-settle cycle (the
// traffic timeline's) allocates no lock.
func TestCompactionRecyclesLockRecords(t *testing.T) {
	l := New("e0")
	l.SetCompact(true)
	if err := l.Mint(0, "alice", 1_000); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateAccount("bob"); err != nil {
		t.Fatal(err)
	}
	first, err := l.CreateLock(1, "a", "alice", "bob", 10, Condition{Expiry: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Refund(6, "a", 6); err != nil {
		t.Fatal(err)
	}
	second, err := l.CreateLock(7, "b", "alice", "bob", 20, Condition{})
	if err != nil {
		t.Fatal(err)
	}
	if second.rec != first.rec {
		t.Fatal("the forgotten lock's record was not reused")
	}
	if _, ok := l.LockOf(first); ok {
		t.Fatal("the forgotten lock's handle still addresses its reused record")
	}
	if got, _ := l.LockOf(second); !reflect.DeepEqual(got, Lock{ID: "b", Payer: "alice", Payee: "bob", Amount: 20, CreatedAt: 7, State: LockPending}) {
		t.Fatalf("reused record reads %+v", got)
	}
	if err := l.Release(8, "b", nil, 8); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.CreateLock(9, "c", "alice", "bob", 1, Condition{}); err != nil {
			t.Fatal(err)
		}
		if err := l.Release(9, "c", nil, 9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a lock-release cycle on a compacting ledger allocates %.0f times", allocs)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditNamesFirstNegativeInLedgerOrder: of two negative balances Audit
// names the first in the ledger's own order — capture order after FromState,
// not owner order — and the same one every time.
func TestAuditNamesFirstNegativeInLedgerOrder(t *testing.T) {
	l := FromState(LedgerState{Name: "e0", Accounts: []AccountState{
		{Owner: "zed", Balance: -5}, {Owner: "amy", Balance: -3}, {Owner: "bob", Balance: 8},
	}})
	const want = "ledger e0: negative balance for zed: -5"
	for i := 0; i < 100; i++ {
		if err := l.Audit(); err == nil || err.Error() != want {
			t.Fatalf("Audit call %d: %v, want %s", i, err, want)
		}
	}
}

// TestCompactLockChurnAllocatesNothing: settling a lock through its handle on
// a compacting ledger that holds thousands of pending ones unlinks it in
// place, and the next lock takes its record: a keyed lock-settle cycle (the
// traffic timeline's) allocates nothing and renders no ID.
func TestCompactLockChurnAllocatesNothing(t *testing.T) {
	l := New("e0")
	l.SetCompact(true)
	if err := l.Mint(0, "alice", 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateAccount("bob"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := l.CreateLock(1, fmt.Sprintf("pending-%d", i), "alice", "bob", 1, Condition{}); err != nil {
			t.Fatal(err)
		}
	}
	alice, bob := l.PID("alice"), l.PID("bob")
	hop := 0
	allocs := testing.AllocsPerRun(1000, func() {
		hop++
		h, err := l.EscrowHop(2, "churn", hop, alice, bob, 1, Condition{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ReleaseLock(3, h, nil, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a lock-release cycle beside 5000 pending locks allocates %.1f times", allocs)
	}
	if l.PendingCount() != 5000 || l.EscrowedTotal() != 5000 {
		t.Fatalf("%d locks pending holding %d, want 5000 and 5000", l.PendingCount(), l.EscrowedTotal())
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestResetReusesPendingLocks: the lock records a run left pending — and
// its settled ones, which a full-history ledger keeps — are what the next
// run's locks are written into, so a run repeated on a reset ledger
// allocates nothing.
func TestResetReusesPendingLocks(t *testing.T) {
	l := New("e0")
	ids := []string{"L0", "L1", "L2"}
	run := func() {
		l.Reset("e0")
		if err := l.Mint(0, "alice", 100); err != nil {
			t.Fatal(err)
		}
		if err := l.CreateAccount("bob"); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if _, err := l.CreateLock(1, id, "alice", "bob", 10, Condition{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Release(2, "L0", nil, 2); err != nil {
			t.Fatal(err)
		}
	}
	run()
	first := map[*lockRec]bool{}
	for lk := l.head.next; lk != nil; lk = lk.next {
		first[lk] = true
	}
	run()
	for lk := l.head.next; lk != nil; lk = lk.next {
		if !first[lk] {
			t.Fatalf("lock %s was written into a new record after Reset", lk.id())
		}
	}
	if l.PendingCount() != 2 {
		t.Fatalf("%d locks pending, want 2", l.PendingCount())
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a run on a reset ledger allocates %.1f times", allocs)
	}
}

// TestRestoreReturnsToMark: a ledger restored to its mark reads as a new
// ledger set up the same way — accounts, balances, log, totals, audit, no
// lock — whatever ran on it since, and a handle from before the Restore
// settles nothing; after a Reset, Restore returns to the empty ledger.
func TestRestoreReturnsToMark(t *testing.T) {
	setUp := func(l *Ledger, amount int64) {
		l.Reset("e0")
		for _, acct := range []string{"alice", "bob"} {
			if err := l.Mint(0, acct, amount); err != nil {
				t.Fatal(err)
			}
		}
	}
	view := func(l *Ledger) string {
		alice, bob := l.PID("alice"), l.PID("bob")
		return fmt.Sprintf("%s %v %d %d %v %d %d %d %v", l.Name(), l.Accounts(), l.Balance(alice), l.Balance(bob),
			l.Ops(), l.OpCount(), l.Minted(), l.PendingCount(), l.Audit())
	}
	fresh := New("")
	setUp(fresh, 100)
	want := view(fresh)
	l := New("")
	setUp(l, 100)
	l.Mark()
	var prev Handle
	for round := 0; round < 3; round++ {
		l.Restore()
		if got := view(l); got != want {
			t.Fatalf("round %d: restored ledger reads\n%s\nnew one\n%s", round, got, want)
		}
		if err := l.ReleaseLock(3, prev, nil, 3); !errors.Is(err, ErrNoSuchLock) {
			t.Fatalf("round %d: a handle from before the Restore settled: %v", round, err)
		}
		h, err := l.CreateLock(1, "L", "alice", "bob", 10, Condition{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Mint(2, "carol", 5); err != nil {
			t.Fatal(err)
		}
		prev = h
	}
	l.Reset("e0")
	l.Restore()
	if got, want := view(l), view(New("e0")); got != want {
		t.Fatalf("Restore after Reset reads\n%s\nwant\n%s", got, want)
	}
}

// TestAuditAllNamesFirstFailingLedgerByName: registration order does not
// decide which failing ledger AuditAll reports; the name does.
func TestAuditAllNamesFirstFailingLedgerByName(t *testing.T) {
	bad := func(name string) *Ledger {
		return FromState(LedgerState{Name: name, Accounts: []AccountState{{Owner: "c0", Balance: -1}}, Minted: -1})
	}
	b := NewBook()
	b.Add(New("e2"))
	b.Add(bad("e1"))
	b.Add(bad("e0"))
	if err := b.AuditAll(); err == nil || err.Error() != "ledger e0: negative balance for c0: -1" {
		t.Fatalf("AuditAll = %v, want e0's negative balance", err)
	}
}

// TestHeldLocksReadAsRecorded runs one sequence of locks and settlements on
// two compacting ledgers, recorded (EscrowHop, ReleaseLock, RefundLock) on
// one and held (Hold, ReleaseHold, RefundHold) on the other, with a
// Byzantine mark in between, and requires them to read alike everywhere but
// the lock list; then a capture of the held ledger settles on as it does,
// and the refusals.
func TestHeldLocksReadAsRecorded(t *testing.T) {
	mk := func() *Ledger {
		l := New("e0")
		l.SetCompact(true)
		if err := l.Mint(0, "alice", 1_000); err != nil {
			t.Fatal(err)
		}
		if err := l.CreateAccount("bob"); err != nil {
			t.Fatal(err)
		}
		return l
	}
	rec, held := mk(), mk()
	alice, bob := rec.PID("alice"), rec.PID("bob")
	var hs []Handle
	for i, amount := range []int64{10, 20, 30, 40} {
		h, err := rec.EscrowHop(1, "p", i, alice, bob, amount, Condition{})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		if err := held.Hold(alice, bob, amount); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			rec.SetByzantine(alice, true)
			held.SetByzantine(alice, true)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rec.ReleaseLock(2, hs[0], nil, 2))
	must(held.ReleaseHold(alice, bob, 10))
	must(rec.RefundLock(2, hs[2], 2))
	must(held.RefundHold(alice, 30))
	read := func(l *Ledger) []any {
		return []any{l.Balance(alice), l.Balance(bob), l.EscrowedTotal(), l.PendingCount(), l.ByzantineEscrowed(),
			l.Audit(), l.OpCount(), l.SettledForgotten(), l.String()}
	}
	if got, want := read(held), read(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("held ledger reads %v, recorded one %v", got, want)
	}
	if len(held.Locks()) != 0 || len(rec.Locks()) != 2 {
		t.Fatalf("held ledger lists %d locks, recorded one %d", len(held.Locks()), len(rec.Locks()))
	}

	restored := FromState(held.State())
	must(restored.ReleaseHold(alice, bob, 20))
	must(held.ReleaseHold(alice, bob, 20))
	must(restored.ReleaseHold(alice, bob, 40))
	must(held.ReleaseHold(alice, bob, 40))
	if got, want := read(restored), read(held); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored ledger reads %v, held one %v", got, want)
	}

	if err := held.RefundHold(alice, 1); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("refunding more than is held: %v", err)
	}
	if err := held.Hold(alice, bob, 0); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("holding nothing: %v", err)
	}
	if err := newFunded(t).Hold(alice, bob, 1); !errors.Is(err, ErrHoldNotCompact) {
		t.Fatalf("holding on a ledger that keeps its log: %v", err)
	}
}
