package ledger

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sig"
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
	if !l.HasAccount("alice") || l.HasAccount("nobody") {
		t.Fatal("HasAccount wrong")
	}
	if err := l.CreateAccount("alice"); !errors.Is(err, ErrDuplicateAccount) {
		t.Fatalf("duplicate account error = %v", err)
	}
	if err := l.Mint(0, "alice", 0); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("zero mint error = %v", err)
	}
	if got := l.Balance("alice"); got != 1000 {
		t.Fatalf("balance %d", got)
	}
	if got := l.Accounts(); len(got) != 3 || got[0] != "alice" {
		t.Fatalf("accounts %v", got)
	}
	if l.Minted() != 1000 || l.Name() != "e0" || l.String() == "" {
		t.Fatal("metadata accessors wrong")
	}
}

func TestTransfer(t *testing.T) {
	l := newFunded(t)
	if err := l.Transfer(1, "alice", "bob", 300); err != nil {
		t.Fatal(err)
	}
	if l.Balance("alice") != 700 || l.Balance("bob") != 300 {
		t.Fatal("balances wrong after transfer")
	}
	if err := l.Transfer(2, "alice", "bob", 10_000); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdraft error = %v", err)
	}
	if err := l.Transfer(3, "alice", "nobody", 1); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("unknown account error = %v", err)
	}
	if err := l.Transfer(4, "alice", "bob", -5); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("negative amount error = %v", err)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseRefund(t *testing.T) {
	l := newFunded(t)
	lk, err := l.CreateLock(1, "L1", "alice", "bob", 400, Condition{})
	if err != nil {
		t.Fatal(err)
	}
	if lk.State != LockPending || l.Balance("alice") != 600 || l.EscrowedTotal() != 400 {
		t.Fatal("lock accounting wrong")
	}
	if _, err := l.CreateLock(2, "L1", "alice", "bob", 1, Condition{}); !errors.Is(err, ErrDuplicateLock) {
		t.Fatalf("duplicate lock error = %v", err)
	}
	if err := l.Release(3, "L1", nil, 0); err != nil {
		t.Fatal(err)
	}
	if l.Balance("bob") != 400 || l.EscrowedTotal() != 0 {
		t.Fatal("release accounting wrong")
	}
	if err := l.Release(4, "L1", nil, 0); !errors.Is(err, ErrLockSettled) {
		t.Fatalf("double release error = %v", err)
	}
	if err := l.Refund(5, "L1", 0); !errors.Is(err, ErrLockSettled) {
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
	if l.Balance("alice") != 600 {
		t.Fatalf("refund did not restore alice: %d", l.Balance("alice"))
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

func TestHashlockAndExpiryConditions(t *testing.T) {
	l := newFunded(t)
	preimage := []byte("secret")
	cond := Condition{HashLock: sig.HashPreimage(preimage), Expiry: 100 * sim.Millisecond}
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
			switch s.Kind % 5 {
			case 0:
				_ = l.Mint(sim.Time(i), from, amount)
			case 1:
				_ = l.Transfer(sim.Time(i), from, to, amount)
			case 2:
				id := string(rune('L')) + string(rune('0'+len(lockIDs)%10)) + string(rune('0'+len(lockIDs)/10))
				if _, err := l.CreateLock(sim.Time(i), id, from, to, amount, Condition{}); err == nil {
					lockIDs = append(lockIDs, id)
				}
			case 3:
				if len(lockIDs) > 0 {
					_ = l.Release(sim.Time(i), lockIDs[int(s.LockRef)%len(lockIDs)], nil, 0)
				}
			case 4:
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
	if full.Balance("alice") != compact.Balance("alice") || full.Balance("bob") != compact.Balance("bob") {
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
	if second != first {
		t.Fatal("the forgotten lock's record was not reused")
	}
	if want := (Lock{ID: "b", Payer: "alice", Payee: "bob", Amount: 20, CreatedAt: 7, State: LockPending}); !reflect.DeepEqual(*second, want) {
		t.Fatalf("reused record reads %+v, want %+v", *second, want)
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
