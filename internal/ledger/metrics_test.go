package ledger

import (
	"testing"

	"repro/internal/metrics"
)

// An instrumented ledger counts lock transitions and ops, and keeps the
// liquidity gauges consistent with AccountsTotal/EscrowedTotal through the
// full mint -> lock -> release/refund lifecycle.
func TestLedgerMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	l := New("e0")
	m := MetricsFrom(r, "traffic")
	m.Available = r.Gauge(MetricLiquidityAvailable, "Available.", "ledger", l.Name())
	m.Escrowed = r.Gauge(MetricLiquidityEscrowed, "Escrowed.", "ledger", l.Name())
	l.SetMetrics(m)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.CreateAccount("alice"))
	must(l.CreateAccount("bob"))
	must(l.Mint(0, "alice", 1000))
	_, err := l.CreateLock(1, "lk1", "alice", "bob", 300, Condition{})
	must(err)
	_, err = l.CreateLock(2, "lk2", "alice", "bob", 200, Condition{})
	must(err)

	if got := m.Available.Value(); got != 500 {
		t.Errorf("available gauge = %v, want 500", got)
	}
	if got := m.Escrowed.Value(); got != 500 {
		t.Errorf("escrowed gauge = %v, want 500", got)
	}

	must(l.Release(3, "lk1", nil, 3))
	must(l.Refund(4, "lk2", 4))

	if got := m.Available.Value(); got != float64(l.AccountsTotal()) {
		t.Errorf("available gauge = %v, ledger says %d", got, l.AccountsTotal())
	}
	if got := m.Escrowed.Value(); got != float64(l.EscrowedTotal()) {
		t.Errorf("escrowed gauge = %v, ledger says %d", got, l.EscrowedTotal())
	}
	if got := m.LocksCreated.Value(); got != 2 {
		t.Errorf("locks created = %d, want 2", got)
	}
	if got := m.LocksReleased.Value(); got != 1 {
		t.Errorf("locks released = %d, want 1", got)
	}
	if got := m.LocksRefunded.Value(); got != 1 {
		t.Errorf("locks refunded = %d, want 1", got)
	}
	if got := m.Ops.Value(); got != uint64(l.OpCount()) {
		t.Errorf("ops counter = %d, ledger says %d", got, l.OpCount())
	}
	// Failed operations observe nothing: a rejected lock must not move gauges.
	if _, err := l.CreateLock(5, "lk3", "alice", "bob", 1_000_000, Condition{}); err == nil {
		t.Fatal("expected insufficient funds")
	}
	if got := m.LocksCreated.Value(); got != 2 {
		t.Errorf("failed lock incremented counter: %d", got)
	}
}

// SetByzantine sweeps pending locks into the Byzantine-held total when an
// owner is marked, maintains it in O(1) through the lock lifecycle, keeps
// the per-book gauge in sync, and sweeps back out on unmark.
func TestLedgerByzantineHeld(t *testing.T) {
	r := metrics.NewRegistry()
	l := New("e1")
	m := MetricsFrom(r, "traffic")
	m.ByzantineEscrowed = r.Gauge(MetricLiquidityByzantine, "Byzantine-held.", "ledger", l.Name())
	l.SetMetrics(m)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(want int64) {
		t.Helper()
		if got := l.ByzantineEscrowed(); got != want {
			t.Fatalf("ByzantineEscrowed() = %d, want %d", got, want)
		}
		if got := m.ByzantineEscrowed.Value(); got != float64(want) {
			t.Fatalf("byzantine gauge = %v, want %d", got, want)
		}
	}

	must(l.CreateAccount("mallory"))
	must(l.CreateAccount("alice"))
	must(l.CreateAccount("bob"))
	must(l.Mint(0, "mallory", 1000))
	must(l.Mint(0, "alice", 1000))

	// A pending lock created before the mark is swept in by SetByzantine.
	_, err := l.CreateLock(1, "pre", "mallory", "bob", 300, Condition{})
	must(err)
	check(0)
	l.SetByzantine(l.PID("mallory"), true)
	check(300)
	l.SetByzantine(l.PID("mallory"), true) // idempotent: no double count
	check(300)

	// Locks created while marked join the total in O(1); honest owners never do.
	_, err = l.CreateLock(2, "during", "mallory", "bob", 200, Condition{})
	must(err)
	_, err = l.CreateLock(3, "honest", "alice", "bob", 400, Condition{})
	must(err)
	check(500)

	// Release and refund both drain the Byzantine share as locks settle.
	must(l.Release(4, "pre", nil, 4))
	check(200)
	must(l.Refund(5, "during", 5))
	check(0)

	// Unmarking sweeps remaining pending locks back out.
	_, err = l.CreateLock(6, "late", "mallory", "bob", 150, Condition{})
	must(err)
	check(150)
	l.SetByzantine(l.PID("mallory"), false)
	check(0)
	if got := l.EscrowedTotal(); got != 550 {
		t.Fatalf("EscrowedTotal() = %d, want 550 (marking must not move balances)", got)
	}
}
