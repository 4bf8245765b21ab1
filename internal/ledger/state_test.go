package ledger

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// buildBusyLedger produces a compacted ledger mid-flight: minted accounts,
// settled history, pending locks (one Byzantine-held), marks.
func buildBusyLedger(t *testing.T) *Ledger {
	t.Helper()
	l := New("e0")
	l.SetCompact(true)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Mint(0, "alice", 1000))
	must(l.Mint(0, "bob", 500))
	must(l.Mint(0, "mallory", 700))
	_, err := l.CreateLock(10, "lk-settled", "alice", "bob", 100, Condition{})
	must(err)
	must(l.Release(20, "lk-settled", nil, 20))
	_, err = l.CreateLock(30, "lk-refunded", "bob", "alice", 50, Condition{})
	must(err)
	must(l.Refund(40, "lk-refunded", 40))
	_, err = l.CreateLock(50, "lk-pending", "alice", "bob", 200, Condition{Expiry: 500})
	must(err)
	_, err = l.CreateLock(55, "lk-evil", "mallory", "bob", 300, Condition{})
	must(err)
	l.SetByzantine(l.PID("mallory"), true)
	return l
}

// TestLedgerStateRoundTrip captures a busy ledger, rebuilds it, and checks
// the rebuilt ledger is operationally identical: same audit totals, same
// behaviour on the still-pending locks, same Byzantine accounting.
func TestLedgerStateRoundTrip(t *testing.T) {
	drive := func(l *Ledger) {
		// Continue the run identically on original and restored ledgers.
		if err := l.Release(100, "lk-pending", nil, 100); err != nil {
			t.Fatalf("release pending: %v", err)
		}
		l.SetByzantine(l.PID("mallory"), false)
		if err := l.Refund(600, "lk-evil", 600); err != nil {
			t.Fatalf("refund evil: %v", err)
		}
		if err := l.Audit(); err != nil {
			t.Fatal(err)
		}
	}

	orig := buildBusyLedger(t)
	restored := FromState(orig.State())

	if restored.Name() != "e0" || !restored.Compact() {
		t.Fatalf("identity lost: name=%q compact=%v", restored.Name(), restored.Compact())
	}
	if restored.ByzantineEscrowed() != orig.ByzantineEscrowed() {
		t.Fatalf("byz escrowed %d, want %d", restored.ByzantineEscrowed(), orig.ByzantineEscrowed())
	}
	if restored.OpCount() != orig.OpCount() || restored.SettledForgotten() != orig.SettledForgotten() {
		t.Fatalf("history counters diverge: ops %d/%d settled %d/%d",
			restored.OpCount(), orig.OpCount(), restored.SettledForgotten(), orig.SettledForgotten())
	}

	drive(orig)
	drive(restored)

	for _, owner := range []string{"alice", "bob", "mallory"} {
		if restored.Balance(restored.PID(owner)) != orig.Balance(orig.PID(owner)) {
			t.Fatalf("%s balance %d, want %d", owner, restored.Balance(restored.PID(owner)), orig.Balance(orig.PID(owner)))
		}
	}
	if restored.Minted() != orig.Minted() || restored.EscrowedTotal() != orig.EscrowedTotal() {
		t.Fatalf("totals diverge after drive: minted %d/%d escrowed %d/%d",
			restored.Minted(), orig.Minted(), restored.EscrowedTotal(), orig.EscrowedTotal())
	}
}

// TestLedgerStateDeterministicSerialisation pins that two captures of the
// same ledger serialise byte-identically (the checksum of a checkpoint
// depends on it) and that captured locks are value copies.
func TestLedgerStateDeterministicSerialisation(t *testing.T) {
	l := buildBusyLedger(t)
	a, err := json.Marshal(l.State())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(l.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("captures differ:\n%s\n%s", a, b)
	}

	st := l.State()
	if err := l.Release(100, "lk-pending", nil, 100); err != nil {
		t.Fatal(err)
	}
	var rt LedgerState
	if err := json.Unmarshal(a, &rt); err != nil {
		t.Fatal(err)
	}
	for i, lk := range st.Locks {
		if lk.ID == "lk-pending" && lk.State != LockPending {
			t.Fatal("capture aliased live lock state")
		}
		if rt.Locks[i].ID != lk.ID || rt.Locks[i].State != lk.State {
			t.Fatalf("JSON round trip lost lock %d: %+v vs %+v", i, rt.Locks[i], lk)
		}
	}
}

// TestLedgerStateRetainsOps covers the non-compacted path: the retained op
// log survives the round trip.
func TestLedgerStateRetainsOps(t *testing.T) {
	l := New("e1")
	if err := l.Mint(0, "alice", 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer(sim.Millisecond, l.PID("alice"), l.PID("alice"), 5); err != nil {
		t.Fatal(err)
	}
	r := FromState(l.State())
	if len(r.Ops()) != 2 || r.Ops()[1].Kind != OpTransfer {
		t.Fatalf("ops lost in round trip: %+v", r.Ops())
	}
}
