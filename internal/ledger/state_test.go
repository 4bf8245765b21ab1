package ledger

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// buildBusyLedger produces a traffic ledger mid-flight: minted accounts,
// settled history, held locks (one payer's Byzantine-held) and marks.
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
	alice, bob, mallory := l.PID("alice"), l.PID("bob"), l.PID("mallory")
	must(l.Hold(alice, bob, 100))
	must(l.ReleaseHold(alice, bob, 100))
	must(l.Hold(bob, alice, 50))
	must(l.RefundHold(bob, 50))
	must(l.Hold(alice, bob, 200))
	must(l.Hold(alice, bob, 20))
	must(l.Hold(mallory, bob, 300))
	l.SetByzantine(mallory, true)
	return l
}

// TestLedgerStateRoundTrip captures a busy ledger, rebuilds it, and checks
// the rebuilt ledger is operationally identical: same audit totals, same
// behaviour on the still-held locks, same Byzantine accounting.
func TestLedgerStateRoundTrip(t *testing.T) {
	read := func(l *Ledger) []any {
		out := []any{l.Name(), l.Compact(), l.Minted(), l.EscrowedTotal(), l.PendingCount(), l.ByzantineEscrowed(),
			l.OpCount(), l.SettledForgotten(), l.Audit(), l.String()}
		for _, owner := range []string{"alice", "bob", "mallory"} {
			out = append(out, l.Balance(l.PID(owner)))
		}
		return out
	}
	drive := func(l *Ledger) {
		alice, bob, mallory := l.PID("alice"), l.PID("bob"), l.PID("mallory")
		// Continue the run identically on original and restored ledgers.
		if err := l.ReleaseHold(alice, bob, 200); err != nil {
			t.Fatalf("release held: %v", err)
		}
		l.SetByzantine(mallory, false)
		if err := l.RefundHold(mallory, 300); err != nil {
			t.Fatalf("refund evil: %v", err)
		}
		if err := l.RefundHold(alice, 21); err == nil {
			t.Fatal("refunded more than alice holds")
		}
	}

	orig := buildBusyLedger(t)
	restored := FromState(orig.State())
	if got, want := read(restored), read(orig); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored ledger reads %v, the captured one %v", got, want)
	}
	drive(orig)
	drive(restored)
	if got, want := read(restored), read(orig); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the same steps the restored ledger reads %v, the captured one %v", got, want)
	}
}

// TestLedgerStateDeterministicSerialisation pins that two captures of the
// same ledger serialise byte-identically (the checksum of a checkpoint
// depends on it), that a capture is a copy, and that it survives a JSON
// round trip.
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
	if err := l.ReleaseHold(l.PID("alice"), l.PID("bob"), 200); err != nil {
		t.Fatal(err)
	}
	want := []HeldState{{"alice", 220}, {"mallory", 300}}
	if !reflect.DeepEqual(st.Held, want) || st.HeldLocks != 3 {
		t.Fatalf("capture holds %+v in %d locks after a later release, want %+v in 3", st.Held, st.HeldLocks, want)
	}
	var rt LedgerState
	if err := json.Unmarshal(a, &rt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, st) {
		t.Fatalf("JSON round trip reads %+v, want %+v", rt, st)
	}
}
