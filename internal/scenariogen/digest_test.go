package scenariogen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
)

// TestLedgerDigestSensitivity: the ledger word of a Fingerprint moves with
// every field of every operation it folds — kind, from, to, amount, time —
// with an operation moving to another ledger, and with two names split
// differently; it does not move with where equal logs are stored.
func TestLedgerDigestSensitivity(t *testing.T) {
	// digest is ledgerDigest of a book whose ledgers hold these logs.
	digest := func(logs [][]ledger.Op) uint64 {
		h := uint64(digestBasis)
		for _, ops := range logs {
			h = foldLog(h, ops)
		}
		return h
	}
	base := func() [][]ledger.Op {
		return [][]ledger.Op{
			{
				{Kind: ledger.OpMint, To: "c0", Amount: 2000},
				{Kind: ledger.OpLock, From: "c0", To: "c1", Amount: 1010, At: 7},
				{Kind: ledger.OpRelease, From: "c0", To: "c1", Amount: 1010, At: 19},
			},
			{
				{Kind: ledger.OpLock, From: "connector-one", To: "manager", Amount: 1000, At: 11},
				{Kind: ledger.OpRefund, From: "connector-one", To: "connector-one", Amount: 1000, At: 23},
			},
		}
	}
	want := digest(base())

	// Equal logs in storage of their own, every string a copy.
	again := base()
	for _, log := range again {
		for i := range log {
			log[i].From, log[i].To = strings.Clone(log[i].From), strings.Clone(log[i].To)
		}
	}
	if got := digest(again); got != want {
		t.Fatalf("equal logs digest %x and %x", got, want)
	}

	for name, mutate := range map[string]func([][]ledger.Op) [][]ledger.Op{
		"kind":             func(l [][]ledger.Op) [][]ledger.Op { l[0][2].Kind = ledger.OpRefund; return l },
		"from":             func(l [][]ledger.Op) [][]ledger.Op { l[0][1].From = "c2"; return l },
		"to":               func(l [][]ledger.Op) [][]ledger.Op { l[0][1].To = "c11"; return l },
		"long from":        func(l [][]ledger.Op) [][]ledger.Op { l[1][0].From = "connector-two"; return l },
		"long to":          func(l [][]ledger.Op) [][]ledger.Op { l[1][1].To = "connector-one!"; return l },
		"amount":           func(l [][]ledger.Op) [][]ledger.Op { l[1][0].Amount++; return l },
		"time":             func(l [][]ledger.Op) [][]ledger.Op { l[0][0].At++; return l },
		"other ledger":     func(l [][]ledger.Op) [][]ledger.Op { return [][]ledger.Op{l[0][:2], append(l[0][2:3:3], l[1]...)} },
		"empty ledger":     func(l [][]ledger.Op) [][]ledger.Op { return append(l, nil) },
		"names split":      func(l [][]ledger.Op) [][]ledger.Op { l[0][1].From, l[0][1].To = "c0c", "1"; return l },
		"trailing NUL":     func(l [][]ledger.Op) [][]ledger.Op { l[0][1].From = "c0\x00"; return l },
		"from, to swapped": func(l [][]ledger.Op) [][]ledger.Op { l[0][0].From, l[0][0].To = "c0", ""; return l },
	} {
		if got := digest(mutate(base())); got == want {
			t.Errorf("%s: the digest did not change", name)
		}
	}
	split := func(from, to string) uint64 {
		return digest([][]ledger.Op{{{Kind: ledger.OpLock, From: from, To: to, Amount: 1}}})
	}
	if split("ab", "c") == split("a", "bc") || split("abcdefghi", "j") == split("abcdefgh", "ij") {
		t.Error("two names split differently digest alike")
	}

	// One spec run on two worlds of its own leaves the same ledgers.
	sp := NewSpec(FamTimelock, 3, 5)
	sp.Faults = map[string]string{core.EscrowID(1): "theft"}
	a, b := Run(sp), Run(sp)
	if a.Ledger == 0 || a.Ledger != b.Ledger {
		t.Fatalf("two runs of one spec digest their ledgers %x and %x", a.Ledger, b.Ledger)
	}
}
