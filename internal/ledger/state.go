package ledger

import (
	"sort"

	"repro/internal/sim"
)

// Checkpoint support: a traffic ledger — compacting, its locks all held
// (Hold) — can be captured into a plain serialisable value and rebuilt
// exactly. All map-backed state is flattened into sorted slices so the
// capture is deterministic — two captures of the same ledger are
// byte-identical once serialised, which is what lets checkpoints carry a
// content checksum.

// AccountState is one account's captured balance.
type AccountState struct {
	Owner   string `json:"owner"`
	Balance int64  `json:"balance"`
}

// HeldState is the value one payer has held (Hold) on the ledger.
type HeldState struct {
	Payer string `json:"payer"`
	Value int64  `json:"value"`
}

// LedgerState is the serialisable capture of a Ledger: its accounts, counters
// and Byzantine owners, and the tallies of its held locks — the value held by
// each payer and how many locks hold it. Accounts, Held and ByzantineOwners
// are sorted by owner. The ledger's recorded locks are not captured: the
// holder of a held lock keeps its record, and a traffic ledger records none.
type LedgerState struct {
	Name             string         `json:"name"`
	Accounts         []AccountState `json:"accounts"`
	OpCount          int            `json:"opCount"`
	Minted           int64          `json:"minted"`
	SettledForgotten int            `json:"settledForgotten,omitempty"`
	ByzantineOwners  []string       `json:"byzantineOwners,omitempty"`
	Held             []HeldState    `json:"held,omitempty"`
	HeldLocks        int            `json:"heldLocks,omitempty"`
}

// State captures the ledger. The capture shares no mutable state with the
// ledger: its slices are fresh.
func (l *Ledger) State() LedgerState {
	st := LedgerState{
		Name:             l.name,
		Accounts:         make([]AccountState, 0, len(l.accounts)),
		OpCount:          l.opCount,
		Minted:           l.minted,
		SettledForgotten: l.settled,
		HeldLocks:        l.holds(),
	}
	for _, a := range l.accounts {
		st.Accounts = append(st.Accounts, AccountState{Owner: l.owner(a.pid), Balance: a.balance})
	}
	for pid, on := range l.byz {
		if on {
			st.ByzantineOwners = append(st.ByzantineOwners, l.owner(sim.PID(pid)))
		}
	}
	if h := l.holding; h != nil {
		for pid, v := range h.by {
			if v != 0 {
				st.Held = append(st.Held, HeldState{Payer: l.owner(sim.PID(pid)), Value: v})
			}
		}
	}
	sort.Slice(st.Accounts, func(i, j int) bool { return st.Accounts[i].Owner < st.Accounts[j].Owner })
	sort.Slice(st.Held, func(i, j int) bool { return st.Held[i].Payer < st.Held[j].Payer })
	sort.Strings(st.ByzantineOwners)
	return st
}

// FromState rebuilds a compacting ledger from a capture: the same balances,
// held locks, audit totals and Byzantine marks, the value held by a Byzantine
// payer counted as Byzantine-held. Metrics hooks are not part of the capture;
// attach them afterwards with SetMetrics if needed.
func FromState(st LedgerState) *Ledger {
	l := New(st.Name)
	l.compact = true
	for _, a := range st.Accounts {
		l.accounts = append(l.accounts, account{pid: l.PID(a.Owner), balance: a.Balance})
	}
	for _, owner := range st.ByzantineOwners {
		pid := l.PID(owner)
		l.growByz(pid)
		l.byz[pid] = true
	}
	for _, h := range st.Held {
		pid := l.PID(h.Payer)
		l.addHeld(pid, h.Value)
		if l.byzantine(pid) {
			l.byzEscrowed += h.Value
		}
	}
	if l.holding != nil {
		l.holding.n = st.HeldLocks
	}
	l.opCount = st.OpCount
	l.minted = st.Minted
	l.settled = st.SettledForgotten
	return l
}
