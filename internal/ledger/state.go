package ledger

import (
	"sort"

	"repro/internal/sim"
)

// Checkpoint support: a Ledger can be captured into a plain serialisable
// value and rebuilt exactly. All map-backed state is flattened into sorted
// slices so the capture is deterministic — two captures of the same ledger
// are byte-identical once serialised, which is what lets checkpoints carry a
// content checksum.

// AccountState is one account's captured balance.
type AccountState struct {
	Owner   string `json:"owner"`
	Balance int64  `json:"balance"`
}

// LedgerState is the serialisable capture of a Ledger. Locks are value
// copies sorted by ID; Accounts and ByzantineOwners are sorted by owner.
// The retained operation log rides along for non-compacted ledgers (compact
// ledgers — the only ones long runs checkpoint — keep it empty by
// construction).
type LedgerState struct {
	Name             string         `json:"name"`
	Accounts         []AccountState `json:"accounts"`
	Locks            []Lock         `json:"locks,omitempty"`
	Ops              []Op           `json:"ops,omitempty"`
	OpCount          int            `json:"opCount"`
	Minted           int64          `json:"minted"`
	Compact          bool           `json:"compact,omitempty"`
	SettledForgotten int            `json:"settledForgotten,omitempty"`
	ByzantineOwners  []string       `json:"byzantineOwners,omitempty"`
	ByzEscrowed      int64          `json:"byzEscrowed,omitempty"`
}

// State captures the ledger's full contents. The capture shares no mutable
// state with the ledger: locks are copied by value, slices are fresh.
func (l *Ledger) State() LedgerState {
	st := LedgerState{
		Name:             l.name,
		Accounts:         make([]AccountState, 0, len(l.accounts)),
		OpCount:          l.opCount,
		Minted:           l.minted,
		Compact:          l.compact,
		SettledForgotten: l.settled,
		ByzEscrowed:      l.byzEscrowed,
	}
	for _, a := range l.accounts {
		st.Accounts = append(st.Accounts, AccountState{Owner: l.owner(a.pid), Balance: a.balance})
	}
	for pid, on := range l.byz {
		if on {
			st.ByzantineOwners = append(st.ByzantineOwners, l.owner(sim.PID(pid)))
		}
	}
	sort.Slice(st.Accounts, func(i, j int) bool { return st.Accounts[i].Owner < st.Accounts[j].Owner })
	sort.Strings(st.ByzantineOwners)
	st.Locks = l.Locks()
	if len(st.Locks) == 0 {
		st.Locks = nil
	}
	if len(l.ops) > 0 {
		st.Ops = append([]Op(nil), l.ops...)
	}
	return st
}

// FromState rebuilds a ledger from a capture. The result is operationally
// identical to the captured ledger: same balances, pending locks, audit
// totals, compaction mode and Byzantine marks. Every lock is rebuilt under its
// captured ID, keyed or not (a keyed lock's rendered ID is just as unique),
// and a state other than pending or released reads as refunded. Metrics hooks
// are not part of the capture; attach them afterwards with SetMetrics if
// needed.
func FromState(st LedgerState) *Ledger {
	l := New(st.Name)
	for _, a := range st.Accounts {
		l.accounts = append(l.accounts, account{pid: l.PID(a.Owner), balance: a.Balance})
	}
	for _, owner := range st.ByzantineOwners {
		pid := l.PID(owner)
		l.growByz(pid)
		l.byz[pid] = true
	}
	for _, lk := range st.Locks {
		state := stateRefunded
		switch lk.State {
		case LockPending:
			state = statePending
		case LockReleased:
			state = stateReleased
		}
		l.hold(&lockRec{
			label: lk.ID, amount: lk.Amount, createdAt: lk.CreatedAt, settledAt: lk.SettledAt,
			cond: lk.Cond, payer: l.PID(lk.Payer), payee: l.PID(lk.Payee), state: state,
		})
	}
	if len(st.Ops) > 0 {
		l.ops = append([]Op(nil), st.Ops...)
	}
	l.opCount = st.OpCount
	l.minted = st.Minted
	l.compact = st.Compact
	l.settled = st.SettledForgotten
	l.byzEscrowed = st.ByzEscrowed
	return l
}
