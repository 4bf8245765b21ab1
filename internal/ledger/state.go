package ledger

import "sort"

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
	for _, owner := range l.Accounts() {
		st.Accounts = append(st.Accounts, AccountState{Owner: owner, Balance: l.Balance(owner)})
	}
	for _, lk := range l.Locks() {
		st.Locks = append(st.Locks, *lk)
	}
	if len(l.ops) > 0 {
		st.Ops = append([]Op(nil), l.ops...)
	}
	if len(l.byzOwners) > 0 {
		st.ByzantineOwners = make([]string, 0, len(l.byzOwners))
		for owner := range l.byzOwners {
			st.ByzantineOwners = append(st.ByzantineOwners, owner)
		}
		sort.Strings(st.ByzantineOwners)
	}
	return st
}

// FromState rebuilds a ledger from a capture. The result is operationally
// identical to the captured ledger: same balances, pending locks, audit
// totals, compaction mode and Byzantine marks. Metrics hooks are not part of
// the capture; attach them afterwards with SetMetrics if needed.
func FromState(st LedgerState) *Ledger {
	l := New(st.Name)
	for _, a := range st.Accounts {
		l.accounts = append(l.accounts, account{a.Owner, a.Balance})
	}
	for _, lk := range st.Locks {
		l.hold(&lockRec{Lock: lk})
	}
	if len(st.Ops) > 0 {
		l.ops = append([]Op(nil), st.Ops...)
	}
	l.opCount = st.OpCount
	l.minted = st.Minted
	l.compact = st.Compact
	l.settled = st.SettledForgotten
	if len(st.ByzantineOwners) > 0 {
		l.byzOwners = make(map[string]bool, len(st.ByzantineOwners))
		for _, owner := range st.ByzantineOwners {
			l.byzOwners[owner] = true
		}
	}
	l.byzEscrowed = st.ByzEscrowed
	return l
}
