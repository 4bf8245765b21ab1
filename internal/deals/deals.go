// Package deals implements cross-chain deals in the sense of Herlihy, Liskov
// and Shrira (VLDB 2019), which Section 5 of the paper compares against
// cross-chain payments.
//
// A deal is a matrix M where M[i][j] lists an asset to be transferred from
// party i to party j; equivalently a directed graph with an arc i -> j for
// every non-zero entry. Herlihy et al. prove their protocols correct for
// well-formed deals — those whose digraph is strongly connected — and aim
// for three properties: Safety (every compliant party ends up with an
// acceptable payoff), Termination (no compliant party's asset stays escrowed
// forever; called "weak liveness" in their paper) and Strong liveness (if
// all parties are compliant and accept their payoffs, all transfers happen).
//
// This package provides the deal model (matrix, digraph, well-formedness,
// payoff acceptability), the two commit protocols — a timelock commit
// protocol for synchrony and a certified-blockchain commit protocol for
// partial synchrony — executed over the same simulation substrate as the
// payment protocols, and the Section-5 translation showing that a linear
// cross-chain payment is not a well-formed deal (its digraph is a path, not
// strongly connected), while a deal has no notion of the connectors'
// commissions or of Bob's certificate.
package deals

import (
	"fmt"
	"slices"
	"strings"
)

// Asset is a quantity of a named asset type ("5 bitcoins"). The zero Asset
// means "no transfer".
type Asset struct {
	Type   string
	Amount int64
}

// IsZero reports whether the asset denotes no transfer.
func (a Asset) IsZero() bool { return a.Amount == 0 }

// String implements fmt.Stringer.
func (a Asset) String() string {
	if a.IsZero() {
		return "-"
	}
	return fmt.Sprintf("%d %s", a.Amount, a.Type)
}

// Deal is a cross-chain deal: a set of parties and the transfer matrix M.
type Deal struct {
	// Parties lists the party identifiers; indices into Parties index M.
	Parties []string
	// M[i][j] is the asset party i transfers to party j. M[i][i] is ignored.
	// Write it through Transfer, which keeps the derived views below current.
	M [][]Asset

	// arcs and types are what Arcs and AssetTypes hand out, derived from M
	// when Transfer records an entry: a finished deal is only read, by any
	// number of runs at once.
	arcs  []Arc
	types []string
}

// NewDeal returns an empty deal among the given parties.
func NewDeal(parties ...string) *Deal {
	m := make([][]Asset, len(parties))
	for i := range m {
		m[i] = make([]Asset, len(parties))
	}
	return &Deal{Parties: append([]string(nil), parties...), M: m, arcs: []Arc{}}
}

// indexOf returns the index of a party, or -1.
func (d *Deal) indexOf(party string) int {
	for i, p := range d.Parties {
		if p == party {
			return i
		}
	}
	return -1
}

// Transfer records that from transfers the asset to to. It returns the deal
// for chaining and panics on unknown parties (a deal-construction bug).
func (d *Deal) Transfer(from, to string, asset Asset) *Deal {
	i, j := d.indexOf(from), d.indexOf(to)
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("deals: unknown party in transfer %s -> %s", from, to))
	}
	d.M[i][j] = asset
	d.derive()
	return d
}

// derive rebuilds arcs and types from M.
func (d *Deal) derive() {
	d.arcs, d.types = d.arcs[:0], d.types[:0]
	for i, row := range d.M {
		for j, a := range row {
			if i != j && !a.IsZero() {
				d.arcs = append(d.arcs, Arc{From: d.Parties[i], To: d.Parties[j], Asset: a})
				if !slices.Contains(d.types, a.Type) {
					d.types = append(d.types, a.Type)
				}
			}
		}
	}
	slices.Sort(d.types)
}

// Entry returns M[i][j] by party name.
func (d *Deal) Entry(from, to string) Asset {
	i, j := d.indexOf(from), d.indexOf(to)
	if i < 0 || j < 0 {
		return Asset{}
	}
	return d.M[i][j]
}

// Arc is one non-zero transfer of a deal.
type Arc struct {
	From, To string
	Asset    Asset
}

// Arcs returns the deal's non-zero transfers in row-major order. The slice
// is the deal's own: callers must not modify it.
func (d *Deal) Arcs() []Arc {
	if d.arcs == nil {
		d.derive() // a Deal assembled without Transfer
	}
	return d.arcs
}

// AssetTypes returns the sorted set of asset types appearing in the deal;
// Herlihy et al. assume one blockchain (escrow) per asset type. The slice is
// the deal's own: callers must not modify it.
func (d *Deal) AssetTypes() []string {
	d.Arcs()
	return d.types
}

// WellFormed reports whether the deal's digraph is strongly connected, the
// condition under which Herlihy et al. prove their protocols correct.
func (d *Deal) WellFormed() bool {
	n := len(d.Parties)
	if n == 0 {
		return false
	}
	adj := make([][]int, n)
	radj := make([][]int, n)
	for _, arc := range d.Arcs() {
		i, j := d.indexOf(arc.From), d.indexOf(arc.To)
		adj[i] = append(adj[i], j)
		radj[j] = append(radj[j], i)
	}
	reach := func(graph [][]int) int {
		seen := make([]bool, n)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range graph[v] {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		return count
	}
	return reach(adj) == n && reach(radj) == n
}

// String renders the deal matrix.
func (d *Deal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deal(%s)\n", strings.Join(d.Parties, ", "))
	for _, arc := range d.Arcs() {
		fmt.Fprintf(&b, "  %s -> %s: %s\n", arc.From, arc.To, arc.Asset)
	}
	return b.String()
}

// Outcome describes, for one execution of a deal protocol, which transfers
// actually happened. Transferred[arc] is true if the arc's asset reached its
// recipient; a missing/false entry means the asset was returned to (or kept
// by) its original owner.
type Outcome struct {
	Deal        *Deal
	Transferred map[Arc]bool
	// EscrowedForever lists arcs whose assets were still locked when the run
	// ended (a Termination violation for their compliant owners).
	EscrowedForever []Arc
	// Compliant records which parties followed the protocol.
	Compliant map[string]bool
}

// NewOutcome returns an outcome in which nothing was transferred and
// everybody is compliant.
func NewOutcome(d *Deal) *Outcome {
	o := &Outcome{Deal: d, Transferred: map[Arc]bool{}, Compliant: map[string]bool{}}
	for _, p := range d.Parties {
		o.Compliant[p] = true
	}
	return o
}

// AllTransferred reports whether every arc completed.
func (o *Outcome) AllTransferred() bool {
	for _, arc := range o.Deal.Arcs() {
		if !o.Transferred[arc] {
			return false
		}
	}
	return true
}

// NoneTransferred reports whether no arc completed.
func (o *Outcome) NoneTransferred() bool {
	for _, arc := range o.Deal.Arcs() {
		if o.Transferred[arc] {
			return false
		}
	}
	return true
}

// Acceptable reports whether the outcome is acceptable to the given party in
// the sense of Herlihy et al.: either the party received all assets it was
// owed while parting with all assets it owed ("deal done"), or it lost
// nothing at all ("deal off"); and any outcome in which it loses less and/or
// gains more than such an outcome is also acceptable.
//
// With indivisible per-arc transfers the acceptable outcomes are exactly:
// deal done (all outgoing parted with, all incoming received), deal off
// (nothing lost), or anything dominating one of those — received everything
// while keeping some outgoing, or gained something without paying anything.
// Partial loss with partial gain dominates neither and is unacceptable.
func (o *Outcome) Acceptable(party string) bool {
	outDone, inDone, lostNothing := true, true, true
	for _, arc := range o.Deal.Arcs() {
		switch {
		case arc.From == party && !o.Transferred[arc]:
			outDone = false
		case arc.From == party && o.Transferred[arc]:
			lostNothing = false
		case arc.To == party && !o.Transferred[arc]:
			inDone = false
		}
	}
	switch {
	case outDone && inDone:
		return true // deal done
	case lostNothing:
		return true // deal off, or gained without paying
	case inDone:
		return true // received everything while keeping something: dominates deal done
	default:
		return false
	}
}

// SafetyHolds reports whether every compliant party ended with an acceptable
// payoff.
func (o *Outcome) SafetyHolds() bool {
	for _, p := range o.Deal.Parties {
		if o.Compliant[p] && !o.Acceptable(p) {
			return false
		}
	}
	return true
}

// TerminationHolds reports whether no compliant party's asset stayed
// escrowed forever.
func (o *Outcome) TerminationHolds() bool {
	for _, arc := range o.EscrowedForever {
		if o.Compliant[arc.From] {
			return false
		}
	}
	return true
}

// StrongLivenessHolds reports whether, given that every party was compliant,
// all transfers happened. It returns true vacuously when some party was not
// compliant.
func (o *Outcome) StrongLivenessHolds() bool {
	for _, p := range o.Deal.Parties {
		if !o.Compliant[p] {
			return true
		}
	}
	return o.AllTransferred()
}
