package check

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Facts are the theorem preconditions a caller observed of one run. A caller
// supplies only what it already knows; the protocol states its Guarantee.
type Facts struct {
	// InEnvelope reports that the run satisfies every precondition of the
	// theorem covering its protocol: a synchronous schedule within the timing
	// bounds for Theorem 1, sufficiently patient customers for Theorem 3, and
	// a fault assignment within the trust model.
	InEnvelope bool
	// ManagerTrusted is ManagerTrusted's verdict on the run's faults.
	ManagerTrusted bool
	// PatienceFinite reports that every customer's patience is finite, so an
	// abort request always arrives eventually.
	PatienceFinite bool
}

// The conditions under which a property is owed.
func never(Facts) bool        { return false }
func inEnvelope(f Facts) bool { return f.InEnvelope }

// whileTrusted: in the envelope, and outside it for as long as the
// transaction manager's trust assumption stands.
func whileTrusted(f Facts) bool { return f.InEnvelope || f.ManagerTrusted }

// whileDecidable: like whileTrusted, and every customer's patience must be
// finite — a trusted manager decides once somebody asks it to.
func whileDecidable(f Facts) bool {
	return f.InEnvelope || (f.ManagerTrusted && f.PatienceFinite)
}

// table is the paper's content as data: theorem → property → the condition
// under which the property is owed. Cells it does not list are owed always.
var table = map[core.Theorem]map[core.Property]func(Facts) bool{
	// Theorem 1 owes all of Definition 1 under synchrony; Theorem 2 says an
	// envelope-violating schedule can defeat some of {T, L, CS2}.
	core.Theorem1: {
		core.PropTermination:    inEnvelope,
		core.PropStrongLiveness: inEnvelope,
		core.PropCS2:            inEnvelope,
	},
	// Theorem 3 owes Definition 2's safety always. Liveness is conditional on
	// patience (impatient customers under pre-GST delays legitimately abort),
	// and CC is exactly the agreement of the transaction manager.
	core.Theorem3: {
		core.PropStrongLiveness:  inEnvelope,
		core.PropWeakLiveness:    inEnvelope,
		core.PropCertConsistency: whileTrusted,
		core.PropTermination:     whileDecidable,
	},
	// The baseline's documented gap: Alice pays without ever receiving a
	// transferable certificate, so CS1 fails even on the happy path. Outside
	// the envelope late claims surface as rejected-claim events (C) and
	// refunds of a revealed preimage (CS2); only the escrow-security core
	// {ES, CS3, CV} is unconditional.
	core.Baseline: {
		core.PropCS1:             never,
		core.PropConsistency:     inEnvelope,
		core.PropTermination:     inEnvelope,
		core.PropCS2:             inEnvelope,
		core.PropStrongLiveness:  inEnvelope,
		core.PropWeakLiveness:    inEnvelope,
		core.PropCertConsistency: inEnvelope,
	},
}

// Owed reports whether a run of a protocol with guarantee g owes property p:
// a failed owed property is a violation, a failed property that is not owed
// is the damage the theorems permit.
func Owed(g core.Guarantee, p core.Property, f Facts) bool {
	cond, listed := table[g.Theorem][p]
	return !listed || cond(f)
}

// ManagerTrusted reports whether Theorem 3's trust assumption on the
// transaction manager stands under a fault assignment: the manager itself
// abides by the protocol and less than one-third of its notaries — at most f
// of 3f+1 — is unreliable.
func ManagerTrusted(g core.Guarantee, faulty func(id string) bool) bool {
	unreliable := 0
	for j := 0; j < g.Notaries; j++ {
		if faulty(core.NotaryID(j)) {
			unreliable++
		}
	}
	return !faulty(core.ManagerID) && 3*unreliable < max(g.Notaries, 1)
}

// OptionsFor selects the Definition a protocol's runs are judged under:
// Definition 2 with the given patience precondition for Theorem 3,
// Definition 1 otherwise — time-bounded by bound where Theorem 1 promises an
// a-priori bound (zero asks only for eventual termination).
func OptionsFor(g core.Guarantee, bound, patience sim.Time) Options {
	switch g.Theorem {
	case core.Theorem3:
		return Def2(patience)
	case core.Theorem1:
		return Def1TimeBounded(bound)
	}
	return Def1Eventual()
}
