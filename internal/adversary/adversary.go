// Package adversary is the Byzantine behaviour library used by the
// experiments: named misbehaviour presets for customers, escrows and the
// transaction manager, plus helpers to enumerate fault assignments for the
// property sweeps of experiments E2 and E5.
//
// The paper assumes the classic Byzantine model with authentication:
// faulty participants may deviate arbitrarily from the protocol but cannot
// forge the signatures of correct participants. Each preset here is one
// concrete deviation strategy; a sweep over presets and positions
// approximates "arbitrary deviation" well enough to exercise every safety
// clause of Definitions 1 and 2.
package adversary

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Behaviour names a deviation strategy.
type Behaviour string

// Named behaviours. Honest is the zero behaviour.
const (
	Honest         Behaviour = "honest"
	Crash          Behaviour = "crash"           // stop at a configured time
	CrashAtStart   Behaviour = "crash-at-start"  // never do anything
	Silent         Behaviour = "silent"          // receive but never send
	Withhold       Behaviour = "withhold"        // keep certificates/receipts to oneself
	RefusePayment  Behaviour = "refuse-payment"  // never send money
	SlowActions    Behaviour = "slow"            // delay every action
	Forge          Behaviour = "forge"           // attempt certificate forgery
	Equivocation   Behaviour = "equivocate"      // send conflicting messages
	Theft          Behaviour = "theft"           // escrow keeps escrowed funds
	ImpatientAbort Behaviour = "impatient-abort" // abort as soon as allowed
)

// behaviours is every named behaviour including Honest.
var behaviours = [...]Behaviour{
	Honest, Crash, CrashAtStart, Silent, Withhold, RefusePayment,
	SlowActions, Forge, Equivocation, Theft, ImpatientAbort,
}

// AllBehaviours lists every named behaviour including Honest.
func AllBehaviours() []Behaviour {
	all := behaviours
	return all[:]
}

// ParseBehaviour resolves a behaviour by its string name and reports whether
// the name is known. Serialised scenarios (internal/scenariogen replay files)
// store behaviours by name and reconstruct FaultSpecs through this.
func ParseBehaviour(name string) (Behaviour, bool) {
	for _, b := range &behaviours {
		if string(b) == name {
			return b, true
		}
	}
	return Honest, false
}

// CustomerBehaviours lists the behaviours meaningful for customers.
func CustomerBehaviours() []Behaviour {
	return []Behaviour{Crash, CrashAtStart, Silent, Withhold, RefusePayment, SlowActions, Forge, ImpatientAbort}
}

// EscrowBehaviours lists the behaviours meaningful for escrows.
func EscrowBehaviours() []Behaviour {
	return []Behaviour{Crash, CrashAtStart, Silent, Withhold, SlowActions, Theft, Equivocation}
}

// Spec materialises a behaviour into a core.FaultSpec. The crash time and
// action delay are scaled from the scenario's message-delay bound so the
// deviation lands in the middle of the protocol rather than trivially before
// or after it.
func Spec(b Behaviour, timing core.Timing) core.FaultSpec {
	delta := timing.MaxMsgDelay
	switch b {
	case Honest:
		return core.FaultSpec{}
	case Crash:
		return core.FaultSpec{Crash: true, CrashAt: 3 * delta}
	case CrashAtStart:
		return core.FaultSpec{Crash: true, CrashAt: 0}
	case Silent:
		return core.FaultSpec{Silent: true}
	case Withhold:
		return core.FaultSpec{WithholdCertificate: true}
	case RefusePayment:
		return core.FaultSpec{RefuseToPay: true}
	case SlowActions:
		return core.FaultSpec{DelayActions: 10 * delta}
	case Forge:
		return core.FaultSpec{ForgeCertificate: true}
	case Equivocation:
		return core.FaultSpec{Equivocate: true}
	case Theft:
		return core.FaultSpec{StealEscrow: true}
	case ImpatientAbort:
		return core.FaultSpec{PrematureAbort: true}
	}
	return core.FaultSpec{}
}

// Assignment maps participant IDs to behaviours; it is one corruption
// pattern of a scenario.
type Assignment map[string]Behaviour

// ParseAssignment parses a comma-separated "participant=behaviour" list (a
// traffic request's "faults", xchain-traffic's -fault) against a topology
// ("" and "all-honest" are the empty assignment). It fails closed: a behaviour outside
// AllBehaviours, a participant that is neither on the chain nor the manager
// nor notaryK, and a participant named twice are all errors, so a typo never
// runs as an honest scenario.
func ParseAssignment(spec string, topo core.Topology) (Assignment, error) {
	a := Assignment{}
	if spec == "" || spec == "all-honest" {
		return a, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		id, name, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("malformed fault entry %q (want participant=behaviour)", pair)
		}
		b, ok := ParseBehaviour(name)
		if !ok {
			return nil, fmt.Errorf("unknown behaviour %q for %s (have %v)", name, id, AllBehaviours())
		}
		if topo.RoleOf(id) == "" {
			return nil, fmt.Errorf("unknown participant %q (want c0..c%d, e0..e%d, %s or notaryK)", id, topo.N, topo.N-1, core.ManagerID)
		}
		if _, twice := a[id]; twice {
			return nil, fmt.Errorf("participant %s is assigned twice", id)
		}
		a[id] = b
	}
	return a, nil
}

// Apply returns a copy of the scenario with the assignment's faults
// installed.
func (a Assignment) Apply(s core.Scenario) core.Scenario {
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if a[id] == Honest {
			continue
		}
		s = s.SetFault(id, Spec(a[id], s.Timing))
	}
	return s
}

// SingleFaultAssignments enumerates every assignment in which exactly one
// participant misbehaves, pairing each customer with every customer
// behaviour and each escrow with every escrow behaviour. The all-honest
// assignment is included first.
func SingleFaultAssignments(topo core.Topology) []Assignment {
	out := []Assignment{{}}
	for _, id := range topo.Customers() {
		for _, b := range CustomerBehaviours() {
			out = append(out, Assignment{id: b})
		}
	}
	for _, id := range topo.Escrows() {
		for _, b := range EscrowBehaviours() {
			out = append(out, Assignment{id: b})
		}
	}
	return out
}

// PairFaultAssignments enumerates assignments with exactly two misbehaving
// participants drawn from a reduced behaviour set (to keep sweeps tractable).
func PairFaultAssignments(topo core.Topology) []Assignment {
	behaviours := map[string][]Behaviour{}
	for _, id := range topo.Customers() {
		behaviours[id] = []Behaviour{Silent, Withhold, RefusePayment}
	}
	for _, id := range topo.Escrows() {
		behaviours[id] = []Behaviour{Silent, Theft}
	}
	ids := topo.Participants()
	var out []Assignment
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			for _, bi := range behaviours[ids[i]] {
				for _, bj := range behaviours[ids[j]] {
					out = append(out, Assignment{ids[i]: bi, ids[j]: bj})
				}
			}
		}
	}
	return out
}
