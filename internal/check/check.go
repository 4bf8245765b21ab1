// Package check evaluates the correctness properties of the paper's
// Definitions 1 and 2 over protocol run results.
//
// Each property is a predicate over a core.RunResult together with an
// applicability condition (the property's precondition: which participants
// must abide by the protocol for the guarantee to be owed). A Report carries
// one Verdict per property; the experiment harness aggregates reports across
// sweeps, and the theorem experiments assert "all applicable verdicts hold"
// (Theorems 1 and 3) or "some verdict fails" (Theorem 2).
package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Options configures property evaluation.
type Options struct {
	// TimeBound, if positive, makes the Termination check require every
	// applicable customer to have terminated by this real time (the
	// time-bounded variant of property T in Definition 1). Zero checks only
	// eventual termination within the run.
	TimeBound sim.Time
	// Definition2 switches CS1/CS2 to the weak-liveness phrasing of
	// Definition 2 (commit/abort certificates instead of chi) and enables the
	// certificate-consistency check CC.
	Definition2 bool
	// PatiencePrecondition is the minimum patience (0 = infinite) every
	// customer must have for the weak-liveness property WL to be applicable.
	// Ignored unless Definition2 is set.
	PatiencePrecondition sim.Time
}

// Def1TimeBounded returns options for the time-bounded cross-chain payment
// problem (Theorem 1): Definition 1 with the given termination bound.
func Def1TimeBounded(bound sim.Time) Options { return Options{TimeBound: bound} }

// Def1Eventual returns options for the eventually-terminating variant of
// Definition 1 (used by the Theorem-2 impossibility experiments).
func Def1Eventual() Options { return Options{} }

// Def2 returns options for Definition 2 (weak liveness guarantees).
func Def2(patience sim.Time) Options {
	return Options{Definition2: true, PatiencePrecondition: patience}
}

// Verdict is the evaluation of one property on one run.
type Verdict struct {
	Property core.Property
	// Applicable reports whether the property's precondition held in the
	// scenario (e.g. CS1 is only owed when Alice and her escrow abide).
	Applicable bool
	// Holds reports whether the property's guarantee held. A non-applicable
	// property trivially holds.
	Holds bool
	// Detail explains a failure (or a notable pass).
	Detail string
}

// OK reports whether the verdict is satisfied (holds or not applicable).
func (v Verdict) OK() bool { return !v.Applicable || v.Holds }

// String renders the verdict compactly.
func (v Verdict) String() string {
	status := "PASS"
	switch {
	case !v.Applicable:
		status = "N/A "
	case !v.Holds:
		status = "FAIL"
	}
	if v.Detail != "" {
		return fmt.Sprintf("%-4s %-3s %s", status, v.Property, v.Detail)
	}
	return fmt.Sprintf("%-4s %-3s", status, v.Property)
}

// Report is the full evaluation of one run: one verdict per evaluated
// property, held by value so that evaluating a run allocates nothing (the
// traffic engine evaluates every payment).
type Report struct {
	Protocol string
	Options  Options
	// verdicts is indexed by the property's position in
	// core.AllProperties; a zero Property marks one that was not evaluated.
	verdicts [len(propertyOrder)]Verdict
}

// propertyOrder is core.AllProperties' canonical order.
var propertyOrder = [...]core.Property{
	core.PropConsistency, core.PropTermination, core.PropEscrowSecurity,
	core.PropCS1, core.PropCS2, core.PropCS3,
	core.PropStrongLiveness, core.PropWeakLiveness, core.PropCertConsistency, core.PropConservation,
}

// safetyProperties is the SafetyOK set, in canonical order.
var safetyProperties = [...]core.Property{
	core.PropEscrowSecurity, core.PropCS1, core.PropCS2, core.PropCS3,
	core.PropCertConsistency, core.PropConservation,
}

func (r *Report) put(v Verdict) {
	for i, p := range propertyOrder {
		if p == v.Property {
			r.verdicts[i] = v
			return
		}
	}
	panic("check: verdict for unknown property " + string(v.Property))
}

// Lookup returns the verdict of one property and whether the property was
// evaluated (CC and WL are only evaluated under Definition 2).
func (r Report) Lookup(p core.Property) (Verdict, bool) {
	for i := range r.verdicts {
		if r.verdicts[i].Property == p && p != "" {
			return r.verdicts[i], true
		}
	}
	return Verdict{}, false
}

// Verdict returns the verdict of one property (the zero Verdict if it was
// not evaluated).
func (r Report) Verdict(p core.Property) Verdict {
	v, _ := r.Lookup(p)
	return v
}

// AllOK reports whether every property holds or is inapplicable.
func (r Report) AllOK() bool {
	for i := range r.verdicts {
		if !r.verdicts[i].OK() {
			return false
		}
	}
	return true
}

// SafetyOK reports whether the safety properties (ES, CS1-3, CC, CV) hold.
// These must hold regardless of which participants are Byzantine.
func (r Report) SafetyOK() bool {
	for _, p := range safetyProperties {
		if !r.Verdict(p).OK() {
			return false
		}
	}
	return true
}

// SafetyFailures returns the safety properties (the SafetyOK set) that are
// applicable but do not hold, in canonical order. The traffic engine's
// aggregate oracle uses it to separate safety violations — owed to honest
// parties in every execution — from liveness failures, which are expected
// damage under faults.
func (r Report) SafetyFailures() []core.Property {
	var out []core.Property
	for _, p := range safetyProperties {
		if !r.Verdict(p).OK() {
			out = append(out, p)
		}
	}
	return out
}

// Failures returns the properties that are applicable but do not hold, in
// canonical order.
func (r Report) Failures() []core.Property {
	var out []core.Property
	for i := range r.verdicts {
		if !r.verdicts[i].OK() {
			out = append(out, r.verdicts[i].Property)
		}
	}
	return out
}

// String renders the report, one property per line in canonical order.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "report(%s)\n", r.Protocol)
	for i := range r.verdicts {
		if r.verdicts[i].Property != "" {
			b.WriteString("  " + r.verdicts[i].String() + "\n")
		}
	}
	return b.String()
}

// Evaluate computes all property verdicts for a run result. A verdict's
// Detail is only built for a property that fails, so evaluating a run whose
// properties hold formats nothing.
func Evaluate(res *core.RunResult, opts Options) Report {
	r := Report{Protocol: res.Protocol, Options: opts}
	r.put(checkConsistency(res))
	r.put(checkTermination(res, opts))
	r.put(checkEscrowSecurity(res))
	r.put(checkCS1(res, opts))
	r.put(checkCS2(res, opts))
	r.put(checkCS3(res))
	r.put(checkStrongLiveness(res))
	if opts.Definition2 {
		r.put(checkWeakLiveness(res, opts))
		r.put(checkCertConsistency(res))
	}
	r.put(checkConservation(res))
	return r
}

// escrowsHonest reports whether the escrows of customer c_i all abide by the
// protocol in the scenario.
func escrowsHonest(res *core.RunResult, i int) bool {
	topo := res.Scenario.Topology
	if up, ok := topo.UpstreamEscrow(i); ok && res.Scenario.FaultOf(up).IsByzantine() {
		return false
	}
	if down, ok := topo.DownstreamEscrow(i); ok && res.Scenario.FaultOf(down).IsByzantine() {
		return false
	}
	return true
}

// checkConsistency is the operational reading of property C: the engine could
// execute every honest participant's role without getting stuck on an
// impossible instruction. A run error or an entry in the run's consistency
// record (core.World.Report) falsifies it.
func checkConsistency(res *core.RunResult) Verdict {
	v := Verdict{Property: core.PropConsistency, Applicable: true, Holds: true}
	if res.Err != nil {
		v.Holds = false
		v.Detail = "engine error: " + res.Err.Error()
		return v
	}
	// A violation is the actor's own inconsistency and takes precedence; a
	// detection means the engine produced an instruction that an honest
	// receiver could not accept from an honest sender.
	if in := res.Violation; in.Actor != "" {
		v.Holds = false
		v.Detail = fmt.Sprintf("honest %s hit %s", in.Actor, in.Label)
	} else if in := res.Detection; in.Actor != "" {
		v.Holds = false
		v.Detail = fmt.Sprintf("honest %s rejected honest input: %s", in.Actor, in.Label)
	}
	return v
}

// checkTermination is property T: each customer that abides by the protocol
// and either makes a payment or issues a certificate terminates (within the
// bound, if one is configured), provided her escrows abide by the protocol.
func checkTermination(res *core.RunResult, opts Options) Verdict {
	v := Verdict{Property: core.PropTermination, Holds: true}
	topo := res.Scenario.Topology
	for i := 0; i <= topo.N; i++ {
		id := core.CustomerID(i)
		if res.Scenario.FaultOf(id).IsByzantine() || !escrowsHonest(res, i) {
			continue
		}
		out := res.Outcome(id)
		// The obligation only covers customers who made a payment or issued a
		// certificate (Alice/connectors who paid in; Bob if he signed chi).
		if out.PaidOut == 0 && !out.IssuedChi && !out.HoldsCommitCert && !out.HoldsAbortCert {
			continue
		}
		v.Applicable = true
		if !out.Terminated {
			v.Holds = false
			v.Detail = fmt.Sprintf("%s never terminated", id)
			return v
		}
		// The a-priori bound is measured from the customer's first protocol
		// obligation: Byzantine peers may legally delay when her
		// participation begins, but not how long it takes once begun.
		elapsed := out.TerminatedAt - out.StartedAt
		if out.StartedAt == 0 || elapsed < 0 {
			elapsed = out.TerminatedAt
		}
		if opts.TimeBound > 0 && elapsed > opts.TimeBound {
			v.Holds = false
			v.Detail = fmt.Sprintf("%s took %v from its first obligation, beyond the bound %v", id, elapsed, opts.TimeBound)
			return v
		}
	}
	return v
}

// checkEscrowSecurity is property ES: each escrow that abides by the
// protocol does not lose money.
func checkEscrowSecurity(res *core.RunResult) Verdict {
	v := Verdict{Property: core.PropEscrowSecurity, Holds: true}
	for i := 0; i < res.Scenario.Topology.N; i++ {
		id := core.EscrowID(i)
		if res.Scenario.FaultOf(id).IsByzantine() {
			continue
		}
		v.Applicable = true
		out := res.Escrows[id]
		if out.BalanceDelta < 0 {
			v.Holds = false
			v.Detail = fmt.Sprintf("%s lost %d", id, -out.BalanceDelta)
			return v
		}
		if out.AuditErr != nil {
			v.Holds = false
			v.Detail = fmt.Sprintf("%s audit: %v", id, out.AuditErr)
			return v
		}
	}
	return v
}

// checkCS1 is customer security for Alice: upon termination, if Alice and
// her escrow abide by the protocol, Alice has either got her money back or
// received the certificate chi (Definition 1) / the commit certificate
// (Definition 2).
func checkCS1(res *core.RunResult, opts Options) Verdict {
	v := Verdict{Property: core.PropCS1, Holds: true}
	topo := res.Scenario.Topology
	alice := topo.Alice()
	if res.Scenario.FaultOf(alice).IsByzantine() {
		return v
	}
	if down, ok := topo.DownstreamEscrow(0); ok && res.Scenario.FaultOf(down).IsByzantine() {
		return v
	}
	out := res.Outcome(alice)
	if !out.Terminated {
		return v // CS1 is an "upon termination" guarantee
	}
	v.Applicable = true
	gotMoneyBack := out.NetWealthChange() >= 0
	proof := out.HoldsChi
	if opts.Definition2 {
		proof = out.HoldsCommitCert
	}
	if !gotMoneyBack && !proof {
		v.Holds = false
		v.Detail = fmt.Sprintf("Alice lost %d without proof of payment", -out.NetWealthChange())
	}
	return v
}

// checkCS2 is customer security for Bob: upon termination, if Bob and his
// escrow abide by the protocol, Bob has either received the money or not
// issued the certificate chi (Definition 1) / received the money or the
// abort certificate (Definition 2).
func checkCS2(res *core.RunResult, opts Options) Verdict {
	v := Verdict{Property: core.PropCS2, Holds: true}
	topo := res.Scenario.Topology
	bob := topo.Bob()
	if res.Scenario.FaultOf(bob).IsByzantine() {
		return v
	}
	if up, ok := topo.UpstreamEscrow(topo.N); ok && res.Scenario.FaultOf(up).IsByzantine() {
		return v
	}
	out := res.Outcome(bob)
	if !out.Terminated && !out.IssuedChi {
		return v
	}
	v.Applicable = true
	received := out.Received > 0 || out.NetWealthChange() > 0
	if opts.Definition2 {
		if !received && !out.HoldsAbortCert && out.Terminated {
			v.Holds = false
			v.Detail = "Bob terminated with neither the money nor the abort certificate"
		}
		return v
	}
	if !received && out.IssuedChi {
		v.Holds = false
		v.Detail = "Bob issued chi but never received the money"
	}
	return v
}

// checkCS3 is customer security for connectors: upon termination, each
// connector that abides by the protocol has got her money back (i.e. her
// wealth did not decrease; a positive commission is acceptable), provided
// her escrows abide by the protocol.
func checkCS3(res *core.RunResult) Verdict {
	v := Verdict{Property: core.PropCS3, Holds: true}
	topo := res.Scenario.Topology
	for i := 1; i < topo.N; i++ {
		id := core.CustomerID(i)
		if res.Scenario.FaultOf(id).IsByzantine() {
			continue
		}
		if !escrowsHonest(res, i) {
			continue
		}
		out := res.Outcome(id)
		if !out.Terminated {
			continue
		}
		v.Applicable = true
		if out.NetWealthChange() < 0 {
			v.Holds = false
			v.Detail = fmt.Sprintf("connector %s lost %d", id, -out.NetWealthChange())
			return v
		}
	}
	return v
}

// checkStrongLiveness is property L of Definition 1: if all parties abide by
// the protocol, Bob is paid eventually.
func checkStrongLiveness(res *core.RunResult) Verdict {
	v := Verdict{Property: core.PropStrongLiveness, Holds: true}
	if !res.AllHonest() {
		return v
	}
	v.Applicable = true
	if !res.BobPaid {
		v.Holds = false
		v.Detail = "all parties abided but Bob was not paid"
	}
	return v
}

// checkWeakLiveness is property L of Definition 2: if all parties abide by
// the protocol and the customers wait sufficiently long before and after
// sending money, Bob is eventually paid.
func checkWeakLiveness(res *core.RunResult, opts Options) Verdict {
	v := Verdict{Property: core.PropWeakLiveness, Holds: true}
	if !res.AllHonest() {
		return v
	}
	for i := 0; i <= res.Scenario.Topology.N; i++ {
		p := res.Scenario.PatienceOf(core.CustomerID(i))
		if p != 0 && p < opts.PatiencePrecondition {
			return v // some customer was not patient enough: nothing owed
		}
	}
	v.Applicable = true
	if !res.BobPaid {
		v.Holds = false
		v.Detail = "all parties abided and waited, but Bob was not paid"
	}
	return v
}

// checkCertConsistency is property CC of Definition 2: an abort and a commit
// certificate can never both be issued.
func checkCertConsistency(res *core.RunResult) Verdict {
	v := Verdict{Property: core.PropCertConsistency, Applicable: true, Holds: true}
	if res.CommitIssued && res.AbortIssued {
		v.Holds = false
		v.Detail = "both commit and abort certificates were issued"
	}
	return v
}

// checkConservation is the engineering invariant that every ledger conserves
// value (money is neither created nor destroyed, only moved or locked).
func checkConservation(res *core.RunResult) Verdict {
	v := Verdict{Property: core.PropConservation, Applicable: true, Holds: true}
	if res.Book == nil {
		v.Applicable = false
		return v
	}
	if err := res.Book.AuditAll(); err != nil {
		v.Holds = false
		v.Detail = err.Error()
	}
	return v
}

// Summary aggregates reports across many runs of a sweep: for every property
// it counts applicable runs and violations.
type Summary struct {
	Total int
	// Applicable and Violations are per-property counters.
	Applicable map[core.Property]int
	Violations map[core.Property]int
	// FailureExamples keeps one example detail per violated property.
	FailureExamples map[core.Property]string
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{
		Applicable:      map[core.Property]int{},
		Violations:      map[core.Property]int{},
		FailureExamples: map[core.Property]string{},
	}
}

// Add folds one report into the summary.
func (s *Summary) Add(r Report) {
	s.Total++
	for _, p := range propertyOrder {
		v, ok := r.Lookup(p)
		if !ok {
			continue
		}
		if v.Applicable {
			s.Applicable[p]++
		}
		if !v.OK() {
			s.Violations[p]++
			if _, seen := s.FailureExamples[p]; !seen {
				s.FailureExamples[p] = v.Detail
			}
		}
	}
}

// Clean reports whether no property was ever violated.
func (s *Summary) Clean() bool {
	for _, n := range s.Violations {
		if n > 0 {
			return false
		}
	}
	return true
}

// ViolatedProperties returns the properties violated at least once, sorted.
func (s *Summary) ViolatedProperties() []core.Property {
	var out []core.Property
	for p, n := range s.Violations {
		if n > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the summary as a fixed-width table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %10s %10s %10s\n", "prop", "applicable", "violations", "runs")
	for _, p := range core.AllProperties() {
		if s.Applicable[p] == 0 && s.Violations[p] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-4s %10d %10d %10d\n", p, s.Applicable[p], s.Violations[p], s.Total)
	}
	return b.String()
}
