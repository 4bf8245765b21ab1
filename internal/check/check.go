// Package check evaluates the correctness properties of the paper's
// Definitions 1 and 2 over protocol run results.
//
// Each property is a predicate over a core.RunResult together with an
// applicability condition (the property's precondition: which participants
// must abide by the protocol for the guarantee to be owed). A Report carries
// one Verdict per property; the experiment harness aggregates reports across
// sweeps, and the theorem experiments assert "all applicable verdicts hold"
// (Theorems 1 and 3) or "some verdict fails" (Theorem 2). Judging a run reads
// only what the verdicts need, in one pass, and a failure's text is rendered
// only when Verdict.Detail reads it.
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
//
// A failing verdict keeps what explains it — which explanation, and the
// names, amounts, times or error it cites — and renders no text until Detail
// is read: the traffic engine judges every payment and reads almost none. The
// operands are held by value, so a kept report renders the same text after
// the world its run stood on has been reset.
type Verdict struct {
	Property core.Property
	// Applicable reports whether the property's precondition held in the
	// scenario (e.g. CS1 is only owed when Alice and her escrow abide).
	Applicable bool
	// Holds reports whether the property's guarantee held. A non-applicable
	// property trivially holds.
	Holds bool
	// why picks the text Detail renders, citing who, what, n, m and err.
	why       why
	who, what string
	n, m      int64
	err       error
}

// why is a failure's explanation; zero is none.
type why uint8

const (
	whyEngineError why = iota + 1
	whyViolation
	whyDetection
	whyNeverTerminated
	whyBeyondBound
	whyEscrowLost
	whyEscrowAudit
	whyAliceLost
	whyBobNoCert
	whyBobUnpaid
	whyConnectorLost
	whyNotPaid
	whyNotPaidPatient
	whyBothCerts
	whyAudit
)

// Detail explains a failure; it is empty for a verdict that holds.
func (v Verdict) Detail() string {
	switch v.why {
	case whyEngineError:
		return fmt.Sprintf("engine error: %v", v.err)
	case whyViolation:
		return fmt.Sprintf("honest %s hit %s", v.who, v.what)
	case whyDetection:
		return fmt.Sprintf("honest %s rejected honest input: %s", v.who, v.what)
	case whyNeverTerminated:
		return fmt.Sprintf("%s never terminated", v.who)
	case whyBeyondBound:
		return fmt.Sprintf("%s took %v from its first obligation, beyond the bound %v", v.who, sim.Time(v.n), sim.Time(v.m))
	case whyEscrowLost:
		return fmt.Sprintf("%s lost %d", v.who, v.n)
	case whyEscrowAudit:
		return fmt.Sprintf("%s audit: %v", v.who, v.err)
	case whyAliceLost:
		return fmt.Sprintf("Alice lost %d without proof of payment", v.n)
	case whyBobNoCert:
		return "Bob terminated with neither the money nor the abort certificate"
	case whyBobUnpaid:
		return "Bob issued chi but never received the money"
	case whyConnectorLost:
		return fmt.Sprintf("connector %s lost %d", v.who, v.n)
	case whyNotPaid:
		return "all parties abided but Bob was not paid"
	case whyNotPaidPatient:
		return "all parties abided and waited, but Bob was not paid"
	case whyBothCerts:
		return "both commit and abort certificates were issued"
	case whyAudit:
		return v.err.Error()
	}
	return ""
}

// OK reports whether the verdict is satisfied (holds or not applicable).
func (v Verdict) OK() bool { return !v.failed() }

// failed reports whether the verdict is not satisfied, reading it in place.
func (v *Verdict) failed() bool { return v.Applicable && !v.Holds }

// fail falsifies v with explanation w, citing who and n.
func (v *Verdict) fail(w why, who string, n int64) {
	v.Holds, v.why, v.who, v.n = false, w, who, n
}

// String renders the verdict compactly.
func (v Verdict) String() string {
	status := "PASS"
	switch {
	case !v.Applicable:
		status = "N/A "
	case !v.Holds:
		status = "FAIL"
	}
	if d := v.Detail(); d != "" {
		return fmt.Sprintf("%-4s %-3s %s", status, v.Property, d)
	}
	return fmt.Sprintf("%-4s %-3s", status, v.Property)
}

// Report is the full evaluation of one run: one verdict per evaluated
// property, held by value so that evaluating a run allocates nothing (the
// traffic engine evaluates every payment).
type Report struct {
	Protocol string
	Options  Options
	// verdicts is indexed by slot, the property's position in
	// core.AllProperties; a zero Property marks one that was not evaluated.
	verdicts [numSlots]Verdict
}

// The slots of a report's verdicts, in core.AllProperties' order: Evaluate
// writes each checker's verdict to its property's slot, and the safety
// questions read theirs, without comparing a property's name.
const (
	slotC = iota
	slotT
	slotES
	slotCS1
	slotCS2
	slotCS3
	slotL
	slotWL
	slotCC
	slotCV
	numSlots
)

// propertyOrder is core.AllProperties' canonical order, by slot.
var propertyOrder = [numSlots]core.Property{
	slotC: core.PropConsistency, slotT: core.PropTermination, slotES: core.PropEscrowSecurity,
	slotCS1: core.PropCS1, slotCS2: core.PropCS2, slotCS3: core.PropCS3,
	slotL: core.PropStrongLiveness, slotWL: core.PropWeakLiveness,
	slotCC: core.PropCertConsistency, slotCV: core.PropConservation,
}

// safetySlots are the SafetyOK set's slots, in canonical order.
var safetySlots = [...]int{slotES, slotCS1, slotCS2, slotCS3, slotCC, slotCV}

// Lookup returns the verdict of one property and whether the property was
// evaluated (CC and WL are only evaluated under Definition 2).
func (r *Report) Lookup(p core.Property) (Verdict, bool) {
	if i := slotOf(p); i >= 0 && r.verdicts[i].Property == p {
		return r.verdicts[i], true
	}
	return Verdict{}, false
}

// slotOf is the slot of property p, -1 for none.
func slotOf(p core.Property) int {
	switch p {
	case core.PropConsistency:
		return slotC
	case core.PropTermination:
		return slotT
	case core.PropEscrowSecurity:
		return slotES
	case core.PropCS1:
		return slotCS1
	case core.PropCS2:
		return slotCS2
	case core.PropCS3:
		return slotCS3
	case core.PropStrongLiveness:
		return slotL
	case core.PropWeakLiveness:
		return slotWL
	case core.PropCertConsistency:
		return slotCC
	case core.PropConservation:
		return slotCV
	}
	return -1
}

// Failed reports whether property p was evaluated, applies and does not
// hold: !Verdict(p).OK(), without copying the verdict out.
func (r *Report) Failed(p core.Property) bool {
	i := slotOf(p)
	return i >= 0 && r.verdicts[i].Property == p && r.verdicts[i].failed()
}

// Verdict returns the verdict of one property (the zero Verdict if it was
// not evaluated).
func (r *Report) Verdict(p core.Property) Verdict {
	v, _ := r.Lookup(p)
	return v
}

// AllOK reports whether every property holds or is inapplicable.
func (r *Report) AllOK() bool {
	for i := range r.verdicts {
		if r.verdicts[i].failed() {
			return false
		}
	}
	return true
}

// SafetyOK reports whether the safety properties (ES, CS1-3, CC, CV) hold.
// These must hold regardless of which participants are Byzantine.
func (r *Report) SafetyOK() bool {
	for _, i := range &safetySlots {
		if r.verdicts[i].failed() {
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
func (r *Report) SafetyFailures() []core.Property {
	return r.AppendSafetyFailures(nil)
}

// AppendSafetyFailures appends SafetyFailures to dst, so that a caller that
// judges run after run can keep one slice.
func (r *Report) AppendSafetyFailures(dst []core.Property) []core.Property {
	for _, i := range &safetySlots {
		if r.verdicts[i].failed() {
			dst = append(dst, propertyOrder[i])
		}
	}
	return dst
}

// Failures returns the properties that are applicable but do not hold, in
// canonical order.
func (r *Report) Failures() []core.Property {
	var out []core.Property
	for i := range r.verdicts {
		if r.verdicts[i].failed() {
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

// Evaluate computes all property verdicts for a run result (see
// Report.Evaluate).
func Evaluate(res *core.RunResult, opts Options) (r Report) {
	r.Evaluate(res, opts)
	return r
}

// Evaluate overwrites r with the verdicts on a run result, writing each slot
// in place, so that a caller that judges run after run keeps one report. It
// makes one pass over the customers, working out each one's honesty — her
// own and her escrows' — once, and renders no text (see Verdict). C is the
// operational reading of consistency: a run error or an entry in the run's
// consistency record (core.World.Report) falsifies it. T, CS1-3 are owed to
// a customer who abides with her escrows, ES to an escrow that abides, L and
// WL only if every participant abides (WL also if no customer's patience is
// finite and below PatiencePrecondition), and CV is every ledger of the
// book conserving value. A property failing at several participants fails
// at the first in chain order.
//
//xchain:hotpath
func (r *Report) Evaluate(res *core.RunResult, opts Options) {
	r.Protocol, r.Options = res.Protocol, opts
	v := &r.verdicts
	*v = [numSlots]Verdict{}
	for i, p := range &propertyOrder {
		if opts.Definition2 || i != slotWL && i != slotCC {
			v[i].Property, v[i].Holds = p, true
		}
	}
	v[slotC].Applicable, v[slotCC].Applicable, v[slotCV].Applicable = true, opts.Definition2, res.Book != nil

	// A violation is the actor's own inconsistency and takes precedence; a
	// detection means the engine produced an instruction that an honest
	// receiver could not accept from an honest sender.
	switch c := &v[slotC]; {
	case res.Err != nil:
		c.fail(whyEngineError, "", 0)
		c.err = res.Err
	case res.Violation.Actor != "":
		c.fail(whyViolation, res.Violation.Actor, 0)
		c.what = res.Violation.Label
	case res.Detection.Actor != "":
		c.fail(whyDetection, res.Detection.Actor, 0)
		c.what = res.Detection.Label
	}

	allHonest := res.AllHonest()
	patient := opts.Definition2 && allHonest
	n := res.Scenario.Topology.N
	upByz := false // whether escrow e_{i-1} deviates
	for i := 0; i <= n; i++ {
		if patient {
			if p := res.Scenario.PatienceOf(core.CustomerID(i)); p != 0 && p < opts.PatiencePrecondition {
				patient = false
			}
		}
		downByz := i < n && res.EscrowByzantine(i)
		if es := &v[slotES]; i < n && !downByz && es.Holds {
			es.Applicable = true
			if e := &res.Escrows[i]; e.BalanceDelta < 0 {
				es.fail(whyEscrowLost, e.ID, -e.BalanceDelta)
			} else if e.AuditErr != nil {
				es.fail(whyEscrowAudit, e.ID, 0)
				es.err = e.AuditErr
			}
		}
		honest := !upByz && !downByz && !res.CustomerByzantine(i)
		upByz = downByz
		if !honest {
			continue
		}
		out := &res.Customers[i]
		// T only covers customers who made a payment or issued a certificate
		// (Alice/connectors who paid in; Bob if he signed chi).
		if t := &v[slotT]; t.Holds && (out.PaidOut != 0 || out.IssuedChi || out.HoldsCommitCert || out.HoldsAbortCert) {
			t.Applicable = true
			// The a-priori bound is measured from the customer's first
			// protocol obligation: Byzantine peers may legally delay when her
			// participation begins, but not how long it takes once begun.
			elapsed := out.TerminatedAt - out.StartedAt
			if out.StartedAt == 0 || elapsed < 0 {
				elapsed = out.TerminatedAt
			}
			if !out.Terminated {
				t.fail(whyNeverTerminated, out.ID, 0)
			} else if opts.TimeBound > 0 && elapsed > opts.TimeBound {
				t.fail(whyBeyondBound, out.ID, int64(elapsed))
				t.m = int64(opts.TimeBound)
			}
		}
		net := out.WealthAfter - out.WealthBefore // NetWealthChange, read in place
		if i == 0 && out.Terminated {
			cs1 := &v[slotCS1]
			cs1.Applicable = true
			proof := out.HoldsChi
			if opts.Definition2 {
				proof = out.HoldsCommitCert
			}
			if net < 0 && !proof {
				cs1.fail(whyAliceLost, "", -net)
			}
		}
		if i == n && (out.Terminated || out.IssuedChi) {
			cs2 := &v[slotCS2]
			cs2.Applicable = true
			received := out.Received > 0 || net > 0
			if opts.Definition2 && !received && !out.HoldsAbortCert && out.Terminated {
				cs2.fail(whyBobNoCert, "", 0)
			} else if !opts.Definition2 && !received && out.IssuedChi {
				cs2.fail(whyBobUnpaid, "", 0)
			}
		}
		if cs3 := &v[slotCS3]; 0 < i && i < n && out.Terminated && cs3.Holds {
			cs3.Applicable = true
			if net < 0 {
				cs3.fail(whyConnectorLost, out.ID, -net)
			}
		}
	}

	if allHonest {
		v[slotL].Applicable = true
		v[slotWL].Applicable = patient
		if !res.BobPaid {
			v[slotL].fail(whyNotPaid, "", 0)
			if patient {
				v[slotWL].fail(whyNotPaidPatient, "", 0)
			}
		}
	}
	if opts.Definition2 && res.CommitIssued && res.AbortIssued {
		v[slotCC].fail(whyBothCerts, "", 0)
	}
	if err := res.Audit(); err != nil {
		v[slotCV].fail(whyAudit, "", 0)
		v[slotCV].err = err
	}
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
				s.FailureExamples[p] = v.Detail()
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
