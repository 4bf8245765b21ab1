package scenariogen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/timelock"
)

// Theorem 2 says that under partial synchrony no timeout protocol is an
// eventually terminating cross-chain payment (Definition 1), although the
// same protocols work under synchrony (Theorem 1). This file reproduces it
// constructively. The candidates are the Figure-2 protocol with its windows
// derived, scaled by 2, 8 and 64, and effectively infinite; the attacks
// (Schedule) each delay one class of protocol message arbitrarily but
// finitely, as the model allows before GST. Each (candidate, attack, seed) is
// one Spec (theorem2Spec), judged like any generated scenario; VerifyTheorem2
// checks that every candidate breaks under some attack — short timeouts lose
// strong liveness, long ones termination — and ControlUnderSynchrony that
// none breaks under synchrony. AuditTheorem1, last, is Theorem 1's own audit
// over fault assignments.

// Horizon caps the run length the oracle uses to interpret "eventually" in
// an envelope-violating run: a protocol that only terminates because the
// adversary's (arbitrarily large, but finite) holdback ran out has no
// a-priori bound, and as the holdback grows its termination time grows with
// it. A run that lasts beyond the horizon therefore counts as a termination
// failure; this is the experimental reading of Theorem 2's limit argument.
const Horizon = 10 * sim.Minute

// Schedule is a partial-synchrony adversary as a netsim delay model: messages
// whose head (netsim.HeadOf) Matches arrive after the holdback, every other
// within Fast. It is a plain value, so a caller that runs many attack
// scenarios rewrites one in place.
type Schedule struct {
	// Attack names the schedule (AttackNames).
	Attack string
	// Matches selects the messages the adversary delays, by the head of their
	// description: a message's kind, never its values.
	Matches func(head string) bool
	// Holdback is how long matched messages are delayed.
	Holdback sim.Time
	Fast     sim.Time
}

// Name implements netsim.DelayModel.
func (s *Schedule) Name() string { return "adversarial:" + s.Attack }

// Delay implements netsim.DelayModel.
//
//xchain:hotpath
func (s *Schedule) Delay(env netsim.Envelope, eng *sim.Engine) (sim.Time, bool) {
	if s.Matches(netsim.HeadOf(env.Msg)) {
		return s.Holdback, false
	}
	if s.Fast <= 0 {
		return 1, false
	}
	return 1 + sim.Time(eng.Rand().Int63n(int64(s.Fast))), false
}

// AttackNames lists the adversarial schedules of the Theorem-2 search in
// canonical order. Each name selects one class of protocol message to starve:
// the certificate chi on its way back up the chain, the money on its way
// down, or the escrow promises P(a)/G(d) that set the chain up.
func AttackNames() []string {
	return []string{"delay-certificates", "delay-money", "delay-promises"}
}

// AttackByName returns the named attack with the given holdback, and whether
// the name is known. Fast is left for the caller to set.
func AttackByName(name string, holdback sim.Time) (Schedule, bool) {
	var matches func(string) bool
	switch name {
	case "delay-certificates":
		matches = func(d string) bool { return strings.HasPrefix(d, "chi(") }
	case "delay-money":
		matches = func(d string) bool { return strings.HasPrefix(d, "$(") }
	case "delay-promises":
		matches = func(d string) bool { return strings.HasPrefix(d, "P(") || strings.HasPrefix(d, "G(") }
	default:
		return Schedule{}, false
	}
	return Schedule{Attack: name, Matches: matches, Holdback: holdback}, true
}

// HoldbackFor returns the delay an attack uses against a candidate whose
// largest timeout window is maxWindow: always "finite but longer than the
// protocol is willing to wait", capped at an hour for the effectively-infinite
// candidate (maxWindow <= 0), whose termination failure any large holdback
// exposes.
func HoldbackFor(maxWindow sim.Time) sim.Time {
	holdback := 4 * maxWindow
	if holdback <= 0 || holdback > sim.Hour {
		holdback = sim.Hour
	}
	return holdback
}

// attackHoldback is HoldbackFor the spec's largest timeout window, a_0 as the
// drift-aware derivation gives it at the spec's TimeoutScale (0 leaves it
// derived; the inflated windows of -1 get the cap).
func (sp Spec) attackHoldback() sim.Time {
	if sp.TimeoutScale < 0 {
		return HoldbackFor(0)
	}
	a0 := timelock.FirstWindow(core.NewTopology(sp.N), sp.Timing.Timing(), true)
	return HoldbackFor(sim.Time(float64(a0) * cmp.Or(sp.TimeoutScale, 1)))
}

// theorem2Scales are the candidates' TimeoutScales in canonical order. Every
// finite one keeps the derivation sound under synchrony, which the control
// relies on.
var theorem2Scales = []float64{0, 2, 8, 64, -1}

// candidateName names the candidate running at the timeout scale.
func candidateName(scale float64) string {
	if scale < 0 {
		return "timelock-infinite"
	}
	return fmt.Sprintf("timelock-x%g", max(scale, 1))
}

// theorem2Spec returns the member of the Theorem-2 population for a candidate
// (its TimeoutScale), an attack and a seed on a chain of n escrows: the
// default payment and timing, with the attack holding its messages back
// beyond the candidate's largest window. The empty attack is the synchronous
// control.
func theorem2Spec(n int, seed int64, scale float64, attack string) Spec {
	sp := NewSpec(FamTimelock, n, seed)
	sp.TimeoutScale = scale
	if attack != "" {
		sp.Net = NetworkSpec{Kind: NetAttack, Attack: attack, Holdback: sp.attackHoldback(), Fast: sp.Timing.Delta}
	}
	return sp
}

// Finding records the outcome of one (candidate, attack) pair over its seeds.
type Finding struct {
	Candidate string
	Attack    string
	// Violated lists the Definition-1 properties that failed under some seed
	// (empty if the pair survived the attack — which Theorem 2 says cannot
	// hold for all attacks). A run that could not be judged counts as C.
	Violated []core.Property
	BobPaid  bool
	Duration sim.Time
}

// judgeCandidates judges every candidate against every attack on a chain of
// n escrows under each seed, and returns one finding per pair in candidate
// order.
func judgeCandidates(n int, seeds []int64, attacks []string) []Finding {
	var (
		ws       worlds
		out      Outcome
		findings []Finding
	)
	for _, scale := range theorem2Scales {
		for _, attack := range attacks {
			f := Finding{Candidate: candidateName(scale), Attack: attack}
			for _, seed := range seeds {
				judge(theorem2Spec(n, seed, scale, attack), &ws, &out)
				f.Violated = append(f.Violated, out.ExpectedFailures...)
				for _, v := range out.Violations {
					f.Violated = append(f.Violated, cmp.Or(v.Property, core.PropConsistency))
				}
				f.BobPaid = f.BobPaid || out.BobPaid
				f.Duration = max(f.Duration, out.Duration)
			}
			slices.Sort(f.Violated)
			f.Violated = slices.Compact(f.Violated)
			findings = append(findings, f)
		}
	}
	return findings
}

// SearchTheorem2 runs every candidate against every attack on a chain of n
// escrows under each seed and returns one finding per pair, in candidate and
// attack order.
func SearchTheorem2(n int, seeds []int64) []Finding {
	return judgeCandidates(n, seeds, AttackNames())
}

// VerifyTheorem2 checks the theorem's quantifier structure over the
// findings: for every candidate protocol in the family there exists an
// attack under which some Definition-1 property fails. It returns an error
// naming the first candidate, in finding order, that survived every attack.
func VerifyTheorem2(findings []Finding) error {
	for _, f := range findings {
		broken := func(g Finding) bool { return g.Candidate == f.Candidate && len(g.Violated) > 0 }
		if !slices.ContainsFunc(findings, broken) {
			return fmt.Errorf("scenariogen: candidate %s satisfied Definition 1 under every attack — Theorem 2 would be contradicted", f.Candidate)
		}
	}
	return nil
}

// ControlUnderSynchrony runs every candidate on a chain of n escrows under
// each seed on a synchronous network, the Theorem-1 control group that shows
// it is partial synchrony, not the protocols, that breaks things, and returns
// the candidates that failed some property there, in candidate order: none,
// by Theorem 1. The infinite-timeout candidate is included; under synchrony
// its windows are simply never exercised.
func ControlUnderSynchrony(n int, seeds []int64) []string {
	var failed []string
	for _, f := range judgeCandidates(n, seeds, []string{""}) {
		if len(f.Violated) > 0 {
			failed = append(failed, f.Candidate)
		}
	}
	return failed
}

// AuditTheorem1 is Theorem 1's safety audit: it judges the time-bounded
// protocol on a chain of n escrows under each assignment and seeds 1..seeds,
// muted on one standing pair of worlds, and adds each run's Definition-1
// verdicts to sum. It returns an error for each run outside the theorem's
// model and each the kernel could not make.
func AuditTheorem1(sum *check.Summary, n int, assignments []adversary.Assignment, seeds int) (errs []error) {
	var (
		ws  worlds
		out Outcome
	)
	for _, a := range assignments {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sp := NewSpec(FamTimelock, n, seed)
			sp.Faults = faultsOf(a)
			p := kernel(&sp, &ws, false, &out)
			switch {
			case out.Class != ClassConforming:
				errs = append(errs, fmt.Errorf("%s: outside Theorem 1's model", sp.Describe()))
			case p.report == nil:
				errs = append(errs, fmt.Errorf("%s: %s", sp.Describe(), out.Violations[0].Detail))
			default:
				sum.Add(*p.report)
			}
		}
	}
	return errs
}
