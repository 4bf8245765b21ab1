// Package explore is the executable counterpart of Theorem 2, the paper's
// impossibility result: under partial synchrony there is no eventually
// terminating cross-chain payment protocol (Definition 1), even though the
// same protocols work under synchrony (Theorem 1).
//
// An impossibility theorem cannot be "run", so the package reproduces its
// content constructively:
//
//   - Candidates enumerates a family of escrow-timeout protocols — the
//     Figure-2 protocol with its windows scaled by various factors,
//     including effectively infinite timeouts. These are exactly the
//     protocols one would try in order to beat the theorem without an
//     external transaction manager.
//
//   - Attacks enumerates partial-synchrony adversaries: schedules that delay
//     selected protocol messages arbitrarily (but finitely), as the
//     partially synchronous model allows before GST.
//
//   - SearchImpossibility runs every candidate against every attack and
//     reports, for each pair, which Definition-1 property breaks. The
//     theorem's content shows up as: for every candidate there exists an
//     attack violating some property — short timeouts lose strong liveness
//     (Bob is never paid although everyone abides), long timeouts lose
//     termination (customers wait forever), and no scaling escapes both.
//
//   - VerifyTheorem2 checks exactly that quantifier structure and is used by
//     experiment E4 and the test suite.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/timelock"
)

// Candidate is one protocol from the timeout-based family.
type Candidate struct {
	Name string
	// Scale multiplies the derived windows a_i and d_i; <= 0 means
	// "effectively infinite" timeouts (the patient variant).
	Scale float64
	// Build returns the protocol configured for the scenario.
	Build func(s core.Scenario) core.Protocol
}

// Candidates returns the protocol family explored by experiment E4: the
// Figure-2 protocol with timeout windows scaled from aggressive to
// effectively infinite.
func Candidates() []Candidate {
	// Every scale >= 1 keeps the derivation sound under synchrony (the
	// Theorem-1 control in ControlUnderSynchrony relies on this); the 0 entry
	// is the effectively-infinite-timeout variant.
	scales := []float64{1, 2, 8, 64, 0 /* infinite */}
	out := make([]Candidate, 0, len(scales))
	for _, scale := range scales {
		scale := scale
		name := fmt.Sprintf("timelock-x%g", scale)
		if scale <= 0 {
			name = "timelock-infinite"
		}
		out = append(out, Candidate{
			Name:  name,
			Scale: scale,
			Build: func(s core.Scenario) core.Protocol {
				p := timelock.New()
				params := timelock.DeriveParams(s.Topology, s.Timing, true)
				if scale <= 0 {
					params = params.Inflated()
				} else {
					params = params.Scaled(scale)
				}
				p.Params = &params
				return p
			},
		})
	}
	return out
}

// Attack is a partial-synchrony adversary: it may delay any message by an
// arbitrary finite amount (here: until just after the given holdback), which
// is permitted before GST in the partially synchronous model.
type Attack struct {
	Name string
	// Matches selects the messages the adversary delays, by the head of their
	// description (netsim.HeadOf): a message's kind, never its values.
	Matches func(head string) bool
	// Holdback is how long matched messages are delayed.
	Holdback sim.Time
}

// Schedule is an attack as a netsim delay model: matched messages arrive
// after the holdback, every other within Fast. It is a plain value, so a
// caller that runs many attack scenarios rewrites one in place.
type Schedule struct {
	Attack Attack
	Fast   sim.Time
}

// Name implements netsim.DelayModel.
func (s *Schedule) Name() string { return "adversarial:" + s.Attack.Name }

// Delay implements netsim.DelayModel.
//
//xchain:hotpath
func (s *Schedule) Delay(env netsim.Envelope, eng *sim.Engine) (sim.Time, bool) {
	if s.Attack.Matches(netsim.HeadOf(env.Msg)) {
		return s.Attack.Holdback, false
	}
	if s.Fast <= 0 {
		return 1, false
	}
	return 1 + sim.Time(eng.Rand().Int63n(int64(s.Fast))), false
}

// Model returns the netsim delay model implementing the attack.
func (a Attack) Model(fast sim.Time) netsim.DelayModel { return &Schedule{Attack: a, Fast: fast} }

// AttackNames lists the adversarial schedules of the Theorem-2 search in
// canonical order. Each name selects one class of protocol message to starve:
// the certificate chi on its way back up the chain, the money on its way
// down, or the escrow promises P(a)/G(d) that set the chain up.
func AttackNames() []string {
	return []string{"delay-certificates", "delay-money", "delay-promises"}
}

// AttackByName returns the named attack with the given holdback, and whether
// the name is known. The scenario fuzzer in internal/scenariogen uses this to
// reconstruct attacks from serialised replay files.
func AttackByName(name string, holdback sim.Time) (Attack, bool) {
	var matches func(string) bool
	switch name {
	case "delay-certificates":
		matches = func(d string) bool { return strings.HasPrefix(d, "chi(") }
	case "delay-money":
		matches = func(d string) bool { return strings.HasPrefix(d, "$(") }
	case "delay-promises":
		matches = func(d string) bool { return strings.HasPrefix(d, "P(") || strings.HasPrefix(d, "G(") }
	default:
		return Attack{}, false
	}
	return Attack{Name: name, Matches: matches, Holdback: holdback}, true
}

// HoldbackFor returns the delay the Theorem-2 search uses against a candidate
// whose largest timeout window is maxWindow: always "finite but longer than
// the protocol is willing to wait", capped at an hour for the
// effectively-infinite candidate (maxWindow <= 0), whose termination failure
// any large holdback exposes.
func HoldbackFor(maxWindow sim.Time) sim.Time {
	holdback := 4 * maxWindow
	if holdback <= 0 || holdback > sim.Hour {
		holdback = sim.Hour
	}
	return holdback
}

// Attacks returns the adversarial schedules used against each candidate, with
// the holdback sized by HoldbackFor.
func Attacks(maxWindow sim.Time) []Attack {
	holdback := HoldbackFor(maxWindow)
	out := make([]Attack, 0, len(AttackNames()))
	for _, name := range AttackNames() {
		a, _ := AttackByName(name, holdback)
		out = append(out, a)
	}
	return out
}

// Finding records the outcome of one (candidate, attack) pair.
type Finding struct {
	Candidate string
	Attack    string
	// Violated lists the Definition-1 properties that failed (empty if the
	// pair survived the attack — which Theorem 2 says cannot hold for all
	// attacks).
	Violated []core.Property
	BobPaid  bool
	Duration sim.Time
}

// Options configures the search.
type Options struct {
	// N is the number of escrows in the scenario (chain length).
	N int
	// Seeds are the RNG seeds each pair is run under; a property is counted
	// as violated if it fails under any seed.
	Seeds []int64
}

// Horizon caps the run length used to interpret "eventually", here and in
// internal/scenariogen's oracle: a protocol that only terminates because the
// adversary's (arbitrarily large, but finite) holdback ran out has no
// a-priori bound, and as the holdback grows its termination time grows with
// it. A run that lasts beyond the horizon therefore counts as a termination
// failure; this is the experimental reading of Theorem 2's limit argument.
const Horizon = 10 * sim.Minute

// DefaultOptions returns the options used by experiment E4.
func DefaultOptions() Options {
	return Options{N: 3, Seeds: []int64{1, 2, 3}}
}

// SearchImpossibility runs every candidate against every attack and returns
// one finding per pair.
func SearchImpossibility(opts Options) []Finding {
	if opts.N <= 0 {
		opts.N = 3
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []int64{1}
	}
	var findings []Finding
	w := core.NewWorld() // every result is read before the next run
	for _, cand := range Candidates() {
		// Derive the candidate's largest window to size the attacks.
		probe := core.NewScenario(opts.N, opts.Seeds[0])
		params := timelock.DeriveParams(probe.Topology, probe.Timing, true)
		maxWindow := params.A[0]
		if cand.Scale > 0 {
			maxWindow = sim.Time(float64(maxWindow) * cand.Scale)
		} else {
			maxWindow = 0 // infinite candidate: Attacks picks the cap
		}
		for _, att := range Attacks(maxWindow) {
			violated := map[core.Property]bool{}
			var bobPaid bool
			var duration sim.Time
			for _, seed := range opts.Seeds {
				s := core.NewScenario(opts.N, seed).Muted()
				s.Network = att.Model(s.Timing.MaxMsgDelay)
				p := cand.Build(s)
				res, err := p.RunIn(w, s)
				if err != nil {
					violated[core.PropConsistency] = true
					continue
				}
				rep := check.Evaluate(res, check.Def1Eventual())
				for _, prop := range rep.Failures() {
					violated[prop] = true
				}
				// "Eventually" is interpreted against the horizon.
				if res.Duration > Horizon {
					violated[core.PropTermination] = true
				}
				bobPaid = bobPaid || res.BobPaid
				if res.Duration > duration {
					duration = res.Duration
				}
			}
			findings = append(findings, Finding{
				Candidate: cand.Name,
				Attack:    att.Name,
				Violated:  sortedProps(violated),
				BobPaid:   bobPaid,
				Duration:  duration,
			})
		}
	}
	return findings
}

func sortedProps(set map[core.Property]bool) []core.Property {
	out := make([]core.Property, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VerifyTheorem2 checks the theorem's quantifier structure over the
// findings: for every candidate protocol in the family there exists an
// attack under which some Definition-1 property fails. It returns an error
// naming any candidate that survived every attack.
func VerifyTheorem2(findings []Finding) error {
	attacked := map[string]bool{}
	broken := map[string]bool{}
	for _, f := range findings {
		attacked[f.Candidate] = true
		if len(f.Violated) > 0 {
			broken[f.Candidate] = true
		}
	}
	for cand := range attacked {
		if !broken[cand] {
			return fmt.Errorf("explore: candidate %s satisfied Definition 1 under every attack — Theorem 2 would be contradicted", cand)
		}
	}
	return nil
}

// ControlUnderSynchrony runs every candidate under an honest synchronous
// network and reports whether all Definition-1 properties hold — the
// Theorem-1 control group that shows it is partial synchrony, not the
// protocols, that breaks things. The infinite-timeout candidate is included;
// under synchrony its windows are simply never exercised.
func ControlUnderSynchrony(opts Options) (map[string]bool, error) {
	if opts.N <= 0 {
		opts.N = 3
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []int64{1}
	}
	out := map[string]bool{}
	w := core.NewWorld()
	for _, cand := range Candidates() {
		ok := true
		for _, seed := range opts.Seeds {
			s := core.NewScenario(opts.N, seed).Muted()
			res, err := cand.Build(s).RunIn(w, s)
			if err != nil {
				return nil, err
			}
			rep := check.Evaluate(res, check.Def1Eventual())
			ok = ok && rep.AllOK()
		}
		out[cand.Name] = ok
	}
	return out, nil
}
