package traffic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

// FaultPlan is a deterministic, seed-derived schedule that makes a fraction
// of the chain's connectors Byzantine mid-run. Each corrupted connector gets
// a behaviour drawn from the adversary catalogue (certificate holdback,
// lock-and-abandon griefing via silence, forged certificates, refusal to
// pay, slow actions) and a fault window: every payment whose route crosses
// that connector while the window is open inherits the behaviour in its
// sub-scenario; payments before the window opens — or after it closes, when
// Outage is set — see an honest connector again. An optional manager outage
// window makes the weaklive transaction manager silent for its duration.
//
// The schedule is a pure function of (Scenario.Seed, FaultPlan): which
// connectors are corrupted, with which behaviour, over which window, all
// derive from a dedicated splitmix64 stream, so faulted runs stay
// byte-identical across worker counts and retention policies — the same
// determinism contract honest traffic has.
//
// The zero value is the honest plan: no connector is ever corrupted.
type FaultPlan struct {
	// Fraction of the chain's connectors (customers c1..c_{n-1}) made
	// Byzantine, rounded to the nearest whole connector but at least one
	// when positive. Zero disables connector corruption.
	Fraction float64
	// Behaviours is the catalogue corrupted connectors draw from, by
	// adversary behaviour name (see adversary.CustomerBehaviours). Empty
	// means DefaultFaultBehaviours.
	Behaviours []string
	// From is the earliest instant any fault window opens. Zero means
	// connectors are Byzantine from the start of the run.
	From sim.Time
	// Stagger spreads window openings uniformly over [From, From+Stagger],
	// so connectors turn Byzantine mid-run at different instants rather
	// than all at once.
	Stagger sim.Time
	// Outage is the length of each connector's fault window; after it the
	// connector recovers and behaves honestly again. Zero means corrupted
	// connectors stay Byzantine to the end of the run.
	Outage sim.Time
	// ManagerOutage makes the weaklive transaction manager silent during
	// [From, From+ManagerOutage). Zero disables the manager outage. Only
	// payments running a manager-based protocol are affected.
	ManagerOutage sim.Time
}

// faultPlanSalt separates the fault-plan RNG stream from the generator
// (splitmix64(seed)) and exemplar-reservoir (seed^0xE8E47A17) streams.
const faultPlanSalt = 0xB12A47E1

// never is the window end of a permanent fault.
const never = sim.Time(math.MaxInt64)

// DefaultFaultBehaviours is the behaviour catalogue a FaultPlan with no
// explicit Behaviours draws from: certificate holdback (inside the run,
// lock-and-abandon griefing by silence), outright refusal to pay, forged
// certificates and slow actions beyond the timeout envelope.
func DefaultFaultBehaviours() []string {
	return []string{
		string(adversary.Withhold),
		string(adversary.Silent),
		string(adversary.RefusePayment),
		string(adversary.Forge),
		string(adversary.SlowActions),
	}
}

// Enabled reports whether the plan injects any fault at all.
func (fp FaultPlan) Enabled() bool { return fp.Fraction > 0 || fp.ManagerOutage > 0 }

// Validate checks the plan against a topology.
func (fp FaultPlan) Validate(t core.Topology) error {
	if fp.Fraction < 0 || fp.Fraction > 1 {
		return fmt.Errorf("traffic: fault fraction %v outside [0,1]", fp.Fraction)
	}
	if fp.Fraction > 0 && t.N < 2 {
		return fmt.Errorf("traffic: fault plan corrupts connectors but a %d-escrow chain has none", t.N)
	}
	for _, d := range []sim.Time{fp.From, fp.Stagger, fp.Outage, fp.ManagerOutage} {
		if d < 0 || d > maxWindow {
			return fmt.Errorf("traffic: fault plan window %v outside [0, %v]", d, maxWindow)
		}
	}
	allowed := map[string]bool{}
	for _, b := range adversary.CustomerBehaviours() {
		allowed[string(b)] = true
	}
	for _, b := range fp.Behaviours {
		if !allowed[b] {
			return fmt.Errorf("traffic: unknown fault behaviour %q (have %v)", b, adversary.CustomerBehaviours())
		}
	}
	return nil
}

// plannedFault is one connector's compiled fault: the behaviour's concrete
// FaultSpec and the half-open window [from, to) during which payments
// crossing the connector inherit it.
type plannedFault struct {
	index     int // chain customer index of the connector
	behaviour adversary.Behaviour
	spec      core.FaultSpec
	from, to  sim.Time
}

// active reports whether the fault window covers instant at.
func (f plannedFault) active(at sim.Time) bool { return at >= f.from && at < f.to }

// byzMark is one transition of a connector's Byzantine status, consumed by
// the admission timeline to tag ledger accounts (and the live gauge).
type byzMark struct {
	at    sim.Time
	index int
	on    bool
}

// compiledPlan is a FaultPlan resolved against one scenario: the concrete
// per-connector faults, the manager window, and — for attribution and
// liquidity accounting — the connectors the base scenario already corrupts
// statically via Scenario.Faults. nil means a fully honest run.
type compiledPlan struct {
	injected []plannedFault        // sorted by connector index
	byConn   map[int]*plannedFault // connector index -> its injected fault
	static   map[int]bool          // statically Byzantine connectors (always active)

	manager    plannedFault
	hasManager bool
}

// compile resolves the plan against the scenario. The RNG stream is seeded
// from Scenario.Seed alone and consumed in a fixed order (connector
// permutation, then per chosen connector: behaviour, window jitter), so the
// compiled plan is a pure function of (Scenario.Seed, FaultPlan) — workers
// never touch it concurrently with writes because RunWith compiles once up
// front. Returns nil when there is nothing to inject and the scenario has
// no statically Byzantine connectors either.
func (fp FaultPlan) compile(s core.Scenario) *compiledPlan {
	cp := &compiledPlan{byConn: map[int]*plannedFault{}, static: map[int]bool{}}
	for i := 1; i < s.Topology.N; i++ {
		if s.FaultOf(core.CustomerID(i)).IsByzantine() {
			cp.static[i] = true
		}
	}
	if conn := s.Topology.N - 1; fp.Fraction > 0 && conn > 0 {
		rng := sim.NewRand(int64(splitmix64(uint64(s.Seed)^faultPlanSalt) >> 1))
		count := int(math.Round(fp.Fraction * float64(conn)))
		if count < 1 {
			count = 1
		}
		if count > conn {
			count = conn
		}
		chosen := rng.Perm(conn)[:count]
		sort.Ints(chosen)
		behaviours := fp.Behaviours
		if len(behaviours) == 0 {
			behaviours = DefaultFaultBehaviours()
		}
		for _, v := range chosen {
			b := adversary.Behaviour(behaviours[rng.Intn(len(behaviours))])
			from := fp.From
			if fp.Stagger > 0 {
				from += sim.Time(rng.Int63n(int64(fp.Stagger) + 1))
			}
			to := never
			if fp.Outage > 0 {
				to = from + fp.Outage
			}
			cp.injected = append(cp.injected, plannedFault{
				index:     v + 1, // connectors are customers c1..c_{n-1}
				behaviour: b,
				spec:      adversary.Spec(b, s.Timing),
				from:      from,
				to:        to,
			})
		}
		for i := range cp.injected {
			cp.byConn[cp.injected[i].index] = &cp.injected[i]
		}
	}
	if fp.ManagerOutage > 0 {
		cp.manager = plannedFault{
			spec: core.FaultSpec{Silent: true},
			from: fp.From,
			to:   fp.From + fp.ManagerOutage,
		}
		cp.hasManager = true
	}
	if len(cp.injected) == 0 && len(cp.static) == 0 && !cp.hasManager {
		return nil
	}
	return cp
}

// specAt returns the injected fault of connector idx active at instant at.
// Injected faults override any static fault on the same connector for the
// duration of their window.
func (cp *compiledPlan) specAt(idx int, at sim.Time) (core.FaultSpec, bool) {
	if f, ok := cp.byConn[idx]; ok && f.active(at) {
		return f.spec, true
	}
	return core.FaultSpec{}, false
}

// managerActive reports whether the manager outage window covers at.
func (cp *compiledPlan) managerActive(at sim.Time) bool {
	return cp.hasManager && cp.manager.active(at)
}

// routeFaulted reports whether any connector strictly inside the route
// sender -> receiver is Byzantine — statically, or under an injected window
// overlapping [from, to]. The admission timeline uses it to attribute a
// queue-expiry drop to the faulted path the payment waited on.
func (cp *compiledPlan) routeFaulted(sender, receiver int, from, to sim.Time) bool {
	for idx := sender + 1; idx < receiver; idx++ {
		if cp.static[idx] {
			return true
		}
		if f, ok := cp.byConn[idx]; ok && f.from <= to && from < f.to {
			return true
		}
	}
	return false
}

// connectors returns how many distinct connectors the plan injects faults
// into (static faults of the base scenario are not counted).
func (cp *compiledPlan) connectors() int {
	if cp == nil {
		return 0
	}
	return len(cp.injected)
}

// marks returns every Byzantine-status transition in schedule order: static
// faults switch on at t=0 and never recover; injected faults switch on at
// their window opening and off at its close. The timeline replays these to
// tag ledger accounts (ledger.SetByzantine) and drive the live gauge.
func (cp *compiledPlan) marks() []byzMark {
	var out []byzMark
	for idx := range cp.static {
		out = append(out, byzMark{at: 0, index: idx, on: true})
	}
	for _, f := range cp.injected {
		out = append(out, byzMark{at: f.from, index: f.index, on: true})
		if f.to != never {
			out = append(out, byzMark{at: f.to, index: f.index, on: false})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		if out[i].index != out[j].index {
			return out[i].index < out[j].index
		}
		return !out[i].on && out[j].on
	})
	return out
}

// Describe renders the compiled schedule, one connector per line (used by
// the CLI's verbose mode).
func (cp *compiledPlan) Describe() string {
	if cp == nil {
		return "fault plan: honest (no Byzantine connectors)\n"
	}
	s := fmt.Sprintf("fault plan: %d Byzantine connector(s)\n", len(cp.injected))
	for _, f := range cp.injected {
		window := fmt.Sprintf("from %v", f.from)
		if f.to != never {
			window = fmt.Sprintf("%v..%v", f.from, f.to)
		}
		s += fmt.Sprintf("  c%-4d %-16s %s\n", f.index, f.behaviour, window)
	}
	if cp.hasManager {
		s += fmt.Sprintf("  manager silent %v..%v\n", cp.manager.from, cp.manager.to)
	}
	return s
}
