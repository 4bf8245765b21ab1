// Package scenariogen is the property-based scenario fuzzer: a seeded
// generator of random protocol scenarios, a driver that runs them through the
// Definition-1/2 property checkers of internal/check, theorem-shaped oracles
// deciding which verdicts are owed, a greedy shrinker that minimises failing
// scenarios, and a self-contained replay format for regressions.
//
// The paper's claims are universally quantified: Theorem 1 must hold on
// every synchronous schedule, Theorem 2 needs only one adversarial schedule,
// Theorem 3 must hold under any partial-synchrony behaviour. The experiment
// grids in internal/bench and internal/explore only exercise hand-picked
// points of those quantifiers; this package samples them. Every scenario is
// a pure function of one int64 seed, so any failure report reduces to a
// single number plus this package's version.
package scenariogen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/deals"
	"repro/internal/explore"
	"repro/internal/htlc"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/traffic"
	"repro/internal/weaklive"
)

// Family selects the protocol (or protocol pair) a generated scenario
// exercises.
type Family string

// Families. The timelock variants and htlc/weaklive run one core.Protocol;
// differential runs the timelock process and ANTA engines on the same
// scenario and compares them; the deal families run the Herlihy et al.
// protocols on a well-formed ring deal.
const (
	FamTimelock      Family = "timelock"
	FamANTA          Family = "timelock-anta"
	FamNaive         Family = "timelock-naive"
	FamHTLC          Family = "htlc"
	FamWeaklive      Family = "weaklive"
	FamCommittee     Family = "weaklive-committee"
	FamDifferential  Family = "differential"
	FamDealTimelock  Family = "deal-timelock"
	FamDealCertified Family = "deal-certified"
	// FamTraffic runs a whole internal/traffic population — many concurrent
	// payments on one shared chain, optionally under a Byzantine fault plan —
	// and judges the aggregate safety oracle instead of one payment's report.
	FamTraffic Family = "traffic"
)

// AllFamilies lists every family in canonical order.
func AllFamilies() []Family {
	return []Family{
		FamTimelock, FamANTA, FamNaive, FamHTLC, FamWeaklive, FamCommittee,
		FamDifferential, FamDealTimelock, FamDealCertified, FamTraffic,
	}
}

// ParseFamily resolves a family by name.
func ParseFamily(name string) (Family, bool) {
	for _, f := range AllFamilies() {
		if string(f) == name {
			return f, true
		}
	}
	return "", false
}

// NetworkKind selects the delay model of a scenario.
type NetworkKind string

// Network kinds. Synchronous respects the timing envelope (Theorem 1's
// model); partial-synchrony and attack violate it (Theorem 2/3's model).
const (
	NetSynchronous NetworkKind = "synchronous"
	NetPartial     NetworkKind = "partial-synchrony"
	NetAttack      NetworkKind = "attack"
)

// NetworkSpec is a serialisable description of a delay model. Unlike
// netsim.DelayModel values (which carry closures), a NetworkSpec survives a
// JSON round trip, which is what makes replay files self-contained.
type NetworkSpec struct {
	Kind NetworkKind `json:"kind"`
	// Min is the synchronous lower delay bound; the upper bound is the
	// scenario's Timing.Delta (envelope-conforming by construction).
	Min sim.Time `json:"min,omitempty"`
	// GST and MaxPreGST parametrise partial synchrony (delta is Timing.Delta).
	GST       sim.Time `json:"gst,omitempty"`
	MaxPreGST sim.Time `json:"maxPreGST,omitempty"`
	// Attack names an explore.AttackByName schedule; Holdback is how long
	// matched messages are delayed, Fast bounds every other delay.
	Attack   string   `json:"attack,omitempty"`
	Holdback sim.Time `json:"holdback,omitempty"`
	Fast     sim.Time `json:"fast,omitempty"`
}

// TimingSpec is the serialisable counterpart of core.Timing.
type TimingSpec struct {
	Delta      sim.Time `json:"delta"`
	Processing sim.Time `json:"processing"`
	Rho        float64  `json:"rho"`
	Offset     sim.Time `json:"offset"`
}

// Timing converts the spec to core.Timing.
func (t TimingSpec) Timing() core.Timing {
	return core.Timing{
		MaxMsgDelay:   t.Delta,
		MaxProcessing: t.Processing,
		Clock:         clock.Bound{MaxRho: clock.Drift(t.Rho), MaxOffset: t.Offset},
	}
}

// TrafficSpec parametrises a FamTraffic scenario: the offered payment
// population and the Byzantine fault plan it runs under. Like everything else
// in a Spec it is fully serialisable; the traffic engine's determinism
// contract (byte-identical results across worker counts and retention
// policies) makes the whole run a pure function of the Spec.
type TrafficSpec struct {
	// Payments is the population size; Rate the Poisson arrival rate per
	// simulated second.
	Payments int     `json:"payments"`
	Rate     float64 `json:"rate"`
	// SubPaths routes payments between random customer pairs instead of
	// always Alice -> Bob, so a partial attacker fraction is meaningful.
	SubPaths bool `json:"subPaths,omitempty"`
	// Liquidity bounds each traffic ledger's per-customer endowment (0 =
	// auto-sized so capacity never rejects a payment); QueuePatience lets
	// blocked payments queue instead of failing immediately.
	Liquidity     int64    `json:"liquidity,omitempty"`
	QueuePatience sim.Time `json:"queuePatience,omitempty"`
	// FaultFraction, FaultBehaviours, FaultFrom, FaultOutage and
	// ManagerOutage translate directly to a traffic.FaultPlan. A zero
	// FaultFraction with zero ManagerOutage is an honest run.
	FaultFraction   float64  `json:"faultFraction,omitempty"`
	FaultBehaviours []string `json:"faultBehaviours,omitempty"`
	FaultFrom       sim.Time `json:"faultFrom,omitempty"`
	FaultOutage     sim.Time `json:"faultOutage,omitempty"`
	ManagerOutage   sim.Time `json:"managerOutage,omitempty"`
	// CheckpointAt, when in [1, Payments-1], makes the oracle additionally
	// interrupt the run at that payment, checkpoint it, resume the snapshot
	// and demand the resumed Result be byte-identical to the uninterrupted
	// one (the checkpoint arm of the determinism contract). 0 disables.
	CheckpointAt int `json:"checkpointAt,omitempty"`
}

// plan translates the traffic spec's fault fields to a traffic.FaultPlan.
func (ts *TrafficSpec) plan() traffic.FaultPlan {
	return traffic.FaultPlan{
		Fraction:      ts.FaultFraction,
		Behaviours:    ts.FaultBehaviours,
		From:          ts.FaultFrom,
		Outage:        ts.FaultOutage,
		ManagerOutage: ts.ManagerOutage,
	}
}

// Spec is a fully serialisable scenario: everything needed to reconstruct
// and re-run one protocol execution byte-identically. Generate derives a Spec
// from a seed; replay files persist them as JSON.
type Spec struct {
	// Seed drives all run randomness (delays within bounds, drift draws).
	Seed   int64  `json:"seed"`
	Family Family `json:"family"`
	// N is the number of escrows (payment families) or parties (deal
	// families, ring deal with one asset per arc).
	N int `json:"n"`
	// Base and Commission fix the payment amounts (deal arcs use
	// Base + i*Commission for arc i).
	Base       int64       `json:"base"`
	Commission int64       `json:"commission"`
	Timing     TimingSpec  `json:"timing"`
	Net        NetworkSpec `json:"net"`
	// TimeoutScale scales the derived timelock windows: 0 or 1 = derived
	// (sound), > 1 = scaled (still sound under synchrony), -1 = effectively
	// infinite (the patient end of the Theorem-2 candidate family).
	TimeoutScale float64 `json:"timeoutScale,omitempty"`
	// CommitteeSize is the notary committee size for FamCommittee (0 = 4).
	CommitteeSize int `json:"committeeSize,omitempty"`
	// Faults maps participant IDs to adversary behaviour names.
	Faults map[string]string `json:"faults,omitempty"`
	// Patience maps customer IDs to weak-liveness patience (0 = infinite).
	Patience map[string]sim.Time `json:"patience,omitempty"`
	// PatienceFloor is the Definition-2 precondition passed to check.Def2 and
	// the PartyPatience of certified deal runs.
	PatienceFloor sim.Time `json:"patienceFloor,omitempty"`
	// Crypto names the signature backend the run authenticates with ("" =
	// ed25519). Authentication is a model assumption, so the oracle's
	// verdicts are provably independent of it — the backend-differential
	// regression asserts exactly that.
	Crypto string `json:"crypto,omitempty"`
	// Traffic is the payment population of a FamTraffic spec; nil (and
	// required to be nil) for every other family.
	Traffic *TrafficSpec `json:"traffic,omitempty"`
}

// Size bounds of a spec. A replay file is an input boundary: without them a
// hand-edited file chooses the run's memory and time freely, and values near
// the int64 range overflow the timing arithmetic. All are far beyond
// anything Generate draws (n <= 8, 120 payments, windows of seconds).
const (
	maxChain           = 64            // escrows, deal parties, notaries
	maxAmount          = 1_000_000_000 // base, commission, liquidity endowment
	maxSpan            = int64(1000 * sim.Hour)
	maxRho             = 0.1
	maxTimeoutScale    = 1000.0
	maxTrafficPayments = 10_000
)

// span is one bounded integer field of a spec.
type span struct {
	name      string
	v, lo, hi int64
}

// Validate checks that the spec is structurally sound, every size is within
// its bound and all names resolve.
func (sp Spec) Validate() error {
	if _, ok := ParseFamily(string(sp.Family)); !ok {
		return fmt.Errorf("scenariogen: unknown family %q", sp.Family)
	}
	minN := 1
	if sp.isDeal() {
		minN = 2
	}
	spans := []span{
		{"n", int64(sp.N), int64(minN), maxChain},
		{"base", sp.Base, 1, maxAmount},
		{"commission", sp.Commission, 0, maxAmount},
		{"committeeSize", int64(sp.CommitteeSize), 0, maxChain},
		{"timing.delta", int64(sp.Timing.Delta), 1, int64(sim.Hour)},
		{"timing.processing", int64(sp.Timing.Processing), 1, int64(sim.Hour)},
		{"timing.offset", int64(sp.Timing.Offset), 0, int64(sim.Hour)},
		{"net.min", int64(sp.Net.Min), 0, maxSpan},
		{"net.gst", int64(sp.Net.GST), 0, maxSpan},
		{"net.maxPreGST", int64(sp.Net.MaxPreGST), 0, maxSpan},
		{"net.holdback", int64(sp.Net.Holdback), 0, maxSpan},
		{"net.fast", int64(sp.Net.Fast), 0, maxSpan},
		{"patienceFloor", int64(sp.PatienceFloor), 0, maxSpan},
	}
	if ts := sp.Traffic; ts != nil {
		spans = append(spans,
			span{"traffic.payments", int64(ts.Payments), 1, maxTrafficPayments},
			span{"traffic.checkpointAt", int64(ts.CheckpointAt), 0, int64(ts.Payments) - 1},
			span{"traffic.liquidity", ts.Liquidity, 0, maxAmount},
			span{"traffic.queuePatience", int64(ts.QueuePatience), 0, maxSpan})
	}
	for _, b := range spans {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("scenariogen: %s %d outside [%d, %d]", b.name, b.v, b.lo, b.hi)
		}
	}
	for id, p := range sp.Patience {
		if p < 0 || int64(p) > maxSpan {
			return fmt.Errorf("scenariogen: patience of %s %d outside [0, %d]", id, p, maxSpan)
		}
	}
	if sp.Timing.Rho < 0 || sp.Timing.Rho > maxRho {
		return fmt.Errorf("scenariogen: clock drift %v outside [0, %v]", sp.Timing.Rho, maxRho)
	}
	if sp.TimeoutScale != -1 && (sp.TimeoutScale < 0 || sp.TimeoutScale > maxTimeoutScale) {
		return fmt.Errorf("scenariogen: timeoutScale %v is neither -1 nor in [0, %v]", sp.TimeoutScale, maxTimeoutScale)
	}
	switch sp.Net.Kind {
	case NetSynchronous, NetPartial:
	case NetAttack:
		if _, ok := explore.AttackByName(sp.Net.Attack, sp.Net.Holdback); !ok {
			return fmt.Errorf("scenariogen: unknown attack %q", sp.Net.Attack)
		}
	default:
		return fmt.Errorf("scenariogen: unknown network kind %q", sp.Net.Kind)
	}
	for id, name := range sp.Faults {
		if _, ok := adversary.ParseBehaviour(name); !ok {
			return fmt.Errorf("scenariogen: unknown behaviour %q for %s", name, id)
		}
	}
	if _, ok := sig.BackendByName(sp.Crypto); !ok {
		return fmt.Errorf("scenariogen: unknown crypto backend %q (have %v)", sp.Crypto, sig.BackendNames())
	}
	if sp.Family == FamTraffic {
		ts := sp.Traffic
		if ts == nil {
			return fmt.Errorf("scenariogen: traffic family needs a traffic block")
		}
		if ts.Rate <= 0 {
			return fmt.Errorf("scenariogen: non-positive traffic arrival rate %v", ts.Rate)
		}
		if err := ts.plan().Validate(core.NewTopology(sp.N)); err != nil {
			return fmt.Errorf("scenariogen: %w", err)
		}
	} else if sp.Traffic != nil {
		return fmt.Errorf("scenariogen: family %s does not take a traffic block", sp.Family)
	}
	return nil
}

// isDeal reports whether the spec runs a deal protocol.
func (sp Spec) isDeal() bool {
	return sp.Family == FamDealTimelock || sp.Family == FamDealCertified
}

// isTimelockFamily reports whether the spec runs a variant of the Figure-2
// timeout protocol (including the differential pair).
func (sp Spec) isTimelockFamily() bool {
	switch sp.Family {
	case FamTimelock, FamANTA, FamNaive, FamDifferential:
		return true
	}
	return false
}

// isWeaklive reports whether the spec runs the Theorem-3 protocol.
func (sp Spec) isWeaklive() bool {
	return sp.Family == FamWeaklive || sp.Family == FamCommittee
}

// committeeSize resolves the committee size (0 defaults like weaklive does).
func (sp Spec) committeeSize() int {
	if sp.CommitteeSize <= 0 {
		return 4
	}
	return sp.CommitteeSize
}

// SufficientPatience returns a patience that provably outlasts the
// weak-liveness protocol's decision under a conforming synchronous schedule:
// prepare and decision rounds are a constant number of hops, so a generous
// multiple of the message-delay bound per participant leaves no schedule in
// which an honest patient customer aborts before the commit.
func (sp Spec) SufficientPatience() sim.Time {
	extra := 0
	if sp.Family == FamCommittee {
		extra = sp.committeeSize()
	}
	return sim.Time(40*(sp.N+extra+5)) * sp.Timing.Delta
}

// sufficientDealPatience is the certified-deal analogue.
func (sp Spec) sufficientDealPatience() sim.Time {
	return sim.Time(100*(sp.N+5)) * sp.Timing.Delta
}

// campaignKeySeed is the key seed every materialised scenario and deal
// configuration runs under. Authentication is a primitive the model assumes:
// no control flow reads a key's bytes, so which seed they derive from is, like
// the backend, invisible to every verdict (TestBackendDifferential120Scenarios
// holds outcomes equal across whole backends). One seed for all specs means a
// standing world's keyring keeps its keys and bound signers from scenario to
// scenario, and the process-wide key cache holds one entry per participant
// name instead of one per participant per seed. The constant is part of the
// Spec -> Scenario mapping, so Run stays a pure function of the spec.
const campaignKeySeed = "scenariogen"

// materialiser turns specs into what runs them — a core.Scenario and its
// protocols, or a deals.Config — in storage it keeps from spec to spec: the
// per-hop amounts, the fault maps, the delay model (handed out by pointer),
// one engine of each kind, the timeout windows and the ring deal are written
// over in place. What it returns is therefore valid until it next
// materialises the same thing, which suits a fuzz worker: it judges a spec
// before it draws the next. The Spec methods below are the same code on a
// materialiser of their own, so what they return is their caller's.
type materialiser struct {
	amounts []int64
	faults  map[string]core.FaultSpec

	synchronous netsim.Synchronous
	partial     netsim.PartialSynchrony
	attack      explore.Schedule

	// The engines, rewritten bare by engines before protocols attaches a
	// spec's windows to the timelock ones; protos is the slice both return.
	process, anta timelock.Protocol
	htlc          htlc.Protocol
	weaklive      weaklive.Protocol
	protos        [2]core.Protocol
	params        timelock.Params

	// rings[n] is the ring deal among n parties, at the amounts of the last
	// spec that asked for it; assets[i] is "asset<i>".
	rings        map[int]*deals.Deal
	assets       []string
	nonCompliant map[string]bool
}

// network materialises the delay model.
func (m *materialiser) network(sp Spec) netsim.DelayModel {
	switch sp.Net.Kind {
	case NetPartial:
		m.partial = netsim.PartialSynchrony{GST: sp.Net.GST, Delta: sp.Timing.Delta, MaxPreGST: sp.Net.MaxPreGST}
		return &m.partial
	case NetAttack:
		a, _ := explore.AttackByName(sp.Net.Attack, sp.Net.Holdback)
		m.attack = explore.Schedule{Attack: a, Fast: sp.Net.Fast}
		if m.attack.Fast <= 0 {
			m.attack.Fast = sp.Timing.Delta
		}
		return &m.attack
	default:
		m.synchronous = netsim.Synchronous{Min: max(sp.Net.Min, 1), Max: sp.Timing.Delta}
		return &m.synchronous
	}
}

// Scenario materialises the core scenario for a payment-family spec.
func (sp Spec) Scenario() (core.Scenario, error) { return new(materialiser).scenario(sp) }

func (m *materialiser) scenario(sp Spec) (core.Scenario, error) {
	if err := sp.Validate(); err != nil {
		return core.Scenario{}, err
	}
	if sp.isDeal() {
		return core.Scenario{}, fmt.Errorf("scenariogen: %s is a deal family, use DealConfig", sp.Family)
	}
	// What core.NewScenario(sp.N, sp.Seed) with the spec's payment, timing,
	// backend and network is, built in place.
	topo := core.NewTopology(sp.N)
	m.amounts = core.AppendAmounts(m.amounts[:0], topo, sp.Base, sp.Commission)
	s := core.Scenario{
		Topology: topo,
		Spec:     core.PaymentSpec{PaymentID: core.PaymentID(sp.N, sp.Seed), Amounts: m.amounts},
		Timing:   sp.Timing.Timing(),
		Network:  m.network(sp),
		Seed:     sp.Seed,
		Crypto:   sp.Crypto,
		KeySeed:  campaignKeySeed,
	}
	s.InitialBalance = s.Spec.AlicePays() * 2
	if len(sp.Faults) > 0 {
		if m.faults == nil {
			m.faults = make(map[string]core.FaultSpec, len(sp.Faults))
		}
		clear(m.faults)
		for id, name := range sp.Faults {
			b, _ := adversary.ParseBehaviour(name)
			m.faults[id] = adversary.Spec(b, s.Timing)
		}
		s.Faults = m.faults
	}
	if len(sp.Patience) > 0 {
		s.Patience = sp.Patience // read, never written: SetPatience copies
	}
	return s, nil
}

// engines returns the protocol engines the spec runs, before any timeout
// windows are attached: one for every payment family except differential,
// which gets the process/ANTA pair; nil for the others.
func (m *materialiser) engines(sp Spec) []core.Protocol {
	switch sp.Family {
	case FamTimelock:
		m.process = *timelock.New()
		return append(m.protos[:0], &m.process)
	case FamANTA:
		m.anta = *timelock.NewANTA()
		return append(m.protos[:0], &m.anta)
	case FamNaive:
		m.process = *timelock.NewNaive()
		return append(m.protos[:0], &m.process)
	case FamDifferential:
		m.process, m.anta = *timelock.New(), *timelock.NewANTA()
		return append(m.protos[:0], &m.process, &m.anta)
	case FamHTLC:
		m.htlc = *htlc.New()
		return append(m.protos[:0], &m.htlc)
	case FamWeaklive:
		m.weaklive = *weaklive.New()
		return append(m.protos[:0], &m.weaklive)
	case FamCommittee:
		m.weaklive = *weaklive.NewCommittee(sp.committeeSize())
		return append(m.protos[:0], &m.weaklive)
	}
	return nil
}

// Protocols materialises the protocol engines the spec runs. A
// timeout-family protocol carries the windows it will run — derived, scaled
// or inflated — so the run and the oracle's a-priori bound read one
// derivation, which a differential pair shares.
func (sp Spec) Protocols() ([]core.Protocol, error) { return new(materialiser).protocols(sp) }

func (m *materialiser) protocols(sp Spec) ([]core.Protocol, error) {
	protos := m.engines(sp)
	if protos == nil {
		return nil, fmt.Errorf("scenariogen: family %s has no core.Protocol", sp.Family)
	}
	derived := false
	for _, p := range protos {
		tl, ok := p.(*timelock.Protocol)
		if !ok {
			continue
		}
		if !derived { // a family's engines agree on DriftAware
			m.params.Derive(core.NewTopology(sp.N), sp.Timing.Timing(), tl.DriftAware)
			switch {
			case sp.TimeoutScale < 0:
				m.params.Inflate()
			case sp.TimeoutScale != 0 && sp.TimeoutScale != 1:
				m.params.Scale(sp.TimeoutScale)
			}
			derived = true
		}
		tl.Params = &m.params
	}
	return protos, nil
}

// dealPartyID returns the canonical ID of deal party i.
func dealPartyID(i int) string { return fmt.Sprintf("p%d", i) }

// Deal materialises the ring deal of a deal-family spec: N parties p0..p_{N-1},
// arc i transferring Base + i*Commission of asset_i from p_i to p_{(i+1)%N}.
// A ring is strongly connected, hence well-formed in the sense of Herlihy et
// al., so their protocols' guarantees are owed on it.
func (sp Spec) Deal() *deals.Deal { return new(materialiser).ring(sp) }

func (m *materialiser) ring(sp Spec) *deals.Deal {
	d := m.rings[sp.N]
	if d == nil {
		parties := make([]string, sp.N)
		for i := range parties {
			parties[i] = dealPartyID(i)
		}
		for i := len(m.assets); i < sp.N; i++ {
			m.assets = append(m.assets, fmt.Sprintf("asset%d", i))
		}
		if m.rings == nil {
			m.rings = map[int]*deals.Deal{}
		}
		d = deals.NewDeal(parties...)
		m.rings[sp.N] = d
	}
	// The ring among N has the same parties, arcs and asset types whatever
	// the spec: only the amounts are written.
	for i, p := range d.Parties {
		d.Transfer(p, d.Parties[(i+1)%sp.N], deals.Asset{Type: m.assets[i], Amount: sp.Base + int64(i)*sp.Commission})
	}
	return d
}

// DealConfig materialises the deal-protocol configuration of a deal spec.
func (sp Spec) DealConfig() (deals.Config, error) { return new(materialiser).dealConfig(sp) }

func (m *materialiser) dealConfig(sp Spec) (deals.Config, error) {
	if err := sp.Validate(); err != nil {
		return deals.Config{}, err
	}
	if !sp.isDeal() {
		return deals.Config{}, fmt.Errorf("scenariogen: %s is not a deal family", sp.Family)
	}
	cfg := deals.Config{
		Deal:    m.ring(sp),
		Timing:  sp.Timing.Timing(),
		Network: m.network(sp),
		Seed:    sp.Seed,
		Crypto:  sp.Crypto,
		KeySeed: campaignKeySeed,
	}
	if len(sp.Faults) > 0 {
		if m.nonCompliant == nil {
			m.nonCompliant = make(map[string]bool, len(sp.Faults))
		}
		clear(m.nonCompliant)
		for id := range sp.Faults {
			m.nonCompliant[id] = true
		}
		cfg.NonCompliant = m.nonCompliant
	}
	if sp.Family == FamDealCertified {
		cfg.PartyPatience = sp.PatienceFloor
		if cfg.PartyPatience <= 0 {
			cfg.PartyPatience = sp.sufficientDealPatience()
		}
	}
	return cfg, nil
}

// TrafficWorkload materialises the traffic workload of a FamTraffic spec:
// Poisson arrivals at Traffic.Rate, fixed amounts of Base with the spec's
// Commission, a mixed protocol population (timeout-protocol, weak-liveness
// and the HTLC baseline), and the spec's fault plan.
func (sp Spec) TrafficWorkload() (traffic.Workload, error) {
	if err := sp.Validate(); err != nil {
		return traffic.Workload{}, err
	}
	if sp.Family != FamTraffic {
		return traffic.Workload{}, fmt.Errorf("scenariogen: %s is not the traffic family", sp.Family)
	}
	ts := sp.Traffic
	w := traffic.NewWorkload(ts.Payments)
	w.Arrival = traffic.Arrival{Kind: traffic.ArrivalPoisson, Rate: ts.Rate}
	w.Amounts = traffic.AmountDist{Kind: traffic.AmountFixed, Base: sp.Base}
	w.Commission = sp.Commission
	w = w.WithMix(
		traffic.ProtocolShare{Name: "timelock", Weight: 0.4},
		traffic.ProtocolShare{Name: "weaklive", Weight: 0.3},
		traffic.ProtocolShare{Name: "htlc", Weight: 0.3},
	)
	w.RandomSubPaths = ts.SubPaths
	w.Liquidity = ts.Liquidity
	w.QueuePatience = ts.QueuePatience
	w.Faults = ts.plan()
	return w, nil
}

// Class partitions scenarios by whether they satisfy the preconditions of
// the theorem covering their protocol.
type Class string

// Classes. Conforming scenarios satisfy the relevant theorem's
// preconditions, so every owed property verdict must hold — any failure is a
// bug. Violating scenarios break the synchrony envelope (or the trust
// assumptions); there the safety oracle still applies but
// liveness/termination failures are the expected, theorem-shaped outcome.
const (
	ClassConforming Class = "conforming"
	ClassViolating  Class = "violating"
)

// Class derives the spec's class from its content (never stored, so shrinker
// mutations and hand-edited replays classify consistently).
func (sp Spec) Class() Class {
	if sp.Family == FamTraffic && sp.Traffic != nil && sp.Traffic.plan().Enabled() {
		// A live fault plan breaks the connectors' (or the manager's) trust
		// assumptions: liveness damage is the expected outcome, and only the
		// aggregate safety oracle stays owed.
		return ClassViolating
	}
	if sp.Net.Kind != NetSynchronous {
		return ClassViolating
	}
	if sp.Net.Min > sp.Timing.Delta {
		return ClassViolating
	}
	if sp.TimeoutScale != 0 && sp.TimeoutScale != 1 {
		return ClassViolating
	}
	if sp.Family == FamNaive && sp.Timing.Rho != 0 {
		// The drift-unaware ablation is only sound on drift-free clocks.
		return ClassViolating
	}
	if !sp.faultsConforming() {
		return ClassViolating
	}
	if sp.isWeaklive() {
		// Theorem 3's liveness is conditional on patience: a customer with
		// finite but insufficient patience may abort a conforming schedule,
		// and one with infinite patience never terminates a stuck one.
		suff := sp.SufficientPatience()
		for i := 0; i <= sp.N; i++ {
			p, ok := sp.Patience[core.CustomerID(i)]
			if !ok || p == 0 || p < suff {
				return ClassViolating
			}
		}
	}
	return ClassConforming
}

// differentialCustomer and differentialEscrow are the fault behaviours on
// which the process and ANTA engines are specified to agree. The engines
// model mid-run crashes, action delays and forgery detection differently (by
// design: the process engine implements the full behaviour library, the
// automata stay faithful to Figure 2), so the differential oracle only
// quantifies over this common core.
var differentialCustomer = []adversary.Behaviour{
	adversary.CrashAtStart, adversary.Silent, adversary.Withhold, adversary.RefusePayment,
}

var differentialEscrow = []adversary.Behaviour{
	adversary.CrashAtStart, adversary.Silent, adversary.Withhold, adversary.Theft, adversary.Equivocation,
}

func behaviourIn(b adversary.Behaviour, set []adversary.Behaviour) bool {
	for _, x := range set {
		if x == b {
			return true
		}
	}
	return false
}

// faultsConforming checks the fault assignment against the family's trust
// assumptions: at most two faulty chain participants drawn from the
// behaviours meaningful for their role, and a transaction manager whose
// trust assumption stands with any faulty notaries merely unresponsive.
func (sp Spec) faultsConforming() bool {
	if sp.isDeal() {
		return true // any non-compliant subset is within Herlihy et al.'s model
	}
	chainFaults := 0
	topo := core.NewTopology(sp.N)
	for id, name := range sp.Faults {
		b, ok := adversary.ParseBehaviour(name)
		if !ok || b == adversary.Honest {
			return false
		}
		switch topo.RoleOf(id) {
		case core.RoleAlice, core.RoleConnector, core.RoleBob:
			set := adversary.CustomerBehaviours()
			if sp.Family == FamDifferential {
				set = differentialCustomer
			}
			if !behaviourIn(b, set) {
				return false
			}
			chainFaults++
		case core.RoleEscrow:
			set := adversary.EscrowBehaviours()
			if sp.Family == FamDifferential {
				set = differentialEscrow
			}
			if !behaviourIn(b, set) {
				return false
			}
			chainFaults++
		case core.RoleNotary:
			if sp.Family != FamCommittee {
				return false
			}
			if b != adversary.Silent && b != adversary.CrashAtStart {
				return false
			}
		default:
			return false // manager faults (or unknown IDs) void the trust model
		}
	}
	if chainFaults > 2 {
		return false
	}
	return !sp.isWeaklive() || sp.managerTrusted(sp.guarantee())
}

// Describe renders the spec on one line.
func (sp Spec) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d seed=%d base=%d comm=%d net=%s", sp.Family, sp.N, sp.Seed, sp.Base, sp.Commission, sp.Net.Kind)
	if sp.Net.Kind == NetAttack {
		fmt.Fprintf(&b, "(%s holdback=%v)", sp.Net.Attack, sp.Net.Holdback)
	}
	if sp.Net.Kind == NetPartial {
		fmt.Fprintf(&b, "(gst=%v pre=%v)", sp.Net.GST, sp.Net.MaxPreGST)
	}
	if sp.TimeoutScale != 0 && sp.TimeoutScale != 1 {
		fmt.Fprintf(&b, " scale=%g", sp.TimeoutScale)
	}
	if len(sp.Faults) > 0 {
		keys := sortedKeys(sp.Faults)
		parts := make([]string, 0, len(keys))
		for _, id := range keys {
			parts = append(parts, id+"="+sp.Faults[id])
		}
		fmt.Fprintf(&b, " faults=%s", strings.Join(parts, ","))
	}
	if ts := sp.Traffic; ts != nil {
		fmt.Fprintf(&b, " traffic=%d@%g/s", ts.Payments, ts.Rate)
		if ts.FaultFraction > 0 {
			fmt.Fprintf(&b, " byz=%.0f%%", ts.FaultFraction*100)
		}
		if ts.ManagerOutage > 0 {
			fmt.Fprintf(&b, " mgr-outage=%v", ts.ManagerOutage)
		}
		if ts.CheckpointAt > 0 {
			fmt.Fprintf(&b, " ckpt@%d", ts.CheckpointAt)
		}
	}
	return b.String()
}

// MarshalIndent renders the spec as pretty JSON.
func (sp Spec) MarshalIndent() []byte {
	out, _ := json.MarshalIndent(sp, "", "  ")
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedTimeKeys(m map[string]sim.Time) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
