// Package traffic generates and executes many concurrent cross-chain
// payments sharing one Fig. 1 escrow chain.
//
// The single-run packages (internal/timelock, internal/weaklive,
// internal/htlc) answer "what happens to ONE payment"; this package answers
// "what happens to a NETWORK carrying thousands". A Workload describes an
// arrival process, a payment-size distribution, sender hotspots and a mix of
// protocols; the executor in engine.go admits each payment against shared
// escrow liquidity (escrow locks reserving balance on a traffic-level
// ledger.Book), runs the payment itself on the deterministic sim engine, and
// aggregates the per-payment results into a Result with success rate,
// throughput and latency percentiles.
//
// Everything is deterministic in (Scenario.Seed, Workload): payment arrival
// times, sizes, routes and per-payment protocol seeds are all derived from
// the scenario seed with a splitmix64 stream, and the admission timeline is
// an ordinary discrete-event simulation, so two runs of the same workload
// produce byte-identical Results regardless of the worker count.
package traffic

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// ArrivalKind selects the arrival process of a workload.
type ArrivalKind string

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps (rate = Rate
	// payments per simulated second) — the classic open-workload model.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalUniform draws gaps uniformly in [0, 2/Rate]: same mean load as
	// Poisson but with bounded burstiness.
	ArrivalUniform ArrivalKind = "uniform"
	// ArrivalBurst releases payments in back-to-back bursts of BurstSize
	// arriving at the same instant, bursts separated by BurstGap.
	ArrivalBurst ArrivalKind = "burst"
)

// Arrival describes when payments enter the system.
type Arrival struct {
	Kind ArrivalKind
	// Rate is the mean arrival rate in payments per simulated second
	// (Poisson and Uniform). Zero defaults to 100/s.
	Rate float64
	// BurstSize and BurstGap shape ArrivalBurst; zero values default to 10
	// payments every 100ms.
	BurstSize int
	BurstGap  sim.Time
}

// AmountKind selects the payment-size distribution.
type AmountKind string

// Amount distributions.
const (
	// AmountFixed pays exactly Base via the last escrow of the route.
	AmountFixed AmountKind = "fixed"
	// AmountUniform draws uniformly in [Base-Spread, Base+Spread].
	AmountUniform AmountKind = "uniform"
	// AmountExponential draws an exponential with mean Base (heavy-ish tail,
	// clamped to at least 1), the usual stand-in for value distributions.
	AmountExponential AmountKind = "exponential"
)

// AmountDist describes how large payments are.
type AmountDist struct {
	Kind AmountKind
	// Base is the central payment size (amount Bob receives). Zero defaults
	// to 100.
	Base int64
	// Spread widens AmountUniform; ignored otherwise.
	Spread int64
}

// ProtocolShare weights one protocol within a mixed workload. Name must be
// one of the built-in registry's (see DefaultProtocols): "timelock",
// "timelock-naive", "weaklive", "weaklive-committee" or "htlc".
type ProtocolShare struct {
	Name   string
	Weight float64
}

// Workload describes a population of payments offered to one escrow chain.
// The zero value is not useful; start from NewWorkload and adjust fields.
type Workload struct {
	// Payments is the number of payments generated.
	Payments int
	// Arrival is the arrival process.
	Arrival Arrival
	// Amounts is the payment-size distribution.
	Amounts AmountDist
	// Commission is the per-hop connector commission added upstream, exactly
	// as in core.NewPaymentSpec.
	Commission int64
	// Mix selects the protocol per payment by weight. Empty means 100%
	// "timelock".
	Mix []ProtocolShare
	// RandomSubPaths, when set, routes each payment between a random pair of
	// customers c_i -> c_j (i < j) instead of always Alice -> Bob, so hops
	// see different loads.
	RandomSubPaths bool
	// HotspotFraction is the fraction of payments forced to originate at
	// HotspotSender (only meaningful with RandomSubPaths); the remainder
	// pick senders uniformly.
	HotspotFraction float64
	// HotspotSender is the customer index of the hot sender.
	HotspotSender int
	// Liquidity is the endowment minted for each customer account on each
	// traffic ledger. Zero auto-sizes to the worst-case demand so that no
	// payment is ever rejected for lack of liquidity; set it low to study
	// contention.
	Liquidity int64
	// QueuePatience is how long a payment blocked on exhausted liquidity
	// waits in the admission queue before being dropped. Zero disables
	// queuing: blocked payments are rejected immediately.
	QueuePatience sim.Time
	// MaxQueue caps the number of simultaneously queued payments (0 = no
	// cap). Arrivals beyond the cap are rejected.
	MaxQueue int
	// Faults is the Byzantine fault plan: a deterministic, seed-derived
	// schedule corrupting a fraction of the chain's connectors mid-run (see
	// FaultPlan). The zero value keeps every connector honest.
	Faults FaultPlan
}

// NewWorkload returns a sane default workload: n payments, Poisson arrivals
// at 100/s, fixed size 100 with commission 1, all time-bounded protocol,
// full-path routes, auto-sized liquidity, no queuing.
func NewWorkload(n int) Workload {
	return Workload{
		Payments:   n,
		Arrival:    Arrival{Kind: ArrivalPoisson, Rate: 100},
		Amounts:    AmountDist{Kind: AmountFixed, Base: 100},
		Commission: 1,
	}
}

// WithMix returns a copy of the workload using the given protocol mix.
func (w Workload) WithMix(mix ...ProtocolShare) Workload {
	w.Mix = mix
	return w
}

// ParseMix parses a comma-separated "protocol=weight" list (a bare name
// weighs 1), the -mix flag and "mix" request field of the commands, checking
// every name against the built-in registry.
func ParseMix(spec string) ([]ProtocolShare, error) {
	registry := DefaultProtocols()
	var mix []ProtocolShare
	for _, pair := range strings.Split(spec, ",") {
		name, weightText, weighted := strings.Cut(pair, "=")
		share := ProtocolShare{Name: name, Weight: 1}
		if weighted {
			var err error
			if share.Weight, err = strconv.ParseFloat(weightText, 64); err != nil {
				return nil, fmt.Errorf("malformed mix entry %q: %v", pair, err)
			}
		}
		if _, ok := registry[name]; !ok {
			return nil, fmt.Errorf("unknown protocol %q in mix (have %v)", name, slices.Sorted(maps.Keys(registry)))
		}
		mix = append(mix, share)
	}
	return mix, nil
}

// WithLiquidity returns a copy of the workload with bounded escrow
// liquidity.
func (w Workload) WithLiquidity(liq int64) Workload {
	w.Liquidity = liq
	return w
}

// WithQueue returns a copy of the workload in which blocked payments queue
// for up to patience (bounded by maxLen if non-zero) instead of failing
// immediately.
func (w Workload) WithQueue(patience sim.Time, maxLen int) Workload {
	w.QueuePatience = patience
	w.MaxQueue = maxLen
	return w
}

// Magnitude bounds of a workload and its fault plan, far beyond any
// meaningful experiment.
const (
	maxAmount    = 1_000_000_000     // base, spread, commission
	maxLiquidity = 1_000_000_000_000 // per-account endowment
	maxWindow    = 1000 * sim.Hour   // burst gap, queue patience, fault windows
	minRate      = 1e-3              // arrivals per simulated second
	maxRate      = 1e9
)

// Validate checks the workload against a topology.
func (w Workload) Validate(t core.Topology) error {
	if w.Payments <= 0 {
		return fmt.Errorf("traffic: workload has no payments")
	}
	switch w.Arrival.Kind {
	case ArrivalPoisson, ArrivalUniform, ArrivalBurst, "":
	default:
		return fmt.Errorf("traffic: unknown arrival kind %q", w.Arrival.Kind)
	}
	switch w.Amounts.Kind {
	case AmountFixed, AmountUniform, AmountExponential, "":
	default:
		return fmt.Errorf("traffic: unknown amount kind %q", w.Amounts.Kind)
	}
	if w.Commission < 0 {
		// Hop k of an h-hop route carries base + (h-1-k)·Commission; only a
		// non-negative commission keeps every hop amount >= 1, which the
		// ledgers require and admission's balance probe relies on.
		return fmt.Errorf("traffic: negative commission %d", w.Commission)
	}
	// Magnitudes a caller must not choose freely: beyond these the int64
	// sums of the generator, the demand pre-pass and the ledgers overflow.
	for _, b := range []struct {
		name  string
		v, hi int64
	}{
		{"amount base", w.Amounts.Base, maxAmount},
		{"amount spread", w.Amounts.Spread, maxAmount},
		{"commission", w.Commission, maxAmount},
		{"liquidity", w.Liquidity, maxLiquidity},
		{"burst gap", int64(w.Arrival.BurstGap), int64(maxWindow)},
		{"queue patience", int64(w.QueuePatience), int64(maxWindow)},
	} {
		if b.v > b.hi {
			return fmt.Errorf("traffic: %s %d above %d", b.name, b.v, b.hi)
		}
	}
	if r := w.Arrival.Rate; r > 0 && (r < minRate || r > maxRate) {
		return fmt.Errorf("traffic: arrival rate %v outside [%v, %v]", r, minRate, maxRate)
	}
	var totalWeight float64
	for _, m := range w.Mix {
		if m.Weight < 0 {
			return fmt.Errorf("traffic: protocol %q has negative weight", m.Name)
		}
		totalWeight += m.Weight
	}
	if len(w.Mix) > 0 && totalWeight == 0 {
		return fmt.Errorf("traffic: protocol mix has zero total weight")
	}
	if w.HotspotFraction < 0 || w.HotspotFraction > 1 {
		return fmt.Errorf("traffic: hotspot fraction %v outside [0,1]", w.HotspotFraction)
	}
	if !w.RandomSubPaths && (w.HotspotFraction != 0 || w.HotspotSender != 0) {
		return fmt.Errorf("traffic: hotspot fields set without RandomSubPaths (they would be ignored)")
	}
	if w.RandomSubPaths && w.HotspotFraction > 0 && (w.HotspotSender < 0 || w.HotspotSender >= t.N) {
		return fmt.Errorf("traffic: hotspot sender c%d outside chain 0..%d", w.HotspotSender, t.N-1)
	}
	return w.Faults.Validate(t)
}

// payment is one generated payment: its route on the shared chain, the
// amount its receiver collects (each hop's is derived from it: amountVia),
// its arrival time, the protocol it uses, and a private seed for its own
// simulation.
type payment struct {
	Index    int
	ID       string
	Sender   int   // customer index c_Sender
	Receiver int   // customer index c_Receiver, Sender < Receiver
	Base     int64 // what c_Receiver collects: the last hop's amount
	Arrival  sim.Time
	Seed     int64
	// proto indexes the run's protocol mix (Workload.mix, protocols).
	proto int
}

// hops returns the number of escrows the payment crosses.
func (p *payment) hops() int { return p.Receiver - p.Sender }

// amountVia returns the amount locked on escrow e_{Sender+k}: the base plus
// the commission of every connector downstream of that hop, exactly as in
// core.NewPaymentSpec.
//
//xchain:hotpath
func (p *payment) amountVia(k int, commission int64) int64 {
	return hopAmount(p.Base, p.hops(), k, commission)
}

// hopAmount is the amount locked on hop k of a route of hops hops whose
// receiver collects base.
//
//xchain:hotpath
func hopAmount(base int64, hops, k int, commission int64) int64 {
	return base + int64(hops-1-k)*commission
}

// mix returns the workload's protocol mix, the default 100% "timelock" when
// it names none.
func (w Workload) mix() []ProtocolShare {
	if len(w.Mix) == 0 {
		return []ProtocolShare{{Name: "timelock", Weight: 1}}
	}
	return w.Mix
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// per-payment seeds from (Scenario.Seed, payment index) without any shared
// RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// paymentSeed derives the private RNG seed of payment idx.
func paymentSeed(scenarioSeed int64, idx int) int64 {
	s := splitmix64(splitmix64(uint64(scenarioSeed)) ^ uint64(idx+1))
	// Keep it positive: some downstream code prints seeds and negative
	// values read poorly in tables.
	return int64(s >> 1)
}

// generator draws the workload's payment population one payment at a time.
// All draws come from one rand.Rand seeded from Scenario.Seed and consumed in
// a fixed order per payment, so the population is the same however it is
// traversed: chunk by chunk (the pipeline), skipping a prefix (resume), or
// routes and amounts only (the demand pre-pass).
type generator struct {
	w           Workload // defaults resolved
	mix         []ProtocolShare
	totalWeight float64
	rng         *rand.Rand
	n           int   // topology size
	seed        int64 // scenario seed
	now         sim.Time
	idx         int
}

// newGenerator resolves workload defaults against the scenario and positions
// the generator at payment 0.
func (w Workload) newGenerator(s core.Scenario) *generator {
	if w.Arrival.Rate <= 0 {
		w.Arrival.Rate = 100
	}
	if w.Arrival.BurstSize <= 0 {
		w.Arrival.BurstSize = 10
	}
	if w.Arrival.BurstGap <= 0 {
		w.Arrival.BurstGap = 100 * sim.Millisecond
	}
	if w.Amounts.Base <= 0 {
		w.Amounts.Base = 100
	}
	mix := w.mix()
	var totalWeight float64
	for _, m := range mix {
		totalWeight += m.Weight
	}
	return &generator{
		w:           w,
		mix:         mix,
		totalWeight: totalWeight,
		rng:         rand.New(rand.NewSource(int64(splitmix64(uint64(s.Seed)) >> 1))),
		n:           s.Topology.N,
		seed:        s.Seed,
	}
}

// skip advances the generator past the first n payments without retaining
// them. RNG consumption is identical to generating them, so the generator
// lands exactly where an uninterrupted run would be: checkpoint resume
// re-derives the generator's position instead of serialising RNG internals.
func (g *generator) skip(n int) {
	if n <= 0 {
		return
	}
	var p payment
	for i := 0; i < n && g.next(&p); i++ {
	}
}

// left returns how many payments next has still to generate.
func (g *generator) left() int { return g.w.Payments - g.idx }

// next fills p with the next payment of the population and reports whether
// one was produced. It leaves p's ID empty: the pipeline's producer names a
// whole chunk at once (cutIDs).
func (g *generator) next(p *payment) bool {
	if g.idx >= g.w.Payments {
		return false
	}
	i := g.idx
	g.idx++
	rng, w := g.rng, g.w

	// 1) Arrival instant.
	switch w.Arrival.Kind {
	case ArrivalUniform:
		gap := rng.Float64() * 2 / w.Arrival.Rate
		g.now += sim.Time(math.Round(gap * float64(sim.Second)))
	case ArrivalBurst:
		if i > 0 && i%w.Arrival.BurstSize == 0 {
			g.now += w.Arrival.BurstGap
		}
	default: // Poisson
		gap := rng.ExpFloat64() / w.Arrival.Rate
		g.now += sim.Time(math.Round(gap * float64(sim.Second)))
	}

	// 2) Route.
	sender, receiver := 0, g.n
	if w.RandomSubPaths {
		if w.HotspotFraction > 0 && rng.Float64() < w.HotspotFraction {
			sender = w.HotspotSender
		} else {
			sender = rng.Intn(g.n)
		}
		receiver = sender + 1 + rng.Intn(g.n-sender)
	}

	// 3) Size.
	base := w.Amounts.Base
	switch w.Amounts.Kind {
	case AmountUniform:
		if w.Amounts.Spread > 0 {
			base += rng.Int63n(2*w.Amounts.Spread+1) - w.Amounts.Spread
		}
	case AmountExponential:
		base = int64(math.Round(rng.ExpFloat64() * float64(w.Amounts.Base)))
	}
	if base < 1 {
		base = 1
	}

	// 4) Protocol.
	proto := 0
	if len(g.mix) > 1 && g.totalWeight > 0 {
		pick := rng.Float64() * g.totalWeight
		for j, m := range g.mix {
			if pick < m.Weight {
				proto = j
				break
			}
			pick -= m.Weight
		}
	}

	p.Index = i
	p.Sender = sender
	p.Receiver = receiver
	p.Base = base
	p.Arrival = g.now
	p.proto = proto
	p.Seed = paymentSeed(g.seed, i)
	p.ID = ""
	return true
}

// appendID appends p's ID, "p%05d-c%d-c%d" of its index, sender and
// receiver, to b: the sub-run's artefacts name it, and the payment's locks
// are keyed by it.
func (p *payment) appendID(b []byte) []byte {
	b = append(b, 'p')
	for pad := 10000; pad > 1 && p.Index < pad; pad /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(p.Index), 10)
	b = strconv.AppendInt(append(b, "-c"...), int64(p.Sender), 10)
	return strconv.AppendInt(append(b, "-c"...), int64(p.Receiver), 10)
}

// idLen is the length of p's ID: 5 fixed bytes ("p", "-c", "-c"), the
// index's digits (at least 5 after padding) and the two customer numbers'.
func (p *payment) idLen() int {
	return 5 + max(5, digits(p.Index)) + digits(p.Sender) + digits(p.Receiver)
}

// digits is the number of decimal digits of v >= 0.
func digits(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// cutIDs gives every payment of pays its ID (appendID), cut from one
// string that holds them back to back, sized exactly: one allocation for a
// pipeline chunk's IDs rather than one per payment.
func cutIDs(pays []payment) {
	size := 0
	for i := range pays {
		size += pays[i].idLen()
	}
	var b strings.Builder
	b.Grow(size)
	var id [32]byte
	for i := range pays {
		b.Write(pays[i].appendID(id[:0]))
	}
	ids := b.String()
	for i := range pays {
		n := pays[i].idLen()
		pays[i].ID, ids = ids[:n], ids[n:]
	}
}

// demand computes each escrow's worst-case liquidity demand across the
// whole population by replaying the generator without retaining payments:
// O(topology) memory regardless of the payment count. Hop k of a payment is
// always paid by customer c_{Sender+k} on escrow e_{Sender+k}, so one sum
// per escrow, demand[e], is what c_e must hold on e_e. Used to auto-size
// endowments when Workload.Liquidity is unset.
func (w Workload) demand(s core.Scenario) []int64 {
	g := w.newGenerator(s)
	out := make([]int64, s.Topology.N)
	var p payment
	for g.next(&p) {
		addDemand(out, &p, w.Commission)
	}
	return out
}

// addDemand accumulates one payment's per-hop reservations.
func addDemand(demand []int64, p *payment, commission int64) {
	for k := 0; k < p.hops(); k++ {
		demand[p.Sender+k] += p.amountVia(k, commission)
	}
}

// subScenario writes into sm.sub, and returns, the single-payment scenario
// that simulates payment p in isolation: the route becomes its own Fig. 1
// chain (sub-chain customer c_k is chain customer c_{Sender+k}), inheriting
// timing, network model, faults and patience from the base scenario, with
// the payment's private seed. With a compiled fault plan, connectors strictly
// inside the route whose fault window covers the payment's arrival get the
// planned behaviour too (an injected fault overrides a static one for the
// window's duration).
//
// The scenario is the worker's: every field is rewritten per payment, its
// Spec.Amounts are the worker's scratch, and its Faults and Patience are the
// worker's maps, emptied per payment and nil when the payment has none. It is
// valid until the next payment's.
func (sm *simulator) subScenario(base *core.Scenario, plan *compiledPlan, p *payment) *core.Scenario {
	h := p.hops()
	sub := &sm.sub
	sub.Topology = core.NewTopology(h)
	sm.amounts = slices.Grow(sm.amounts[:0], h)[:h]
	for k := range sm.amounts {
		sm.amounts[k] = p.amountVia(k, sm.commission)
	}
	sub.Spec = core.PaymentSpec{PaymentID: p.ID, Amounts: sm.amounts}
	sub.Timing, sub.Network = base.Timing, base.Network
	sub.InitialBalance = max(sub.Spec.AlicePays()*2, base.InitialBalance)
	sub.Seed, sub.Crypto = p.Seed, base.Crypto
	// Every payment shares the base scenario's key seed: keys are a pure
	// function of (backend, seed, id), so the process-wide key cache in
	// internal/sig serves the whole population after the first payment
	// instead of regenerating keys per participant per payment.
	sub.KeySeed = base.DerivedKeySeed()
	sub.MuteTrace, sub.MaxEvents = true, base.MaxEvents
	// Instrumentation follows the base scenario into every sub-run: shared
	// atomic counters, no per-run registries (observation only, so sub-run
	// results stay pure functions of the inputs above).
	sub.Metrics = base.Metrics

	clear(sm.faults)
	clear(sm.patience)
	for k := 0; k <= h; k++ {
		id := core.CustomerID(p.Sender + k)
		if f := base.FaultOf(id); f.IsByzantine() {
			sm.setFault(core.CustomerID(k), f)
		}
		if pt := base.PatienceOf(id); pt != 0 {
			if sm.patience == nil {
				sm.patience = map[string]sim.Time{}
			}
			sm.patience[core.CustomerID(k)] = pt
		}
	}
	for k := 0; k < h; k++ {
		if f := base.FaultOf(core.EscrowID(p.Sender + k)); f.IsByzantine() {
			sm.setFault(core.EscrowID(k), f)
		}
	}
	// Manager and notary faults apply to every payment that uses them.
	for id, f := range base.Faults {
		switch base.Topology.RoleOf(id) {
		case core.RoleManager, core.RoleNotary:
			if f.IsByzantine() {
				sm.setFault(id, f)
			}
		}
	}
	if plan != nil {
		// Only interior customers of the route act as connectors for this
		// payment; its sender and receiver play Alice and Bob.
		for k := 1; k < h; k++ {
			if f, ok := plan.specAt(p.Sender+k, p.Arrival); ok {
				sm.setFault(core.CustomerID(k), f)
			}
		}
	}
	sub.Faults, sub.Patience = nil, nil
	if len(sm.faults) > 0 {
		sub.Faults = sm.faults
	}
	if len(sm.patience) > 0 {
		sub.Patience = sm.patience
	}
	return sub
}
