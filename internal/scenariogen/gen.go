package scenariogen

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Generate derives a scenario from a single seed. It is a pure function of
// the seed: the same seed always yields the same Spec, which is what makes
// every fuzzer finding reproducible from one printed number.
//
// Roughly 70% of seeds yield conforming scenarios (the theorem preconditions
// hold, so every owed property must pass) and 30% yield envelope-violating
// ones (adversarial holdback schedules against the timeout-protocol family,
// raw partial synchrony, impatient weak-liveness runs), where the safety
// oracle still applies but liveness and termination failures are the
// expected, Theorem-2-shaped outcome.
func Generate(seed int64) Spec {
	g := generator{rng: sim.NewRand(seed)}
	return g.spec(seed, g.shape(seed))
}

// generator is Generate drawing into storage its caller keeps: reseeding the
// lazily materialised register is O(1), building one is 5 KB, so a Fuzz
// worker reseeds one generator per seed instead of allocating one; and the
// fault and patience maps of the spec it drew last are emptied and refilled
// for the next. A spec it returns is therefore valid until its next shape
// call. A spec without faults (patience) keeps a nil map, so the spec
// depends on the seed alone, never on what the generator drew before
// (TestFuzzStandingWorldEquivalence).
type generator struct {
	rng      *sim.Rand
	faults   map[string]string
	patience map[string]sim.Time
}

// shape reseeds the generator and draws the seed's family and class: the
// first draw of Generate, which a campaign filtering families out stops
// after.
func (g *generator) shape(seed int64) shape {
	g.rng.Seed(seed)
	clear(g.faults)
	clear(g.patience)
	return pickShape(g.rng)
}

// spec draws the rest of the seed's spec, of the shape sh that shape drew.
func (g *generator) spec(seed int64, sh shape) Spec {
	rng := g.rng
	sp := Spec{
		Seed:       seed,
		Family:     sh.family,
		N:          1 + rng.Intn(5),
		Base:       1 + rng.Int63n(100_000),
		Commission: rng.Int63n(50),
		Timing: TimingSpec{
			Delta:      sim.Time(5+rng.Intn(200)) * sim.Millisecond,
			Processing: sim.Time(100+rng.Intn(2000)) * sim.Microsecond,
			Rho:        float64(rng.Intn(1001)) * 1e-6,
			Offset:     sim.Time(rng.Intn(20_000)),
		},
		Net: NetworkSpec{Kind: NetSynchronous},
	}
	if sp.Family == FamNaive {
		sp.Timing.Rho = 0 // the ablation is only owed correctness drift-free
	}
	if sp.isDeal() {
		sp.N = 2 + rng.Intn(3)
	}
	sp.Net.Min = 1 + sim.Time(rng.Int63n(int64(sp.Timing.Delta/2)))

	switch {
	case sp.Family == FamTraffic:
		genTraffic(rng, &sp, sh.violating)
		return sp
	case sp.isDeal():
		g.genDealFaults(&sp)
		if sp.Family == FamDealCertified {
			sp.PatienceFloor = sp.sufficientDealPatience() + sim.Time(rng.Int63n(int64(sim.Second)))
		}
	case sp.Family == FamDifferential:
		g.genFaults(&sp, differentialCustomer, differentialEscrow)
	default:
		g.genFaults(&sp, adversary.CustomerBehaviours(), adversary.EscrowBehaviours())
	}
	if sp.isWeaklive() {
		if sp.Family == FamCommittee {
			sp.CommitteeSize = []int{1, 4}[rng.Intn(2)]
			// A committee of four stays trusted with one silent notary; the
			// singleton tolerates none.
			if rng.Intn(3) == 0 && sp.CommitteeSize == 4 {
				g.setFault(&sp, core.NotaryID(0), adversary.Silent)
			}
		}
		g.genPatience(&sp, sh.violating)
	}
	if sh.violating {
		genViolation(rng, &sp)
	}
	return sp
}

// shape is one weighted generator outcome.
type shape struct {
	family    Family
	violating bool
}

// pickShape draws the scenario family and class. Weights lean toward the
// conforming Theorem-1/3 classes (whose oracle is strict) while keeping
// every family and the envelope-violating classes in steady rotation.
func pickShape(rng *sim.Rand) shape {
	type weighted struct {
		shape
		w int
	}
	table := []weighted{
		{shape{FamTimelock, false}, 16},
		{shape{FamANTA, false}, 8},
		{shape{FamNaive, false}, 4},
		{shape{FamHTLC, false}, 9},
		{shape{FamWeaklive, false}, 9},
		{shape{FamCommittee, false}, 5},
		{shape{FamDifferential, false}, 12},
		{shape{FamDealTimelock, false}, 5},
		{shape{FamDealCertified, false}, 4},
		{shape{FamTimelock, true}, 16},
		{shape{FamHTLC, true}, 4},
		{shape{FamWeaklive, true}, 5},
		{shape{FamCommittee, true}, 2},
		{shape{FamDealCertified, true}, 2},
		{shape{FamTraffic, false}, 4},
		{shape{FamTraffic, true}, 3},
	}
	total := 0
	for _, e := range table {
		total += e.w
	}
	pick := rng.Intn(total)
	for _, e := range table {
		if pick < e.w {
			return e.shape
		}
		pick -= e.w
	}
	return table[0].shape
}

// genTraffic rewrites the spec into a traffic-family scenario: a longer
// chain, modest amounts (liquidity endowments scale with Base), a Poisson
// population, and — for the violating class — a Byzantine fault plan rather
// than an envelope-violating schedule. Traffic specs always run the hmac
// backend: verdicts are backend-independent (the crypto-differential
// regressions pin that), and a whole population per seed makes the cheap
// backend the only sane campaign default.
func genTraffic(rng *sim.Rand, sp *Spec, violating bool) {
	sp.N = 3 + rng.Intn(6)
	sp.Base = 1 + rng.Int63n(500)
	sp.Crypto = "hmac"
	ts := &TrafficSpec{
		Payments: 24 + rng.Intn(96),
		Rate:     float64(200 + rng.Intn(600)),
		SubPaths: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		// Bounded liquidity with an admission queue: capacity-caused drops
		// are legitimate in both classes, only the safety oracle is strict.
		ts.Liquidity = (sp.Base + sp.Commission*int64(sp.N)) * int64(2+rng.Intn(6))
		ts.QueuePatience = sim.Time(200+rng.Intn(1800)) * sim.Millisecond
	}
	if rng.Intn(2) == 0 && ts.Payments > 1 {
		// Exercise the checkpoint arm of the determinism oracle: interrupt,
		// snapshot, resume, and demand a byte-identical Result.
		ts.CheckpointAt = 1 + rng.Intn(ts.Payments-1)
	}
	if violating {
		ts.FaultFraction = []float64{0.25, 0.34, 0.5}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			behavs := traffic.DefaultFaultBehaviours()
			ts.FaultBehaviours = []string{behavs[rng.Intn(len(behavs))]}
		}
		if rng.Intn(2) == 0 {
			ts.FaultFrom = sim.Time(rng.Intn(100)) * sim.Millisecond
			ts.FaultOutage = sim.Time(100+rng.Intn(400)) * sim.Millisecond
		}
		if rng.Intn(3) == 0 {
			ts.ManagerOutage = sim.Time(100+rng.Intn(300)) * sim.Millisecond
		}
	}
	sp.Traffic = ts
}

// genFaults places up to two faults on chain participants, drawn from the
// given per-role behaviour sets.
func (g *generator) genFaults(sp *Spec, cust, esc []adversary.Behaviour) {
	rng := g.rng
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 {
			id := core.CustomerID(rng.Intn(sp.N + 1))
			g.setFault(sp, id, cust[rng.Intn(len(cust))])
		} else {
			id := core.EscrowID(rng.Intn(sp.N))
			g.setFault(sp, id, esc[rng.Intn(len(esc))])
		}
	}
}

// genDealFaults marks a random subset of deal parties non-compliant.
func (g *generator) genDealFaults(sp *Spec) {
	for i := 0; i < sp.N; i++ {
		if g.rng.Intn(4) == 0 {
			g.setFault(sp, dealPartyID(i), adversary.Silent)
		}
	}
}

// genPatience assigns every customer a patience. Conforming weak-liveness
// runs get patience beyond SufficientPatience (so the commit always beats
// every abort); violating ones may get short patiences, which under slow
// schedules produce the aborts Definition 2 permits.
func (g *generator) genPatience(sp *Spec, violating bool) {
	suff := sp.SufficientPatience()
	sp.PatienceFloor = suff
	if g.patience == nil {
		g.patience = map[string]sim.Time{}
	}
	sp.Patience = g.patience
	for i := 0; i <= sp.N; i++ {
		p := suff + sim.Time(g.rng.Int63n(int64(sim.Second)))
		if violating {
			p = sim.Time(50+g.rng.Intn(500)) * sim.Millisecond
		}
		sp.Patience[core.CustomerID(i)] = p
	}
}

// genViolation rewrites the spec's schedule to break the synchrony envelope:
// a targeted holdback attack against (possibly rescaled) timeout windows for
// the timelock family, raw partial synchrony for everyone.
func genViolation(rng *sim.Rand, sp *Spec) {
	if sp.isTimelockFamily() && rng.Intn(3) < 2 {
		scales := []float64{1, 2, 8, -1}
		sp.TimeoutScale = scales[rng.Intn(len(scales))]
		names := AttackNames()
		sp.Net = NetworkSpec{
			Kind:     NetAttack,
			Attack:   names[rng.Intn(len(names))],
			Holdback: sp.attackHoldback(),
			Fast:     sp.Timing.Delta,
		}
		return
	}
	sp.Net = NetworkSpec{
		Kind:      NetPartial,
		GST:       sim.Time(rng.Intn(10)) * sim.Second,
		MaxPreGST: sim.Time(1+rng.Intn(60)) * sim.Second,
	}
}

// setFault assigns id the behaviour b in the spec's faults, the generator's
// map.
func (g *generator) setFault(sp *Spec, id string, b adversary.Behaviour) {
	if g.faults == nil {
		g.faults = map[string]string{}
	}
	sp.Faults = g.faults
	sp.Faults[id] = string(b)
}
