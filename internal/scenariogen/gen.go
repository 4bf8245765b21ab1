package scenariogen

import (
	"math/rand"

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
func Generate(seed int64) Spec { return generate(sim.NewRand(seed), seed) }

// generate is Generate drawing from a generator its caller keeps: reseeding
// the lazily materialised register is O(1), building one is 5 KB, so a Fuzz
// worker reseeds one generator per seed instead of allocating one. The spec
// depends on the seed alone, never on what rng drew before
// (TestFuzzStandingWorldEquivalence).
func generate(rng *rand.Rand, seed int64) Spec {
	rng.Seed(seed)
	shape := pickShape(rng)
	sp := Spec{
		Seed:       seed,
		Family:     shape.family,
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
		genTraffic(rng, &sp, shape.violating)
		return sp
	case sp.isDeal():
		genDealFaults(rng, &sp)
		if sp.Family == FamDealCertified {
			sp.PatienceFloor = sp.sufficientDealPatience() + sim.Time(rng.Int63n(int64(sim.Second)))
		}
	case sp.Family == FamDifferential:
		genFaults(rng, &sp, differentialCustomer, differentialEscrow)
	default:
		genFaults(rng, &sp, adversary.CustomerBehaviours(), adversary.EscrowBehaviours())
	}
	if sp.isWeaklive() {
		if sp.Family == FamCommittee {
			sp.CommitteeSize = []int{1, 4}[rng.Intn(2)]
			// A committee of four stays trusted with one silent notary; the
			// singleton tolerates none.
			if rng.Intn(3) == 0 && sp.CommitteeSize == 4 {
				sp.Faults = setFault(sp.Faults, core.NotaryID(0), adversary.Silent)
			}
		}
		genPatience(rng, &sp, shape.violating)
	}
	if shape.violating {
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
func pickShape(rng *rand.Rand) shape {
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
func genTraffic(rng *rand.Rand, sp *Spec, violating bool) {
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
func genFaults(rng *rand.Rand, sp *Spec, cust, esc []adversary.Behaviour) {
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 {
			id := core.CustomerID(rng.Intn(sp.N + 1))
			sp.Faults = setFault(sp.Faults, id, cust[rng.Intn(len(cust))])
		} else {
			id := core.EscrowID(rng.Intn(sp.N))
			sp.Faults = setFault(sp.Faults, id, esc[rng.Intn(len(esc))])
		}
	}
}

// genDealFaults marks a random subset of deal parties non-compliant.
func genDealFaults(rng *rand.Rand, sp *Spec) {
	for i := 0; i < sp.N; i++ {
		if rng.Intn(4) == 0 {
			sp.Faults = setFault(sp.Faults, dealPartyID(i), adversary.Silent)
		}
	}
}

// genPatience assigns every customer a patience. Conforming weak-liveness
// runs get patience beyond SufficientPatience (so the commit always beats
// every abort); violating ones may get short patiences, which under slow
// schedules produce the aborts Definition 2 permits.
func genPatience(rng *rand.Rand, sp *Spec, violating bool) {
	suff := sp.SufficientPatience()
	sp.PatienceFloor = suff
	sp.Patience = map[string]sim.Time{}
	for i := 0; i <= sp.N; i++ {
		p := suff + sim.Time(rng.Int63n(int64(sim.Second)))
		if violating {
			p = sim.Time(50+rng.Intn(500)) * sim.Millisecond
		}
		sp.Patience[core.CustomerID(i)] = p
	}
}

// genViolation rewrites the spec's schedule to break the synchrony envelope:
// a targeted holdback attack against (possibly rescaled) timeout windows for
// the timelock family, raw partial synchrony for everyone.
func genViolation(rng *rand.Rand, sp *Spec) {
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

func setFault(m map[string]string, id string, b adversary.Behaviour) map[string]string {
	if m == nil {
		m = map[string]string{}
	}
	m[id] = string(b)
	return m
}
