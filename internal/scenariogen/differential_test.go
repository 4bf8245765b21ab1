package scenariogen

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/sim"
)

// differentialSpec builds one random engine-differential scenario from a
// seed: chain length, amounts, timing and up to two faults drawn from the
// behaviour core on which the process and ANTA engines are specified to
// agree.
func differentialSpec(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	sp := Spec{
		Seed:   seed,
		Family: FamDifferential,
		N:      1 + rng.Intn(4),
		Base:   1 + rng.Int63n(100_000),
		Timing: TimingSpec{
			Delta:      sim.Time(5+rng.Intn(200)) * sim.Millisecond,
			Processing: sim.Time(100+rng.Intn(2000)) * sim.Microsecond,
			Rho:        float64(rng.Intn(1001)) * 1e-6,
			Offset:     sim.Time(rng.Intn(20_000)),
		},
		Net: NetworkSpec{Kind: NetSynchronous, Min: 1},
	}
	sp.Commission = rng.Int63n(50)
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 {
			id := core.CustomerID(rng.Intn(sp.N + 1))
			sp.Faults = withFault(sp.Faults, id, differentialCustomer[rng.Intn(len(differentialCustomer))])
		} else {
			id := core.EscrowID(rng.Intn(sp.N))
			sp.Faults = withFault(sp.Faults, id, differentialEscrow[rng.Intn(len(differentialEscrow))])
		}
	}
	return sp
}

// withFault returns the faults m with id's behaviour set to b, made if m is
// nil.
func withFault(m map[string]string, id string, b adversary.Behaviour) map[string]string {
	if m == nil {
		m = map[string]string{}
	}
	m[id] = string(b)
	return m
}

// TestEngineDifferential100Scenarios is the other-engine column, the
// engine-drift regression: on the 100 differentialSpec rows the timelock
// process engine and the Figure-2 ANTA interpreter produced identical
// Definition-1 verdicts and identical settlement sequences (locks, releases,
// refunds, transfers in order with actors and amounts) in their reference
// run. Any future change that makes one engine settle differently from the
// other fails here with the offending seed.
func TestEngineDifferential100Scenarios(t *testing.T) {
	p := population(t)
	t.Parallel()
	for _, i := range p.rowsIn(colEngine) {
		r := p.rows[i].reference(t)
		if r.out.Class != ClassConforming {
			t.Fatalf("%s: differential spec classified %s", r.name, r.out.Class)
		}
		for _, v := range r.out.Violations {
			t.Errorf("%s (%s): engines disagree: %s", r.name, r.sp.Describe(), v)
		}
	}
}

// TestAdversaryBehaviourNamesResolve pins the generator's fault vocabulary
// to the adversary library: every behaviour the differential domain names
// must parse, and parsing is the inverse of the behaviour's name.
func TestAdversaryBehaviourNamesResolve(t *testing.T) {
	for _, set := range [][]adversary.Behaviour{differentialCustomer, differentialEscrow} {
		for _, b := range set {
			got, ok := adversary.ParseBehaviour(string(b))
			if !ok || got != b {
				t.Errorf("behaviour %q does not round-trip through ParseBehaviour", b)
			}
		}
	}
	if _, ok := adversary.ParseBehaviour("no-such-behaviour"); ok {
		t.Error("ParseBehaviour accepted an unknown name")
	}
}

// TestSettlementDifferentialIsNotVacuous perturbs one engine's ledger logs —
// an operation dropped, two reordered, one re-amounted, one re-addressed —
// and requires the differential oracle to object each time: comparing ledger
// operations instead of trace events lost none of its teeth.
func TestSettlementDifferentialIsNotVacuous(t *testing.T) {
	sp := baseSpec(FamDifferential)
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	protos, err := sp.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	var logs [2][][]ledger.Op
	var reports [2]check.Report
	for i, p := range protos {
		res, err := p.Run(s.Muted())
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = opLogs(nil, res.Book)
		reports[i] = check.Evaluate(res, sp.checkOptions(sp.Class(), protos[0], s))
	}
	differs := func(procLogs [][]ledger.Op) bool {
		out := &Outcome{}
		judgeDifferential(out, &reports, procLogs, logs[1])
		for _, v := range out.Violations {
			if v.Kind != KindDifferential {
				t.Fatalf("unexpected violation %s", v)
			}
		}
		return len(out.Violations) > 0
	}
	if differs(logs[0]) {
		t.Fatal("the engines disagree on the unperturbed scenario")
	}
	// On an honest chain ledger 1's log is two mints, a lock and its release.
	const led = 1
	lock := slices.IndexFunc(logs[0][led], func(op ledger.Op) bool { return op.Kind == ledger.OpLock })
	if lock < 0 || lock+1 >= len(logs[0][led]) || logs[0][led][lock+1].Kind != ledger.OpRelease {
		t.Fatalf("ledger %d logged %v, want a lock followed by its release", led, logs[0][led])
	}
	perturbations := []struct {
		name    string
		perturb func(log []ledger.Op) []ledger.Op
	}{
		{"drop", func(log []ledger.Op) []ledger.Op { return slices.Delete(log, lock, lock+1) }},
		{"reorder", func(log []ledger.Op) []ledger.Op { log[lock], log[lock+1] = log[lock+1], log[lock]; return log }},
		{"re-amount", func(log []ledger.Op) []ledger.Op { log[lock].Amount++; return log }},
		{"re-address", func(log []ledger.Op) []ledger.Op { log[lock+1].To = log[lock+1].From; return log }},
	}
	for _, p := range perturbations {
		procLogs := slices.Clone(logs[0])
		procLogs[led] = p.perturb(slices.Clone(procLogs[led]))
		if !differs(procLogs) {
			t.Errorf("%s: the oracle accepted %v against %v", p.name, procLogs[led], logs[1][led])
		}
	}
}

// TestSameRunBites perturbs each observable sameRun compares, one at a time,
// on a real run's Outcome, and requires sameRun to name it; and it requires a
// rerun whose fingerprint differs to become exactly one determinism
// violation, for a payment spec and for a deal spec.
func TestSameRunBites(t *testing.T) {
	run := Run(baseSpec(FamTimelock))
	if d := sameRun(run, Run(baseSpec(FamTimelock))); d.field != "" {
		t.Fatalf("two runs of one spec differ: %s", d)
	}
	for field, perturb := range map[string]func(o *Outcome){
		"duration":        func(o *Outcome) { o.Duration++ },
		"bobPaid":         func(o *Outcome) { o.BobPaid = !o.BobPaid },
		"events":          func(o *Outcome) { o.Events++ },
		"sent":            func(o *Outcome) { o.Sent++ },
		"delivered":       func(o *Outcome) { o.Delivered++ },
		"ledger":          func(o *Outcome) { o.Ledger++ },
		"trafficPayments": func(o *Outcome) { o.TrafficPayments++ },
	} {
		o := *run
		perturb(&o)
		if d := sameRun(run, &o); d.field != field || !strings.HasPrefix(d.String(), field) {
			t.Errorf("perturbed %s, sameRun reports %q", field, d)
		}
	}
	for _, fam := range []Family{FamTimelock, FamDealTimelock} {
		out, sp := new(Outcome), baseSpec(fam)
		p := kernel(&sp, &worlds{}, false, out)
		if !out.OK() {
			t.Fatalf("%s: %v", fam, out.Violations)
		}
		again := p
		if p.deal != nil {
			d := *p.deal
			d.EventsFired++
			again.deal = &d
		} else {
			res := *p.res
			res.EventsFired++
			again.res = &res
		}
		judgeRerun(out, again, nil)
		if len(out.Violations) != 1 || out.Violations[0].Kind != KindDeterminism || !strings.Contains(out.Violations[0].Detail, "events") {
			t.Errorf("%s: a rerun with one more event became %v, want one %s violation naming its events", fam, out.Violations, KindDeterminism)
		}
	}
}
