package scenariogen

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestGenerateIsPureFunctionOfSeed(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%s\nvs\n%s", seed, a.MarshalIndent(), b.MarshalIndent())
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid spec: %v", seed, err)
		}
	}
}

func TestGenerateCoversFamiliesAndClasses(t *testing.T) {
	fams := map[Family]bool{}
	classes := map[Class]bool{}
	for seed := int64(0); seed < 400; seed++ {
		sp := Generate(seed)
		fams[sp.Family] = true
		classes[sp.Class()] = true
	}
	for _, f := range AllFamilies() {
		if !fams[f] {
			t.Errorf("400 seeds never generated family %s", f)
		}
	}
	if !classes[ClassConforming] || !classes[ClassViolating] {
		t.Errorf("400 seeds did not cover both classes: %v", classes)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		sp := Generate(seed)
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Fatalf("seed %d: round trip changed the spec", seed)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := Generate(1)
	cases := map[string]func(*Spec){
		"unknown family":    func(sp *Spec) { sp.Family = "nope" },
		"zero chain":        func(sp *Spec) { sp.N = 0 },
		"zero base":         func(sp *Spec) { sp.Base = 0 },
		"negative comm":     func(sp *Spec) { sp.Commission = -1 },
		"zero delta":        func(sp *Spec) { sp.Timing.Delta = 0 },
		"unknown net":       func(sp *Spec) { sp.Net.Kind = "carrier-pigeon" },
		"unknown attack":    func(sp *Spec) { sp.Net = NetworkSpec{Kind: NetAttack, Attack: "nope"} },
		"unknown behaviour": func(sp *Spec) { sp.Faults = map[string]string{"c0": "nope"} },
	}
	for name, mutate := range cases {
		sp := good.clone()
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
		}
	}
}

// baseSpec returns a minimal conforming timelock spec for oracle tests.
func baseSpec(family Family) Spec {
	return Spec{
		Seed:   7,
		Family: family,
		N:      2,
		Base:   1000,
		Timing: TimingSpec{Delta: 50 * sim.Millisecond, Processing: sim.Millisecond, Rho: 1e-4, Offset: 5 * sim.Millisecond},
		Net:    NetworkSpec{Kind: NetSynchronous, Min: 1},
	}
}

func TestClassDerivation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   Class
	}{
		{"plain synchronous", func(sp *Spec) {}, ClassConforming},
		{"attack schedule", func(sp *Spec) {
			sp.Net = NetworkSpec{Kind: NetAttack, Attack: "delay-money", Holdback: sim.Hour}
		}, ClassViolating},
		{"partial synchrony", func(sp *Spec) {
			sp.Net = NetworkSpec{Kind: NetPartial, GST: sim.Second, MaxPreGST: sim.Minute}
		}, ClassViolating},
		{"scaled timeouts", func(sp *Spec) { sp.TimeoutScale = 8 }, ClassViolating},
		{"infinite timeouts", func(sp *Spec) { sp.TimeoutScale = -1 }, ClassViolating},
		{"two faults", func(sp *Spec) {
			sp.Faults = map[string]string{"c0": "silent", "e1": "theft"}
		}, ClassConforming},
		{"three faults", func(sp *Spec) {
			sp.Faults = map[string]string{"c0": "silent", "c1": "silent", "e1": "theft"}
		}, ClassViolating},
		{"manager fault", func(sp *Spec) {
			sp.Faults = map[string]string{core.ManagerID: "equivocate"}
		}, ClassViolating},
	}
	for _, tc := range cases {
		sp := baseSpec(FamTimelock)
		tc.mutate(&sp)
		if got := sp.Class(); got != tc.want {
			t.Errorf("%s: class %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestClassNaiveRequiresDriftFreeClocks(t *testing.T) {
	sp := baseSpec(FamNaive)
	if got := sp.Class(); got != ClassViolating {
		t.Fatalf("naive with drifting clocks classified %s", got)
	}
	sp.Timing.Rho = 0
	if got := sp.Class(); got != ClassConforming {
		t.Fatalf("naive with drift-free clocks classified %s", got)
	}
}

func TestClassWeaklivePatience(t *testing.T) {
	sp := baseSpec(FamWeaklive)
	if got := sp.Class(); got != ClassViolating {
		t.Fatalf("weaklive without patience classified %s (infinite patience cannot terminate a stuck run)", got)
	}
	sp.Patience = map[string]sim.Time{}
	for i := 0; i <= sp.N; i++ {
		sp.Patience[core.CustomerID(i)] = sp.SufficientPatience()
	}
	sp.PatienceFloor = sp.SufficientPatience()
	if got := sp.Class(); got != ClassConforming {
		t.Fatalf("weaklive with sufficient patience classified %s", got)
	}
	sp.Patience["c1"] = sim.Millisecond
	if got := sp.Class(); got != ClassViolating {
		t.Fatalf("weaklive with an impatient customer classified %s", got)
	}
}

func TestClassCommitteeNotaryFaults(t *testing.T) {
	sp := baseSpec(FamCommittee)
	sp.CommitteeSize = 4
	sp.Patience = map[string]sim.Time{}
	for i := 0; i <= sp.N; i++ {
		sp.Patience[core.CustomerID(i)] = sp.SufficientPatience()
	}
	sp.PatienceFloor = sp.SufficientPatience()
	sp.Faults = map[string]string{core.NotaryID(0): "silent"}
	if got := sp.Class(); got != ClassConforming {
		t.Fatalf("committee with f=1 of 4 notaries faulty classified %s", got)
	}
	sp.Faults[core.NotaryID(1)] = "silent"
	if got := sp.Class(); got != ClassViolating {
		t.Fatalf("committee with 2 of 4 notaries faulty classified %s", got)
	}
}

func TestOracleConformingFamiliesAreClean(t *testing.T) {
	for _, fam := range []Family{FamTimelock, FamANTA, FamHTLC, FamDifferential} {
		sp := baseSpec(fam)
		out := Run(sp)
		if out.Class != ClassConforming {
			t.Fatalf("%s: class %s", fam, out.Class)
		}
		if !out.OK() {
			t.Fatalf("%s: violations on the happy path: %v", fam, out.Violations)
		}
		if !out.BobPaid {
			t.Fatalf("%s: Bob not paid on the happy path", fam)
		}
	}
}

func TestOracleHTLCRecordsBaselineGap(t *testing.T) {
	out := Run(baseSpec(FamHTLC))
	found := false
	for _, p := range out.ExpectedFailures {
		if p == core.PropCS1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("htlc happy path did not record the CS1 gap (expected failures: %v)", out.ExpectedFailures)
	}
	if !out.OK() {
		t.Fatalf("htlc happy path flagged violations: %v", out.Violations)
	}
}

func TestOracleWeakliveConformingAllOK(t *testing.T) {
	sp := baseSpec(FamWeaklive)
	sp.Patience = map[string]sim.Time{}
	for i := 0; i <= sp.N; i++ {
		sp.Patience[core.CustomerID(i)] = sp.SufficientPatience() + sim.Second
	}
	sp.PatienceFloor = sp.SufficientPatience()
	out := Run(sp)
	if out.Class != ClassConforming {
		t.Fatalf("class %s", out.Class)
	}
	if !out.OK() || !out.BobPaid {
		t.Fatalf("conforming weaklive: ok=%v bobPaid=%v violations=%v", out.OK(), out.BobPaid, out.Violations)
	}
}

func TestOracleAttackRediscoversTheorem2(t *testing.T) {
	sp := baseSpec(FamTimelock)
	sp.Net = NetworkSpec{Kind: NetAttack, Attack: "delay-certificates", Holdback: sim.Hour}
	out := Run(sp)
	if out.Class != ClassViolating {
		t.Fatalf("class %s", out.Class)
	}
	if !out.OK() {
		t.Fatalf("safety violated under the attack: %v", out.Violations)
	}
	if !out.Theorem2 {
		t.Fatalf("certificate holdback did not register as a Theorem-2 counterexample (expected failures: %v)", out.ExpectedFailures)
	}
}

func TestOracleDealFamilies(t *testing.T) {
	for _, fam := range []Family{FamDealTimelock, FamDealCertified} {
		sp := baseSpec(fam)
		sp.N = 3
		out := Run(sp)
		if !out.OK() {
			t.Fatalf("%s: violations on a compliant ring deal: %v", fam, out.Violations)
		}
		if !out.BobPaid {
			t.Fatalf("%s: compliant ring deal did not complete", fam)
		}
		// A non-compliant party aborts the deal without violating safety.
		sp.Faults = map[string]string{"p1": string(adversary.Silent)}
		out = Run(sp)
		if !out.OK() {
			t.Fatalf("%s: violations with a non-compliant party: %v", fam, out.Violations)
		}
		if out.BobPaid {
			t.Fatalf("%s: deal completed although p1 never escrowed", fam)
		}
	}
}

func TestOracleDeterminismSampling(t *testing.T) {
	sp := baseSpec(FamTimelock)
	sp.Seed = 16 // seed%16 == 0 triggers the double-run determinism oracle
	if !sp.wantDeterminism() {
		t.Fatal("seed 16 should sample the determinism oracle")
	}
	out := Run(sp)
	if !out.OK() {
		t.Fatalf("determinism oracle flagged a deterministic engine: %v", out.Violations)
	}
}

// trafficSpec returns a deterministic traffic-family spec for oracle tests.
func trafficSpec() Spec {
	return Spec{
		Seed:       9,
		Family:     FamTraffic,
		N:          5,
		Base:       120,
		Commission: 1,
		Timing:     TimingSpec{Delta: 20 * sim.Millisecond, Processing: sim.Millisecond, Rho: 1e-4, Offset: 5 * sim.Millisecond},
		Net:        NetworkSpec{Kind: NetSynchronous, Min: 1},
		Crypto:     "hmac",
		Traffic:    &TrafficSpec{Payments: 60, Rate: 400, SubPaths: true},
	}
}

func TestOracleTrafficHonestConforming(t *testing.T) {
	sp := trafficSpec()
	out := Run(sp)
	if out.Class != ClassConforming {
		t.Fatalf("honest traffic classified %s", out.Class)
	}
	if !out.OK() {
		t.Fatalf("honest traffic violated the aggregate oracle: %v", out.Violations)
	}
	if out.Protocol != "traffic" || !out.BobPaid || out.TrafficPayments != 60 {
		t.Fatalf("traffic summary wrong: protocol=%q bobPaid=%v payments=%d", out.Protocol, out.BobPaid, out.TrafficPayments)
	}
	if out.TrafficFaulted != 0 || out.TrafficFailed != 0 {
		t.Fatalf("honest traffic reported attack footprint: faulted=%d failed=%d", out.TrafficFaulted, out.TrafficFailed)
	}
}

func TestOracleTrafficByzantineKeepsAggregateSafety(t *testing.T) {
	sp := trafficSpec()
	sp.Traffic.FaultFraction = 0.5
	out := Run(sp)
	if out.Class != ClassViolating {
		t.Fatalf("Byzantine traffic classified %s", out.Class)
	}
	if !out.OK() {
		t.Fatalf("aggregate safety oracle violated under a 50%% attacker fraction: %v", out.Violations)
	}
	if out.TrafficFaulted == 0 {
		t.Fatal("fault plan never touched a payment")
	}
	if out.TrafficFailed == 0 {
		t.Fatal("a 50% Byzantine chain did no measurable damage")
	}
	if !out.BobPaid {
		t.Fatal("no payment settled at all — the attack should grief, not halt the chain")
	}
}

// TestOracleTrafficCheckpointEquivalence exercises the checkpoint arm of the
// determinism oracle: with CheckpointAt set, Run interrupts, snapshots,
// resumes and compares against the uninterrupted result — honest and
// Byzantine alike must come back clean.
func TestOracleTrafficCheckpointEquivalence(t *testing.T) {
	sp := trafficSpec()
	sp.Traffic.CheckpointAt = 23
	if out := Run(sp); !out.OK() {
		t.Fatalf("honest checkpointed traffic violated the oracle: %v", out.Violations)
	}
	sp = trafficSpec()
	sp.Traffic.CheckpointAt = 41
	sp.Traffic.FaultFraction = 0.34
	if out := Run(sp); !out.OK() {
		t.Fatalf("Byzantine checkpointed traffic violated the oracle: %v", out.Violations)
	}
}

func TestTrafficSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"missing traffic block":   func(sp *Spec) { sp.Traffic = nil },
		"zero payments":           func(sp *Spec) { sp.Traffic.Payments = 0 },
		"zero rate":               func(sp *Spec) { sp.Traffic.Rate = 0 },
		"negative liquidity":      func(sp *Spec) { sp.Traffic.Liquidity = -1 },
		"bad fraction":            func(sp *Spec) { sp.Traffic.FaultFraction = 1.5 },
		"bad behaviour":           func(sp *Spec) { sp.Traffic.FaultBehaviours = []string{"nope"} },
		"traffic on timelock":     func(sp *Spec) { sp.Family = FamTimelock },
		"negative checkpointAt":   func(sp *Spec) { sp.Traffic.CheckpointAt = -1 },
		"checkpointAt ≥ payments": func(sp *Spec) { sp.Traffic.CheckpointAt = sp.Traffic.Payments },
		// Sizes a replay file must not choose freely. The clock offset used
		// to reach rand.Int63n overflowed and panicked.
		"population too large": func(sp *Spec) { sp.Traffic.Payments = maxTrafficPayments + 1 },
		"chain too long":       func(sp *Spec) { sp.N = core.MaxChain + 1 },
		"offset overflows":     func(sp *Spec) { sp.Timing.Offset = 1 << 62 },
		"negative patience":    func(sp *Spec) { sp.Patience = map[string]sim.Time{"c0": -1} },
		"timeout scale":        func(sp *Spec) { sp.TimeoutScale = -2 },
		"drift":                func(sp *Spec) { sp.Timing.Rho = 1 },
	}
	for name, mutate := range cases {
		sp := trafficSpec()
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
		}
	}
	if err := trafficSpec().Validate(); err != nil {
		t.Fatalf("valid traffic spec rejected: %v", err)
	}
}

func TestFuzzAggregationDeterministicAcrossWorkers(t *testing.T) {
	opts := Options{Seeds: 60, StartSeed: 100}
	opts.Workers = 1
	a := Fuzz(opts)
	opts.Workers = 4
	b := Fuzz(opts)
	if a.Runs != b.Runs || a.Conforming != b.Conforming || a.Violating != b.Violating ||
		a.ViolationCount != b.ViolationCount || a.Theorem2Count != b.Theorem2Count {
		t.Fatalf("worker count changed campaign results:\n%s\nvs\n%s", a, b)
	}
	if !reflect.DeepEqual(a.ByFamily, b.ByFamily) || !reflect.DeepEqual(a.ExpectedCounts, b.ExpectedCounts) {
		t.Fatalf("worker count changed campaign tallies:\n%s\nvs\n%s", a, b)
	}
}

// TestFuzzWorkersCapped: a campaign starts no more workers than it has
// seeds, nor more than its window lets run at once, whatever Workers asks
// for; Fuzz itself runs a seed count below 1 as one seed.
func TestFuzzWorkersCapped(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, c := range []struct{ workers, seeds, want int }{
		{1, 20000, 1},
		{4, 20000, 4},
		{100_000_000, 1, 1},
		{100_000_000, 20000, window},
		{100_000_000, 0, 1},
		{7, 3, 3},
		{window + 1, window + 1, window},
		{0, 1, 1},
		{0, 20000, min(cpus, window)},
	} {
		if got := (Options{Workers: c.workers, Seeds: c.seeds}).workers(); got != c.want {
			t.Errorf("Workers %d over %d seeds starts %d workers, want %d", c.workers, c.seeds, got, c.want)
		}
	}
}

// TestFuzzReorderWindow: a campaign crossing three reorder windows, with the
// certified deal's known violation (seed 47205, testdata/known-bugs) in the
// third, folds on one worker and on four the Stats a seed-by-seed fold gives:
// the counts, the violations in seed order and the earliest Theorem-2
// counterexample.
func TestFuzzReorderWindow(t *testing.T) {
	opts := Options{Seeds: 3*window + 50, StartSeed: 47205 - 2*window - 50, Families: nonTraffic(), Crypto: "hmac"}
	summary := func(st *Stats) string {
		first := int64(-1)
		if st.FirstTheorem2 != nil {
			first = st.FirstTheorem2.Spec.Seed
		}
		s := fmt.Sprintf("%sfirst theorem-2 seed %d\n", st, first)
		for _, o := range st.Violations {
			s += fmt.Sprintf("violation seed %d\n", o.Spec.Seed)
		}
		return s
	}
	ref := &Stats{ByFamily: map[Family]int{}, ExpectedCounts: map[core.Property]int{}}
	for seed := opts.StartSeed; seed < opts.StartSeed+int64(opts.Seeds); seed++ {
		sp := Generate(seed)
		sp.Crypto = opts.Crypto
		if sp.Family == FamTraffic {
			ref.fold(&tally{done: true})
			continue
		}
		o := Run(sp)
		tl := tallyOf(o)
		tl.kept = o
		ref.fold(&tl)
	}
	if ref.ViolationCount == 0 || ref.FirstTheorem2 == nil {
		t.Fatalf("want seed 47205's violation and a Theorem-2 counterexample:\n%s", ref)
	}
	want := summary(ref)
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		if got := summary(Fuzz(opts)); got != want {
			t.Fatalf("%d workers:\n%s--- a seed-by-seed fold\n%s", workers, got, want)
		}
	}
}

// TestFuzzFoldsInSeedOrder: the first seed of each window runs slowest, so
// its successors finish first, up to a window ahead; the fold still counts
// every seed once and keeps the first violations and the first Theorem-2
// outcome in seed order.
func TestFuzzFoldsInSeedOrder(t *testing.T) {
	slow := func(sp Spec, _ *worlds, o *Outcome) {
		if sp.Seed%window == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		o.reset(&sp)
		o.Theorem2 = sp.Seed%50 == 0
		if sp.Seed%40 == 0 {
			o.Violations = append(o.Violations, Violation{Kind: KindEngine})
		}
	}
	for _, workers := range []int{1, 4} {
		st := fuzz(Options{Seeds: 3 * window, Workers: workers}, slow)
		got := fmt.Sprintf("runs=%d violations=%d first-theorem2=%d", st.Runs, st.ViolationCount, st.FirstTheorem2.Spec.Seed)
		for _, o := range st.Violations {
			got += fmt.Sprint(" ", o.Spec.Seed)
		}
		if want := "runs=768 violations=20 first-theorem2=0 0 40 80 120 160 200 240 280 320 360 400 440 480 520 560 600"; got != want {
			t.Fatalf("%d workers folded\n%s, want\n%s", workers, got, want)
		}
	}
}

func TestFuzzFamilyFilter(t *testing.T) {
	st := Fuzz(Options{Seeds: 80, Families: []Family{FamHTLC}})
	if st.Runs == 0 {
		t.Fatal("family filter ran nothing")
	}
	for f, n := range st.ByFamily {
		if f != FamHTLC && n > 0 {
			t.Fatalf("family filter leaked %s runs", f)
		}
	}
	if st.Skipped == 0 {
		t.Fatal("family filter skipped nothing")
	}
}
