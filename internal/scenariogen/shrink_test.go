package scenariogen

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestShrinkMinimisesTheorem2Counterexample(t *testing.T) {
	// A fat counterexample: long chain, big amounts, drifting clocks, scaled
	// windows, an hour-long certificate holdback. The shrinker must reduce
	// it while the attack keeps defeating termination.
	sp := Spec{
		Seed:       3,
		Family:     FamTimelock,
		N:          4,
		Base:       54_321,
		Commission: 37,
		Timing: TimingSpec{
			Delta:      120 * sim.Millisecond,
			Processing: 1500 * sim.Microsecond,
			Rho:        5e-4,
			Offset:     9 * sim.Millisecond,
		},
		Net:          NetworkSpec{Kind: NetAttack, Attack: "delay-certificates", Holdback: sim.Hour, Min: 40 * sim.Millisecond},
		TimeoutScale: 8,
	}
	base := Run(sp)
	if base.OK() && len(base.ExpectedFailures) == 0 {
		t.Fatal("the fat counterexample does not fail at all")
	}
	prop := core.PropStrongLiveness
	res := Shrink(sp, KeepExpectedFailure(prop), 0)
	if res.Accepted == 0 {
		t.Fatalf("shrinker accepted no reduction (tried %d)", res.Tried)
	}
	if res.Spec.N != 1 {
		t.Errorf("shrunk chain length %d, want 1", res.Spec.N)
	}
	if res.Spec.Base != 1 {
		t.Errorf("shrunk base amount %d, want 1", res.Spec.Base)
	}
	if res.Spec.Commission != 0 {
		t.Errorf("shrunk commission %d, want 0", res.Spec.Commission)
	}
	if res.Spec.size() >= sp.size() {
		t.Errorf("shrunk size %d not below original %d", res.Spec.size(), sp.size())
	}
	// The minimal scenario still reproduces the targeted failure.
	if !KeepExpectedFailure(prop)(res.Outcome) {
		t.Fatalf("shrunk scenario lost the %s failure: %+v", prop, res.Outcome)
	}
}

func TestShrinkTrafficGriefingCounterexample(t *testing.T) {
	// A fat Byzantine traffic scenario: many payments, a staggered recovery
	// window, an extra behaviour catalogue, bounded liquidity. The shrinker
	// must reduce it while an attacked payment keeps failing — with zero
	// safety violations — and the connector fraction must survive (the keep
	// predicate pins it, mirroring how the committed corpus entry was built).
	sp := Spec{
		Seed:       141,
		Family:     FamTraffic,
		N:          6,
		Base:       477,
		Commission: 29,
		Timing:     TimingSpec{Delta: 50 * sim.Millisecond, Processing: sim.Millisecond, Rho: 1e-4, Offset: 3 * sim.Millisecond},
		Net:        NetworkSpec{Kind: NetSynchronous, Min: 10 * sim.Millisecond},
		Crypto:     "hmac",
		Traffic: &TrafficSpec{
			Payments:        48,
			Rate:            300,
			SubPaths:        true,
			Liquidity:       4000,
			QueuePatience:   800 * sim.Millisecond,
			FaultFraction:   0.5,
			FaultBehaviours: []string{"silent", "withhold"},
			FaultFrom:       10 * sim.Millisecond,
			FaultOutage:     2 * sim.Second,
		},
	}
	keep := func(o *Outcome) bool {
		return o.OK() && o.Class == ClassViolating &&
			o.Spec.Traffic != nil && o.Spec.Traffic.FaultFraction > 0 &&
			o.TrafficFaulted > 0 && o.TrafficFailed > 0
	}
	res := Shrink(sp, keep, 0)
	if res.Accepted == 0 {
		t.Fatalf("shrinker accepted no reduction (tried %d)", res.Tried)
	}
	if res.Spec.Traffic == nil || res.Spec.Traffic.FaultFraction == 0 {
		t.Fatal("shrinker dropped the pinned connector fraction")
	}
	if res.Spec.Traffic.Payments >= sp.Traffic.Payments {
		t.Errorf("population not reduced: %d", res.Spec.Traffic.Payments)
	}
	if res.Spec.size() >= sp.size() {
		t.Errorf("shrunk size %d not below original %d", res.Spec.size(), sp.size())
	}
	if !keep(res.Outcome) {
		t.Fatalf("shrunk scenario lost the griefing: %+v", res.Outcome)
	}
	// The original spec must not have been mutated through aliased pointers.
	if sp.Traffic.Payments != 48 || sp.Traffic.FaultFraction != 0.5 || len(sp.Traffic.FaultBehaviours) != 2 {
		t.Fatalf("shrink mutated the original traffic spec: %+v", sp.Traffic)
	}
}

func TestShrinkRefusesNonFailingBaseline(t *testing.T) {
	sp := baseSpec(FamTimelock)
	res := Shrink(sp, KeepExpectedFailure(core.PropTermination), 0)
	if res.Accepted != 0 || res.Tried != 0 {
		t.Fatalf("shrinker worked on a passing scenario (accepted %d, tried %d)", res.Accepted, res.Tried)
	}
}

func TestShrinkRespectsBudget(t *testing.T) {
	sp := Spec{
		Seed:   3,
		Family: FamTimelock,
		N:      5,
		Base:   99_999,
		Timing: TimingSpec{Delta: 50 * sim.Millisecond, Processing: sim.Millisecond},
		Net:    NetworkSpec{Kind: NetAttack, Attack: "delay-money", Holdback: sim.Hour},
	}
	res := Shrink(sp, KeepExpectedFailure(core.PropStrongLiveness), 3)
	if res.Tried > 3 {
		t.Fatalf("shrinker ran %d candidates beyond its budget of 3", res.Tried)
	}
}

func TestShrunkSpecDropsOutOfRangeParticipants(t *testing.T) {
	sp := Spec{
		Seed:   11,
		Family: FamTimelock,
		N:      3,
		Base:   1000,
		Timing: TimingSpec{Delta: 50 * sim.Millisecond, Processing: sim.Millisecond},
		Net:    NetworkSpec{Kind: NetAttack, Attack: "delay-money", Holdback: sim.Hour},
		Faults: map[string]string{"c3": "silent", "e2": "theft"},
	}
	c := sp.clone()
	c.setN(1)
	if len(c.Faults) != 0 {
		t.Fatalf("faults on dropped participants survived the chain shrink: %v", c.Faults)
	}
	if len(sp.Faults) != 2 {
		t.Fatal("setN mutated the original spec through an aliased map")
	}
}

// TestReplayCorpus re-executes every committed counterexample in testdata:
// known Theorem-2 violating schedules (members of the theorem2Spec population) and
// the first shrunk counterexamples the fuzzer found. Each must reproduce its
// recorded class, protocol and exact failed-property set, deterministically.
func TestReplayCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("seed corpus has %d files, expected at least 4", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := LoadReplay(path)
			if err != nil {
				t.Fatal(err)
			}
			if r.Expect.Buggy {
				t.Fatalf("corpus replay records an unfixed bug: %s", r.Note)
			}
			if err := r.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKnownBugsStillReproduce re-executes the shrunk replays of defects
// nobody has fixed yet (ROADMAP item 1), kept apart from the corpus in
// testdata/known-bugs: each must still be an oracle violation with exactly
// its recorded failed-property set. It pins the bug, not the fix: a change
// that is not meant to fix it — a rewrite of the code it lives in, say —
// must carry it over bit for bit, and the change that does fix it moves the
// file.
func TestKnownBugsStillReproduce(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "known-bugs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("%d known-bug replays, expected at least 5", len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := LoadReplay(path)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Expect.Buggy {
				t.Fatalf("%s does not record a bug; it belongs in testdata/, under TestReplayCorpus", path)
			}
			if err := r.Verify(); err != nil {
				t.Fatalf("%v\nIf this change fixes the defect (ROADMAP item 1), move %s into testdata/ with the fixed expectation "+
					"(buggy false, the property gone from violated) so that TestReplayCorpus holds it; otherwise the run it pins has moved.", err, path)
			}
		})
	}
}
