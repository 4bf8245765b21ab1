package scenariogen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/sim"
)

// nonTraffic is every family the fuzzer runs on standing worlds.
func nonTraffic() []Family {
	var out []Family
	for _, f := range AllFamilies() {
		if f != FamTraffic {
			out = append(out, f)
		}
	}
	return out
}

// standingSeeds is how many generated seeds the standing-pair column, the
// standing generator's check and the campaign cover.
func standingSeeds() int {
	if testing.Short() {
		return 300
	}
	return 2000
}

// TestFuzzStandingWorldEquivalence is the standing-pair column: a row judged
// muted on a pair of worlds that has judged anything before — in population
// order and in a shuffled order, so every family follows every other, on
// alternating backends — has its reference's Outcome (JSON-byte-equal) and
// result. Besides it, the spec a standing generator draws for a seed,
// whatever it drew before, is Generate's, and a campaign's Stats do not
// depend on how many workers (hence pairs and generators) it ran on. CI runs
// it under the race detector at GOMAXPROCS=4: a world belongs to one worker.
func TestFuzzStandingWorldEquivalence(t *testing.T) {
	seeds := standingSeeds()
	gen := generator{rng: sim.NewRand(0)}
	for _, seed := range rand.New(rand.NewSource(21)).Perm(seeds) {
		if got, want := gen.spec(int64(seed), gen.shape(int64(seed))), Generate(int64(seed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the standing generator drew\n%s\nGenerate\n%s", seed, got.MarshalIndent(), want.MarshalIndent())
		}
	}

	p := population(t)
	t.Parallel()
	ws := &worlds{}
	compare := func(pass string, order []int) {
		for k, i := range order {
			got := p.rows[i].observe(t, ws, false)
			after := "new worlds"
			if k > 0 {
				after = p.rows[order[k-1]].name
			}
			p.rows[i].check(t, pass+", after "+after, got, false, false)
		}
	}
	order := p.rowsIn(colStanding)
	compare("in order", order)
	rand.New(rand.NewSource(18)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	compare("shuffled", order)

	opts := Options{Seeds: seeds, Families: nonTraffic(), Crypto: "hmac", Workers: 1}
	one := Fuzz(opts).String()
	opts.Workers = 4
	if four := Fuzz(opts).String(); one != four {
		t.Fatalf("worker count changed the campaign:\n--- 1 worker\n%s--- 4 workers\n%s", one, four)
	}
	t.Logf("%d rows judged twice; campaign of %d seeds on 1 and 4 workers", len(order), seeds)
}

// fuzzAllocBudget and fuzzBytesBudget are what one scenario of the hmac
// campaign may allocate, generation, oracle and aggregation included: what
// was measured when a worker came to keep its Outcome, its spec's fault and
// patience maps and its payment IDs — 0.65 allocations and 162 bytes, 5.1 and
// 345 under the race detector — plus a tenth. (5.4 and 899 before; 6.7 and
// 978 with the deal run and the Spec's materialisation on the worker's
// standing storage; 31.3 and 2.5 KB before, with the transaction manager on
// the world; 44 and 3.4 KB before that, the Figure-2 automata compiled once;
// 124 and 8.8 KB muted on a standing generator under one campaign key seed;
// 228 and 21 KB before that.) What is left is inside the runs and verdicts:
// the checkers' failure details, the hmac signers a keyring binds, netsim's
// delivery records, the ledgers' growth on longer chains, and a copy of each
// outcome Stats keeps. A change that brings back a per-scenario
// Outcome, spec map, payment ID, engine, trace, network, book, keyring,
// generator, process slice, automaton, committee, deal run, amounts slice,
// fault map, delay model or protocol object fails here, on any machine.
const (
	fuzzAllocBudget = 0.72
	fuzzBytesBudget = 180
)

// TestFuzzScenarioAllocs pins what the fuzz path costs by two numbers no
// machine's speed moves: a one-worker hmac campaign over a fixed window of
// clean seeds, the shape of the repository benchmark's fuzz_single batches.
func TestFuzzScenarioAllocs(t *testing.T) {
	opts := Options{Seeds: 2000, StartSeed: 400_000, Workers: 1, Families: nonTraffic(), Crypto: "hmac"}
	Fuzz(opts) // fill the key cache
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := Fuzz(opts)
	runtime.ReadMemStats(&after)
	if !st.Clean() {
		t.Fatalf("seeds %d..%d are not clean: %v", opts.StartSeed, opts.StartSeed+int64(opts.Seeds)-1, st.Violations[0].Violations)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(st.Runs)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(st.Runs)
	t.Logf("one of %d scenarios: %.2f allocations, %.0f bytes", st.Runs, allocs, bytes)
	if !race.Enabled && (allocs > fuzzAllocBudget || bytes > fuzzBytesBudget) { // the detector allocates
		t.Fatalf("a fuzzed scenario allocates %.2f times and %.0f bytes, budget %v and %v", allocs, bytes, fuzzAllocBudget, fuzzBytesBudget)
	}
}

// TestFuzzCopiesWhatStatsKeeps: a worker judges every seed into one Outcome
// and draws every spec's fault and patience maps into one pair, so what Stats
// keeps must be a copy. In a campaign that judges more than workers × window
// seeds after each outcome it keeps, on one worker and on four,
// FirstTheorem2 and every entry of Violations read (JSON-byte-equal) what Run
// gives for the seed. The run hook makes the violations: it marks six seeds
// of the clean window violated, five with faults and one with patience.
func TestFuzzCopiesWhatStatsKeeps(t *testing.T) {
	const start, spacing = 300_000, 300
	marked := map[int64]bool{}
	var last int64
	for k := int64(0); k < 6; k++ {
		for seed := start + k*spacing; ; seed++ {
			sp := Generate(seed)
			if sp.Family != FamTraffic && (k < 5 && len(sp.Faults) > 0 || k == 5 && len(sp.Patience) > 0) {
				marked[seed], last = true, seed
				break
			}
		}
	}
	mark := func(sp Spec, o *Outcome) {
		if marked[sp.Seed] {
			o.Violations = append(o.Violations, Violation{Kind: KindEngine, Detail: fmt.Sprintf("seed %d marked", sp.Seed)})
		}
	}
	opts := Options{StartSeed: start, Seeds: int(last-start) + 4*window + 1, Families: nonTraffic(), Crypto: "hmac"}
	ran := func(seed int64) []byte {
		sp := Generate(seed)
		sp.Crypto = opts.Crypto
		o := Run(sp)
		mark(sp, o)
		js, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		st := fuzz(opts, func(sp Spec, ws *worlds, o *Outcome) {
			judge(sp, ws, o)
			mark(sp, o)
		})
		if len(st.Violations) != len(marked) || st.FirstTheorem2 == nil || st.FirstTheorem2.Spec.Seed > last {
			t.Fatalf("%d workers kept %d violations (want %d) and Theorem-2 outcome %v", workers, len(st.Violations), len(marked), st.FirstTheorem2 != nil)
		}
		for _, o := range append([]*Outcome{st.FirstTheorem2}, st.Violations...) {
			got, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if want := ran(o.Spec.Seed); !bytes.Equal(got, want) {
				t.Fatalf("%d workers: Stats kept seed %d as\n%s\nRun gives\n%s", workers, o.Spec.Seed, got, want)
			}
		}
	}
}

// TestFuzzRecoversPanickingScenario: a scenario that panics becomes a finding
// that names its seed, its worlds are dropped, and the worker carries on.
func TestFuzzRecoversPanickingScenario(t *testing.T) {
	ws, out := &worlds{}, &Outcome{}
	sp := baseSpec(FamTimelock)
	if runGuarded(sp, ws, out, judge); !out.OK() || ws.w[0] == nil {
		t.Fatalf("healthy scenario: violations %v, primary world built: %v", out.Violations, ws.w[0] != nil)
	}
	runGuarded(sp, ws, out, func(Spec, *worlds, *Outcome) { panic("ledger exploded") })
	if len(out.Violations) != 1 || out.Violations[0].Kind != KindEngine {
		t.Fatalf("panic reported as %v, want one %s violation", out.Violations, KindEngine)
	}
	if d := out.Violations[0].Detail; !strings.Contains(d, fmt.Sprintf("seed %d", sp.Seed)) || !strings.Contains(d, "ledger exploded") {
		t.Fatalf("violation %q names neither the seed nor the panic value", d)
	}
	if out.Spec.Seed != sp.Seed || out.Class != sp.Class() {
		t.Fatalf("outcome describes %s/%s, want the panicking spec", out.Spec.Describe(), out.Class)
	}
	if ws.w[0] != nil || ws.w[1] != nil {
		t.Fatal("worlds of unknown state were kept after a panic")
	}
	if runGuarded(sp, ws, out, judge); !out.OK() {
		t.Fatalf("scenario after a panic: %v", out.Violations)
	}
}

// sameNetwork reports whether two materialised delay models are one model:
// reflect.DeepEqual holds the plain ones to it, and an attack schedule — whose
// Matches is a function, which DeepEqual never calls equal — by its name, its
// delays and how it classifies the heads the schedules tell apart.
func sameNetwork(a, b netsim.DelayModel) bool {
	sa, attackA := a.(*Schedule)
	sb, attackB := b.(*Schedule)
	if !attackA || !attackB {
		return attackA == attackB && reflect.DeepEqual(a, b)
	}
	for _, head := range []string{"chi(", "$(", "$refund(", "P(a=", "G(d=", "pay"} {
		if sa.Matches(head) != sb.Matches(head) {
			return false
		}
	}
	return sa.Name() == sb.Name() && sa.Holdback == sb.Holdback && sa.Fast == sb.Fast
}

// TestMaterialiserMatchesSpec is the oracle of the standing materialiser:
// whatever it materialised before — the specs of 20 000 seeds in seed order,
// reversed, and with long chains and short ones interleaved — the Scenario,
// Protocols and DealConfig it hands a run are what a new materialiser (the
// public Spec methods) returns: reflect.DeepEqual on everything a run reads,
// the delay model by sameNetwork.
func TestMaterialiserMatchesSpec(t *testing.T) {
	t.Parallel()
	seeds := 20_000
	if testing.Short() {
		seeds = 3_000
	}
	var specs []Spec
	families := map[Family]int{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		if sp := Generate(seed); sp.Family != FamTraffic {
			specs = append(specs, sp)
			families[sp.Family]++
		}
	}
	for _, f := range nonTraffic() {
		if families[f] == 0 {
			t.Fatalf("no %s spec among the first %d seeds", f, seeds)
		}
	}
	var m materialiser
	check := func(pass string, sp Spec) {
		t.Helper()
		if sp.isDeal() {
			got, err := m.dealConfig(&sp)
			want, wantErr := sp.DealConfig()
			if err != nil || wantErr != nil || !sameNetwork(got.Network, want.Network) {
				t.Fatalf("%s: %s: errors %v and %v, networks %+v and %+v", pass, sp.Describe(), err, wantErr, got.Network, want.Network)
			}
			got.Network, want.Network = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s: the standing materialiser's deal configuration\n%+v\n%s\na new one's\n%+v\n%s", pass, sp.Describe(), got, got.Deal, want, want.Deal)
			}
			return
		}
		got, err := m.scenario(&sp)
		want, wantErr := sp.Scenario()
		if err != nil || wantErr != nil || !sameNetwork(got.Network, want.Network) {
			t.Fatalf("%s: %s: errors %v and %v, networks %+v and %+v", pass, sp.Describe(), err, wantErr, got.Network, want.Network)
		}
		got.Network, want.Network = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s: the standing materialiser's scenario\n%+v\na new one's\n%+v", pass, sp.Describe(), got, want)
		}
		gotProtos, err := m.protocols(&sp)
		wantProtos, wantErr := sp.Protocols()
		if err != nil || wantErr != nil || !reflect.DeepEqual(gotProtos, wantProtos) {
			t.Fatalf("%s: %s: errors %v and %v, protocols %+v and %+v", pass, sp.Describe(), err, wantErr, gotProtos, wantProtos)
		}
		for i, p := range gotProtos {
			if p.Name() != wantProtos[i].Name() || p.Guarantee() != wantProtos[i].Guarantee() {
				t.Fatalf("%s: %s: protocol %d is %s, a new materialiser's %s", pass, sp.Describe(), i, p.Name(), wantProtos[i].Name())
			}
		}
	}
	for _, sp := range specs {
		check("in seed order", sp)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		check("reversed", specs[i])
	}
	byLength := slices.Clone(specs)
	slices.SortStableFunc(byLength, func(a, b Spec) int { return a.N - b.N })
	for lo, hi := 0, len(byLength)-1; lo < hi; lo, hi = lo+1, hi-1 {
		check("long after short", byLength[hi])
		check("short after long", byLength[lo])
	}
	t.Logf("%d specs materialised in three orders", len(specs))
}
