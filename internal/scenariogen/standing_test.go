package scenariogen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

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

// TestFuzzStandingWorldEquivalence is the oracle of the fuzzer's standing
// worlds: the Outcome of a scenario judged on a pair of worlds that has
// judged anything before — in seed order and in a shuffled order, so every
// family follows every other, on alternating backends — is JSON-byte-equal
// to Run's on worlds of its own; the spec a standing generator draws for a
// seed, whatever it drew before, is Generate's; and a campaign's Stats do not
// depend on how many workers (hence pairs and generators) it ran on. CI runs
// it under the race detector at GOMAXPROCS=4: a world belongs to one worker.
func TestFuzzStandingWorldEquivalence(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	var specs []Spec
	families := map[Family]int{}
	rng := sim.NewRand(0)
	for _, seed := range rand.New(rand.NewSource(21)).Perm(seeds) {
		if got, want := generate(rng, int64(seed)), Generate(int64(seed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the standing generator drew\n%s\nGenerate\n%s", seed, got.MarshalIndent(), want.MarshalIndent())
		}
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		sp := Generate(seed)
		if sp.Family == FamTraffic {
			continue
		}
		sp.Crypto = []string{"hmac", "ed25519"}[seed%2]
		families[sp.Family]++
		specs = append(specs, sp)
	}
	for _, f := range nonTraffic() {
		if families[f] == 0 {
			t.Fatalf("no %s spec among the first %d seeds", f, seeds)
		}
	}
	render := func(o *Outcome) string {
		js, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	want := make([]string, len(specs))
	for i, sp := range specs {
		want[i] = render(Run(sp))
	}

	ws := &worlds{}
	compare := func(pass string, order []int) {
		for k, i := range order {
			if got := render(runOn(specs[i], ws)); got != want[i] {
				after := "new worlds"
				if k > 0 {
					after = specs[order[k-1]].Describe()
				}
				t.Fatalf("%s: %s, judged after %s, differs from its outcome on new worlds:\n--- standing\n%s\n--- new\n%s",
					pass, specs[i].Describe(), after, got, want[i])
			}
		}
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	compare("in order", order)
	rand.New(rand.NewSource(18)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	compare("shuffled", order)

	opts := Options{Seeds: seeds, Families: nonTraffic(), Crypto: "hmac", Workers: 1}
	one := Fuzz(opts).String()
	opts.Workers = 4
	if four := Fuzz(opts).String(); one != four {
		t.Fatalf("worker count changed the campaign:\n--- 1 worker\n%s--- 4 workers\n%s", one, four)
	}
	t.Logf("%d scenarios judged three times; campaign of %d seeds on 1 and 4 workers", len(specs), seeds)
}

// fuzzAllocBudget and fuzzBytesBudget are what one scenario of the hmac
// campaign may allocate, generation, oracle and aggregation included.
// Measured at 31.3 allocations and 2.5 KB (33.3 and 2.7 KB under the race
// detector) when the transaction manager moved onto the world (44 and 3.4 KB
// before, with the Figure-2 automata compiled once and standing; 124 and
// 8.8 KB before that, muted on a standing generator under one campaign key
// seed; 228 and 21 KB before that); what is left is mostly the deal runs. A
// change that brings back a per-scenario engine, trace, network, book,
// keyring, generator, process slice, automaton or committee fails here, on
// any machine.
const (
	fuzzAllocBudget = 35
	fuzzBytesBudget = 2_800
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
	t.Logf("one of %d scenarios: %.1f allocations, %.0f bytes", st.Runs, allocs, bytes)
	if allocs > fuzzAllocBudget || bytes > fuzzBytesBudget {
		t.Fatalf("a fuzzed scenario allocates %.1f times and %.0f bytes, budget %d and %d", allocs, bytes, fuzzAllocBudget, fuzzBytesBudget)
	}
}

// TestFuzzRecoversPanickingScenario: a scenario that panics becomes a finding
// that names its seed, its worlds are dropped, and the worker carries on.
func TestFuzzRecoversPanickingScenario(t *testing.T) {
	ws := &worlds{}
	sp := baseSpec(FamTimelock)
	if out := runGuarded(sp, ws, runOn); !out.OK() || ws[0] == nil {
		t.Fatalf("healthy scenario: violations %v, primary world built: %v", out.Violations, ws[0] != nil)
	}
	out := runGuarded(sp, ws, func(Spec, *worlds) *Outcome { panic("ledger exploded") })
	if len(out.Violations) != 1 || out.Violations[0].Kind != KindEngine {
		t.Fatalf("panic reported as %v, want one %s violation", out.Violations, KindEngine)
	}
	if d := out.Violations[0].Detail; !strings.Contains(d, fmt.Sprintf("seed %d", sp.Seed)) || !strings.Contains(d, "ledger exploded") {
		t.Fatalf("violation %q names neither the seed nor the panic value", d)
	}
	if out.Spec.Seed != sp.Seed || out.Class != sp.Class() {
		t.Fatalf("outcome describes %s/%s, want the panicking spec", out.Spec.Describe(), out.Class)
	}
	if ws[0] != nil || ws[1] != nil {
		t.Fatal("worlds of unknown state were kept after a panic")
	}
	if out := runGuarded(sp, ws, runOn); !out.OK() {
		t.Fatalf("scenario after a panic: %v", out.Violations)
	}
}
