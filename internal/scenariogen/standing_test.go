package scenariogen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
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
// to Run's on worlds of its own; and a campaign's Stats do not depend on how
// many workers (hence pairs) it ran on. CI runs it under the race detector
// at GOMAXPROCS=4: a world belongs to one worker.
func TestFuzzStandingWorldEquivalence(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	var specs []Spec
	families := map[Family]int{}
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

// fuzzAllocBudget is the allocations one scenario of the hmac campaign may
// cost on warm standing worlds, generation and oracle included. Measured at
// 228 when the protocol processes, their messages and the signatures moved
// onto the worlds (240 under the race detector; 258 before), plus 10 %; what
// is left is mostly the ANTA automata, per-scenario key derivation, the
// notary committees and the recorded trace's labels. A change that brings
// back a per-scenario engine, trace, network, book, keyring or process slice
// fails here, on any machine.
const fuzzAllocBudget = 250

// TestFuzzScenarioAllocs pins what standing worlds buy by a number no
// machine's speed moves.
func TestFuzzScenarioAllocs(t *testing.T) {
	const start, seeds = 300_000, 500
	ws := &worlds{}
	scenarios := 0
	block := func() {
		scenarios = 0
		for seed := int64(start); seed < start+seeds; seed++ {
			sp := Generate(seed)
			if sp.Family == FamTraffic {
				continue
			}
			sp.Crypto = "hmac"
			if out := runOn(sp, ws); !out.OK() {
				t.Fatalf("seed %d: %v", seed, out.Violations)
			}
			scenarios++
		}
	}
	block() // let the worlds' storage grow and the key cache fill
	n := testing.AllocsPerRun(3, block) / float64(scenarios)
	t.Logf("one scenario of seeds %d..%d on standing worlds: %.1f allocations", start, start+seeds-1, n)
	if n > fuzzAllocBudget {
		t.Fatalf("a fuzzed scenario allocates %.1f times, budget %d", n, fuzzAllocBudget)
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
