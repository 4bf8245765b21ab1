package xchainpay

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/scenariogen"
)

// FuzzScenarioInvariants is the native-fuzzing entry point of the
// property-based scenario harness: each input seed expands to a full random
// scenario (chain, amounts, timing, schedule, faults, patience, protocol)
// which is executed and judged by the theorem-shaped oracles of
// internal/scenariogen. Conforming scenarios may violate no owed property;
// envelope-violating ones must keep safety. Run with `go test -fuzz
// FuzzScenarioInvariants` to search beyond the seeded corpus.
func FuzzScenarioInvariants(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sp := scenariogen.Generate(seed)
		out := scenariogen.Run(sp)
		for _, v := range out.Violations {
			t.Errorf("seed %d (%s, class %s): %s", seed, sp.Describe(), out.Class, v)
		}
	})
}

// FuzzScenarioSpecRoundTrip asserts that every generated scenario survives a
// JSON round trip unchanged and keeps its class — the property that makes
// replay files trustworthy: what the fuzzer saw is exactly what a replay
// re-executes.
func FuzzScenarioSpecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sp := scenariogen.Generate(seed)
		if err := sp.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid spec: %v", seed, err)
		}
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var back scenariogen.Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Fatalf("seed %d: spec changed across JSON round trip:\n%s\nvs\n%s", seed, sp.MarshalIndent(), back.MarshalIndent())
		}
		if sp.Class() != back.Class() {
			t.Fatalf("seed %d: class changed across round trip: %s vs %s", seed, sp.Class(), back.Class())
		}
	})
}
