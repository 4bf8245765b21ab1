package scenariogen

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/sim"
)

// NewSpec materialises core.NewScenario's scenario, but for the key seed
// every spec runs under.
func TestNewSpecIsNewScenario(t *testing.T) {
	for _, f := range AllFamilies() {
		if !f.SinglePayment() {
			continue
		}
		for n := 1; n <= 4; n++ {
			for seed := int64(1); seed <= 3; seed++ {
				got, err := NewSpec(f, n, seed).Scenario()
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", f, n, seed, err)
				}
				want := core.NewScenario(n, seed)
				if *got.Network.(*netsim.Synchronous) != want.Network.(netsim.Synchronous) {
					t.Errorf("n=%d seed=%d: network %v, want %v", n, seed, got.Network, want.Network)
				}
				got.Network, want.Network, want.KeySeed = nil, nil, campaignKeySeed
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d seed=%d: scenario %+v, want %+v", n, seed, got, want)
				}
			}
		}
	}
}

// scanParticipant is participant as the scan over the topology's IDs that
// RoleOf was: the reference the parsing participant must agree with.
func scanParticipant(sp Spec, id string) bool {
	if sp.isDeal() {
		k, err := strconv.Atoi(strings.TrimPrefix(id, "p"))
		return err == nil && 0 <= k && k < sp.N && id == "p"+strconv.Itoa(k)
	}
	topo := core.NewTopology(sp.N)
	switch id {
	case topo.Alice(), topo.Bob():
		return true
	case core.ManagerID:
		return sp.isWeaklive()
	}
	for i := 0; i < sp.N; i++ {
		if id == core.CustomerID(i) || id == core.EscrowID(i) {
			return true
		}
	}
	if k, err := strconv.Atoi(strings.TrimPrefix(id, "notary")); err == nil && k >= 0 && id == core.NotaryID(k) {
		return sp.Family == FamCommittee && k < sp.committeeSize()
	}
	return false
}

// TestParticipantMatchesScan: parsing an ID names the participants the scan
// names, for every family, chain length and committee size, on every c, e,
// p and notary ID up to twice MaxChain and on IDs that only look like one.
func TestParticipantMatchesScan(t *testing.T) {
	ids := []string{
		"", "c", "e", "p", "c01", "c-1", "c1x", "notary", "notary00", "p01", "p-0",
		"manager2", core.ManagerID, "c١", "p１", "notary9223372036854775808",
	}
	for k := 0; k <= 2*core.MaxChain; k++ {
		for _, prefix := range []string{"c", "e", "p", "notary"} {
			ids = append(ids, prefix+strconv.Itoa(k))
		}
	}
	for _, f := range AllFamilies() {
		sizes := []int{0}
		if f == FamCommittee {
			sizes = append(sizes, 1, 4, core.MaxChain)
		}
		for n := 1; n <= core.MaxChain; n++ {
			for _, size := range sizes {
				sp := Spec{Family: f, N: n, CommitteeSize: size}
				for _, id := range ids {
					if got, want := sp.participant(id), scanParticipant(sp, id); got != want {
						t.Fatalf("%s n=%d committee %d: participant(%q) = %v, the scan gives %v", f, n, size, id, got, want)
					}
				}
			}
		}
	}
}

// Every refusal names the JSON field at fault and keeps the package's prefix.
func TestValidateNamesTheField(t *testing.T) {
	for field, mutate := range map[string]func(*Spec){
		"family":        func(sp *Spec) { sp.Family = "nope" },
		"n":             func(sp *Spec) { sp.N = core.MaxChain + 1 },
		"committeeSize": func(sp *Spec) { sp.CommitteeSize = -1 },
		"net.gst":       func(sp *Spec) { sp.Net.GST = sim.Time(maxSpan) + 1 },
		"patienceFloor": func(sp *Spec) { sp.PatienceFloor = -1 },
		"faults":        func(sp *Spec) { sp.Faults = map[string]string{"notary0": "silent"} },
		"patience":      func(sp *Spec) { sp.Patience = map[string]sim.Time{"c0": -1} },
		"timing.rho":    func(sp *Spec) { sp.Timing.Rho = 1 },
		"timeoutScale":  func(sp *Spec) { sp.TimeoutScale = -2 },
		"net.kind":      func(sp *Spec) { sp.Net.Kind = "carrier-pigeon" },
		"net.attack":    func(sp *Spec) { sp.Net = NetworkSpec{Kind: NetAttack, Attack: "nope"} },
		"crypto":        func(sp *Spec) { sp.Crypto = "rot13" },
		"traffic":       func(sp *Spec) { sp.Family = FamTraffic },
	} {
		sp := NewSpec(FamTimelock, 3, 1)
		mutate(&sp)
		err := sp.Validate()
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != field || !strings.HasPrefix(err.Error(), "scenariogen: ") {
			t.Errorf("%s: Validate returned %#v", field, err)
		}
	}
}

// Validate runs on every generated scenario: a single-payment or deal spec
// that passes costs no allocation, the refusal is built only on failure. (A
// traffic spec's block adds bounds to the list, which allocates.)
func TestValidateAcceptsWithoutAllocating(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		sp := Generate(seed)
		if sp.Family == FamTraffic {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { _ = sp.Validate() }); n != 0 && !race.Enabled {
			t.Errorf("seed %d (%s): Validate allocated %v times", seed, sp.Family, n)
		}
	}
}

func TestParseFaults(t *testing.T) {
	for list, want := range map[string]map[string]string{
		"":                   {},
		"all-honest":         {},
		"c1=silent,e0=theft": {"c1": "silent", "e0": "theft"},
		"c9=silent":          {"c9": "silent"}, // Validate judges the chain
	} {
		if got, err := ParseFaults(list); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %v %v, want %v", list, got, err, want)
		}
	}
	for _, list := range []string{"c1", "c1=silent,", "c1=silent,c1=crash", "c1=sillent", "c99=silent"} {
		if got, err := ParseFaults(list); err == nil {
			t.Errorf("%q parsed as %v, want an error", list, got)
		}
	}
}

// The audit judges every assignment under every seed with the a-priori bound,
// and refuses, without judging it, an assignment outside Theorem 1's model.
func TestAuditTheorem1(t *testing.T) {
	topo := core.NewTopology(2)
	assignments := adversary.SingleFaultAssignments(topo)
	sum := check.NewSummary()
	if errs := AuditTheorem1(sum, 2, assignments, 2); len(errs) != 0 {
		t.Fatal(errs)
	}
	if sum.Total != 2*len(assignments) || !sum.Clean() || sum.Applicable[core.PropTermination] == 0 {
		t.Fatalf("audit of %d assignments: %+v", len(assignments), sum)
	}
	outside := adversary.Assignment{core.ManagerID: adversary.Silent}
	sum = check.NewSummary()
	if errs := AuditTheorem1(sum, 2, []adversary.Assignment{outside}, 1); len(errs) != 1 || sum.Total != 0 {
		t.Errorf("manager fault: errors %v, %d runs judged", errs, sum.Total)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Seeds: 1, Crypto: "hmac", Families: AllFamilies()}).Validate(); err != nil {
		t.Fatal(err)
	}
	for option, opts := range map[string]Options{
		"seeds":    {},
		"workers":  {Seeds: 1, Workers: -1},
		"crypto":   {Seeds: 1, Crypto: "rot13"},
		"families": {Seeds: 1, Families: []Family{"nope"}},
	} {
		if err := opts.Validate(); err == nil || !strings.HasPrefix(err.Error(), option+": ") {
			t.Errorf("%+v: %v, want a refusal naming %s", opts, err, option)
		}
	}
}

// TestGuaranteeMatchesEngines: the family -> Guarantee mapping the oracle and
// Class read is what the engines a spec materialises state, for every family
// and committee size, and the zero Guarantee where there is no engine.
func TestGuaranteeMatchesEngines(t *testing.T) {
	for _, f := range AllFamilies() {
		for _, size := range []int{0, 1, 4, 7} {
			sp := Spec{Family: f, CommitteeSize: size}
			var want core.Guarantee
			if engines := new(materialiser).engines(&sp); engines != nil {
				want = engines[0].Guarantee()
				for _, e := range engines[1:] {
					if e.Guarantee() != want {
						t.Fatalf("%s: engines state %v and %v", f, want, e.Guarantee())
					}
				}
			}
			if got := sp.guarantee(); got != want {
				t.Errorf("%s committee %d: guarantee %+v, its engines state %+v", f, size, got, want)
			}
		}
	}
}
