package adversary

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestSpecHonestIsZero(t *testing.T) {
	if Spec(Honest, core.DefaultTiming()).IsByzantine() {
		t.Fatal("honest behaviour produced a Byzantine fault spec")
	}
}

func TestSpecEveryBehaviourDistinctAndByzantine(t *testing.T) {
	timing := core.DefaultTiming()
	seen := map[core.FaultSpec]Behaviour{}
	for _, b := range AllBehaviours() {
		if b == Honest {
			continue
		}
		spec := Spec(b, timing)
		if !spec.IsByzantine() {
			t.Errorf("behaviour %s maps to the honest spec", b)
		}
		if prev, dup := seen[spec]; dup {
			t.Errorf("behaviours %s and %s map to the same fault spec", b, prev)
		}
		seen[spec] = b
	}
}

func TestApplyDoesNotMutateOriginal(t *testing.T) {
	s := core.NewScenario(3, 1)
	a := Assignment{"c1": Silent}
	s2 := a.Apply(s)
	if len(s.Faults) != 0 {
		t.Fatal("Apply mutated the original scenario's fault map")
	}
	if !s2.FaultOf("c1").Silent {
		t.Fatal("Apply did not install the fault")
	}
}

func TestApplySkipsHonest(t *testing.T) {
	s := core.NewScenario(2, 1)
	s2 := Assignment{"c0": Honest, "c1": Withhold}.Apply(s)
	if s2.FaultOf("c0").IsByzantine() {
		t.Error("honest entry produced a fault")
	}
	if !s2.FaultOf("c1").WithholdCertificate {
		t.Error("withhold entry not applied")
	}
}

func TestDescribe(t *testing.T) {
	if got := (Assignment{}).Describe(); got != "all-honest" {
		t.Errorf("empty assignment described as %q", got)
	}
	if got := (Assignment{"c0": Honest}).Describe(); got != "all-honest" {
		t.Errorf("all-honest assignment described as %q", got)
	}
	got := Assignment{"c1": Silent, "e0": Theft}.Describe()
	if got != "c1=silent,e0=theft" {
		t.Errorf("unexpected description %q", got)
	}
}

// ParseAssignment inverts Describe on every enumerated assignment, and the
// parsed assignment installs exactly the faults the string names.
func TestParseAssignmentInvertsDescribe(t *testing.T) {
	topo := core.NewTopology(3)
	all := append(SingleFaultAssignments(topo), PairFaultAssignments(topo)...)
	all = append(all, Assignment{core.ManagerID: Silent, core.NotaryID(2): Equivocation})
	for _, want := range all {
		got, err := ParseAssignment(want.Describe(), topo)
		if err != nil {
			t.Fatalf("%s: %v", want.Describe(), err)
		}
		if got.Describe() != want.Describe() || len(got) != len(want) {
			t.Errorf("parsed %q back as %q", want.Describe(), got.Describe())
		}
	}
	s := core.NewScenario(3, 1)
	a, err := ParseAssignment("e0=theft,c1=silent,notary1=crash", s.Topology)
	if err != nil {
		t.Fatal(err)
	}
	want := s.SetFault("e0", Spec(Theft, s.Timing)).SetFault("c1", Spec(Silent, s.Timing)).SetFault("notary1", Spec(Crash, s.Timing))
	if got := a.Apply(s); !reflect.DeepEqual(got.Faults, want.Faults) {
		t.Errorf("applied faults %v, want %v", got.Faults, want.Faults)
	}
}

// A typo must never run as an honest scenario.
func TestParseAssignmentFailsClosed(t *testing.T) {
	topo := core.NewTopology(3)
	for _, spec := range []string{
		"c1", "c1=", "=silent", "c1=sillent", "c1=Silent", "c1=silent,",
		"c4=silent", "e3=theft", "c77=silent", "x=silent", "Manager=silent",
		"notary=silent", "notaryX=silent", "notary-1=silent", "notary01=silent", "notary1x=silent",
		"c1=silent,c1=crash", " c1=silent",
	} {
		if a, err := ParseAssignment(spec, topo); err == nil {
			t.Errorf("%q parsed as %v, want an error", spec, a)
		}
	}
	for _, spec := range []string{"", "all-honest", "c0=honest", "c3=forge,e2=equivocate,manager=crash-at-start,notary12=silent"} {
		if _, err := ParseAssignment(spec, topo); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
	}
}

func TestSingleFaultAssignmentsCoverage(t *testing.T) {
	topo := core.NewTopology(3)
	all := SingleFaultAssignments(topo)
	if len(all) == 0 || len(all[0]) != 0 {
		t.Fatal("first assignment must be all-honest")
	}
	want := 1 + len(topo.Customers())*len(CustomerBehaviours()) + len(topo.Escrows())*len(EscrowBehaviours())
	if len(all) != want {
		t.Fatalf("expected %d assignments, got %d", want, len(all))
	}
	// Every participant must appear at least once as the faulty one.
	seen := map[string]bool{}
	for _, a := range all {
		for id := range a {
			seen[id] = true
		}
	}
	for _, id := range topo.Participants() {
		if !seen[id] {
			t.Errorf("participant %s never corrupted", id)
		}
	}
}

func TestPairFaultAssignments(t *testing.T) {
	topo := core.NewTopology(2)
	pairs := PairFaultAssignments(topo)
	if len(pairs) == 0 {
		t.Fatal("no pair assignments generated")
	}
	for _, a := range pairs {
		if len(a) != 2 {
			t.Fatalf("pair assignment has %d entries: %v", len(a), a)
		}
	}
}
