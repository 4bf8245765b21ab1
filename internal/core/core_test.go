package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestTopology(t *testing.T) {
	topo := NewTopology(3)
	if topo.Alice() != "c0" || topo.Bob() != "c3" {
		t.Fatal("endpoints wrong")
	}
	if got := topo.Customers(); len(got) != 4 || got[1] != "c1" {
		t.Fatalf("customers %v", got)
	}
	if got := topo.Connectors(); len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("connectors %v", got)
	}
	if got := topo.Escrows(); len(got) != 3 || got[2] != "e2" {
		t.Fatalf("escrows %v", got)
	}
	if got := topo.Participants(); len(got) != 7 {
		t.Fatalf("participants %v", got)
	}
	if topo.UpstreamCustomer(1) != "c1" || topo.DownstreamCustomer(1) != "c2" {
		t.Fatal("escrow neighbours wrong")
	}
	if up, ok := topo.UpstreamEscrow(0); ok {
		t.Fatalf("Alice has an upstream escrow %s", up)
	}
	if down, ok := topo.DownstreamEscrow(3); ok {
		t.Fatalf("Bob has a downstream escrow %s", down)
	}
	if e, ok := topo.UpstreamEscrow(2); !ok || e != "e1" {
		t.Fatalf("upstream escrow of c2 = %s", e)
	}
	if e, ok := topo.DownstreamEscrow(2); !ok || e != "e2" {
		t.Fatalf("downstream escrow of c2 = %s", e)
	}
}

func TestRoleOf(t *testing.T) {
	topo := NewTopology(2)
	cases := map[string]Role{
		"c0": RoleAlice, "c1": RoleConnector, "c2": RoleBob,
		"e0": RoleEscrow, "e1": RoleEscrow,
		ManagerID: RoleManager, "notary3": RoleNotary,
	}
	for id, want := range cases {
		if got := topo.RoleOf(id); got != want {
			t.Errorf("RoleOf(%s) = %s, want %s", id, got, want)
		}
	}
	if topo.RoleOf("stranger") != "" {
		t.Error("unknown id classified")
	}
}

func TestTopologyPanicsOnZeroEscrows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopology(0) did not panic")
		}
	}()
	NewTopology(0)
}

func TestPaymentSpec(t *testing.T) {
	topo := NewTopology(3)
	spec := NewPaymentSpec("p", topo, 1000, 10)
	if spec.AlicePays() != 1020 || spec.BobReceives() != 1000 {
		t.Fatalf("amounts %v", spec.Amounts)
	}
	if spec.Commission(1) != 10 || spec.Commission(2) != 10 {
		t.Fatal("commissions wrong")
	}
	if spec.AmountVia(1) != 1010 {
		t.Fatal("AmountVia wrong")
	}
	if err := spec.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if err := (PaymentSpec{Amounts: []int64{1}}).Validate(topo); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := (PaymentSpec{Amounts: []int64{1, 0, 1}}).Validate(topo); err == nil {
		t.Fatal("non-positive amount not rejected")
	}
}

func TestScenarioBuilders(t *testing.T) {
	s := NewScenario(3, 9)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || s.Topology.N != 3 {
		t.Fatal("scenario basics wrong")
	}
	s2 := s.SetFault("c1", FaultSpec{Silent: true}).SetPatience("c2", 5*sim.Second).Muted().WithSeed(11)
	if s.Faults != nil || s.Patience != nil {
		t.Fatal("builders mutated the original scenario")
	}
	if !s2.FaultOf("c1").Silent || s2.PatienceOf("c2") != 5*sim.Second || !s2.MuteTrace || s2.Seed != 11 {
		t.Fatal("builders lost a field")
	}
	s3 := s.WithNetwork(netsim.Adversarial{}).WithTiming(Timing{MaxMsgDelay: 1})
	if s3.Network.Name() != "adversarial" || s3.Timing.MaxMsgDelay != 1 {
		t.Fatal("WithNetwork/WithTiming wrong")
	}
}

func TestScenarioValidation(t *testing.T) {
	s := NewScenario(2, 1)
	s.Network = nil
	if err := s.Validate(); err == nil {
		t.Fatal("missing network not rejected")
	}
	s = NewScenario(2, 1)
	s.InitialBalance = 1
	if err := s.Validate(); err == nil {
		t.Fatal("underfunded Alice not rejected")
	}
	s = NewScenario(2, 1)
	s.Topology = Topology{}
	if err := s.Validate(); err == nil {
		t.Fatal("empty topology not rejected")
	}
}

func TestFaultSpec(t *testing.T) {
	if (FaultSpec{}).IsByzantine() {
		t.Fatal("zero fault spec reported Byzantine")
	}
	if !(FaultSpec{Silent: true}).IsByzantine() {
		t.Fatal("silent fault not Byzantine")
	}
}

func TestRunResultHelpers(t *testing.T) {
	s := NewScenario(2, 1).SetFault("c1", FaultSpec{Silent: true}).SetFault("e0", FaultSpec{StealEscrow: true})
	res := &RunResult{Scenario: &s, Customers: map[string]CustomerOutcome{
		"c0": {WealthBefore: 10, WealthAfter: 4},
	}}
	if res.AllHonest() {
		t.Fatal("AllHonest true despite faults")
	}
	if got := res.HonestCustomers(); len(got) != 2 || got[0] != "c0" || got[1] != "c2" {
		t.Fatalf("honest customers %v", got)
	}
	if res.Outcome("c0").NetWealthChange() != -6 {
		t.Fatal("NetWealthChange wrong")
	}
	honest := NewScenario(1, 1)
	if (&RunResult{Scenario: &honest}).AllHonest() == false {
		t.Fatal("fault-free scenario not AllHonest")
	}
}

func TestProperties(t *testing.T) {
	all := AllProperties()
	if len(all) != 10 {
		t.Fatalf("expected 10 properties, got %d", len(all))
	}
	seen := map[Property]bool{}
	for _, p := range all {
		if seen[p] {
			t.Fatalf("duplicate property %s", p)
		}
		seen[p] = true
		if p.Describe() == "" || p.Describe() == string(p) {
			t.Errorf("property %s has no description", p)
		}
	}
	if Property("XX").Describe() != "XX" {
		t.Error("unknown property description should echo the name")
	}
}

func TestDefaultTiming(t *testing.T) {
	timing := DefaultTiming()
	if timing.MaxMsgDelay <= 0 || timing.MaxProcessing <= 0 || timing.Clock.MaxRho <= 0 {
		t.Fatalf("incomplete default timing %+v", timing)
	}
}

// Property: for any chain length and commission, the payment spec is
// internally consistent — amounts strictly decrease along the chain by
// exactly the commission, and Alice pays Bob's amount plus all commissions.
func TestPropertyPaymentSpecConsistent(t *testing.T) {
	f := func(nRaw, baseRaw, commissionRaw uint8) bool {
		n := int(nRaw)%8 + 1
		base := int64(baseRaw) + 1
		commission := int64(commissionRaw) % 50
		topo := NewTopology(n)
		spec := NewPaymentSpec("p", topo, base, commission)
		if spec.Validate(topo) != nil {
			return false
		}
		if spec.BobReceives() != base {
			return false
		}
		if spec.AlicePays() != base+int64(n-1)*commission {
			return false
		}
		for i := 1; i < n; i++ {
			if spec.Commission(i) != commission {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIDsInterned pins the ID tables: the canonical spellings, on both
// sides of the table's edge, and — the allocation gate — that asking for an
// interned ID allocates nothing, so a protocol run can ask as often as it
// likes.
func TestIDsInterned(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, idTableSize - 1, idTableSize, idTableSize + 12345, -1} {
		if got, want := CustomerID(i), fmt.Sprintf("c%d", i); got != want {
			t.Errorf("CustomerID(%d) = %q, want %q", i, got, want)
		}
		if got, want := EscrowID(i), fmt.Sprintf("e%d", i); got != want {
			t.Errorf("EscrowID(%d) = %q, want %q", i, got, want)
		}
		if got, want := NotaryID(i), fmt.Sprintf("notary%d", i); got != want {
			t.Errorf("NotaryID(%d) = %q, want %q", i, got, want)
		}
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			sink = CustomerID(i)
			sink = EscrowID(i)
			sink = NotaryID(i)
		}
	}); n != 0 {
		t.Fatalf("interned ID lookups allocate %v times, want 0", n)
	}
	_ = sink
	if got := NewTopology(3).Participants(); strings.Join(got, " ") != "c0 c1 c2 c3 e0 e1 e2" {
		t.Fatalf("Participants() = %v", got)
	}
}

// TestLockIDs: a world's lock IDs read "<payment>/e<i>" whatever it ran
// before — a longer chain, a longer payment ID — and a run's IDs cost one
// allocation however many escrows ask.
func TestLockIDs(t *testing.T) {
	w := NewWorld()
	for _, n := range []int{3, 12, 1, 300, 2} {
		s := NewScenario(n, int64(n))
		if err := w.Reset(&s); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{n - 1, 0, n / 2} {
			if got, want := w.LockID(i), s.Spec.PaymentID+"/"+EscrowID(i); got != want {
				t.Fatalf("chain of %d: LockID(%d) = %q, want %q", n, i, got, want)
			}
		}
	}
	s := NewScenario(8, 1).Muted()
	allocs := testing.AllocsPerRun(100, func() {
		w.ResetSubstrate(s.Seed, s.Network, true, nil)
		w.scn = s
		for i := 0; i < 8; i++ {
			w.LockID(i)
		}
	})
	if allocs != 1 {
		t.Fatalf("a run's eight lock IDs allocate %.0f times, want 1", allocs)
	}
}
