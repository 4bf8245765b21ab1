package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/race"
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

// scanRoleOf is RoleOf as a scan over the topology's IDs: the reference
// the parsing RoleOf must agree with.
func scanRoleOf(t Topology, id string) Role {
	switch id {
	case t.Alice():
		return RoleAlice
	case t.Bob():
		return RoleBob
	case ManagerID:
		return RoleManager
	}
	for i := 1; i < t.N; i++ {
		if id == CustomerID(i) {
			return RoleConnector
		}
	}
	for i := 0; i < t.N; i++ {
		if id == EscrowID(i) {
			return RoleEscrow
		}
	}
	if k, err := strconv.Atoi(strings.TrimPrefix(id, "notary")); err == nil && k >= 0 && id == NotaryID(k) {
		return RoleNotary
	}
	return ""
}

// roleProbeIDs are every c, e, p and notary ID up to twice MaxChain, the
// manager, and IDs that only look like one.
func roleProbeIDs() []string {
	ids := []string{
		"", "c", "e", "p", "c01", "c-1", "c+1", "c1x", " c1", "C1", "notary", "notary00", "notary-0",
		"p01", "manager2", "Manager", "manager ", ManagerID, "c١", "e１", "notary٠",
		"notary9223372036854775807", "notary9223372036854775808", "c99999999999999999999",
	}
	for k := 0; k <= 2*MaxChain; k++ {
		for _, prefix := range []string{"c", "e", "p", "notary"} {
			ids = append(ids, prefix+strconv.Itoa(k))
		}
	}
	return ids
}

// TestRoleOfMatchesScan: parsing an ID gives the role the scan over the
// topology's IDs gives, for every probe ID at every chain length.
func TestRoleOfMatchesScan(t *testing.T) {
	for n := 1; n <= MaxChain; n++ {
		topo := NewTopology(n)
		for _, id := range roleProbeIDs() {
			if got, want := topo.RoleOf(id), scanRoleOf(topo, id); got != want {
				t.Fatalf("n=%d: RoleOf(%q) = %q, the scan gives %q", n, id, got, want)
			}
		}
	}
}

// TestWorldResolvesByName: whatever the scenario's fault and patience maps
// name — chain participants, the manager, notaries, names one past the chain,
// names that only look like a participant's — a world's tables hold, PID by
// PID, what the maps hold under the participant's name.
func TestWorldResolvesByName(t *testing.T) {
	w := NewWorld()
	for n := 1; n <= 4; n++ {
		s := NewScenario(n, 1)
		s.Faults, s.Patience = map[string]FaultSpec{}, map[string]sim.Time{}
		for k, id := range roleProbeIDs() {
			if k%3 != 0 {
				s.Faults[id] = FaultSpec{DelayActions: sim.Time(k + 1)}
			}
			if k%2 != 0 {
				s.Patience[id] = sim.Time(k + 1)
			}
		}
		if err := w.Reset(&s); err != nil {
			t.Fatal(err)
		}
		w.Join(NotaryID(0))
		for pid := PID(0); w.Name(pid) != ""; pid++ {
			id := w.Name(pid)
			if got, want := w.FaultOf(pid), s.FaultOf(id); got != want || w.Byzantine(pid) != want.IsByzantine() {
				t.Errorf("n=%d: %s's fault %+v, the map holds %+v", n, id, got, want)
			}
			if got, want := w.PatienceOf(pid), s.PatienceOf(id); got != want {
				t.Errorf("n=%d: %s's patience %v, the map holds %v", n, id, got, want)
			}
		}
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
	res := &RunResult{Scenario: &s, Customers: []CustomerOutcome{
		{ID: "c0", WealthBefore: 10, WealthAfter: 4},
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

// TestCollectedAuditAndHonesty: a collected result answers AllHonest and
// Audit as one built by hand does — AllHonest from every fault of the
// scenario, a notary's that no chain PID holds included, and Audit as
// Book.AuditAll, from the escrows' own audits while the book holds just
// their ledgers and anew once it holds another.
func TestCollectedAuditAndHonesty(t *testing.T) {
	w := NewWorld()
	collect := func(s Scenario) *RunResult {
		t.Helper()
		if err := w.Reset(&s); err != nil {
			t.Fatal(err)
		}
		return w.Collect("collected", 0, func(int, *CustomerOutcome) {})
	}
	for _, s := range []Scenario{
		NewScenario(2, 1).Muted(),
		NewScenario(2, 1).Muted().SetFault("e1", FaultSpec{Silent: true}),
		NewScenario(2, 1).Muted().SetFault(NotaryID(1), FaultSpec{Silent: true}),
	} {
		res := collect(s)
		if want := (&RunResult{Scenario: &s}).AllHonest(); res.AllHonest() != want {
			t.Errorf("faults %v: collected AllHonest %v, want %v", s.Faults, res.AllHonest(), want)
		}
		if err := res.Audit(); err != nil {
			t.Errorf("faults %v: clean book audits %v", s.Faults, err)
		}
	}
	w.Book.Add(ledger.FromState(ledger.LedgerState{Name: "a-side", Minted: 7,
		Accounts: []ledger.AccountState{{Owner: "c0", Balance: 5}}}))
	res := collect(NewScenario(2, 1).Muted())
	if got, want := res.Audit(), w.Book.AuditAll(); got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("a book holding another ledger audits %v, Book.AuditAll %v", got, want)
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

// TestLockIDs: a payment's lock on a world's escrow e_i reads
// "<payment>/e<i>" — through its handle, the ledger and the op log — whatever
// the world ran before (a longer chain, a longer payment ID), and a run that
// escrows and settles its locks without reading them renders no ID.
func TestLockIDs(t *testing.T) {
	w := NewWorld()
	for _, n := range []int{3, 12, 1, 300, 2} {
		s := NewScenario(n, int64(n))
		if err := w.Reset(&s); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{n - 1, 0, n / 2} {
			led := w.Ledger(i)
			if len(led.Locks()) > 0 {
				continue // n/2 or 0 is n-1
			}
			h, err := led.EscrowHop(0, s.Spec.PaymentID, i, w.CustomerPID(i), w.CustomerPID(i+1), s.Spec.AmountVia(i), ledger.Condition{})
			if err != nil {
				t.Fatal(err)
			}
			want := s.Spec.PaymentID + "/" + EscrowID(i)
			if got := h.ID(); got != want {
				t.Fatalf("chain of %d: lock on e%d reads %q, want %q", n, i, got, want)
			}
			if _, ok := led.Lock(want); !ok {
				t.Fatalf("chain of %d: e%d holds no lock %q", n, i, want)
			}
			if ops := led.Ops(); ops[len(ops)-1].LockID() != want {
				t.Fatalf("chain of %d: e%d logs lock %q, want %q", n, i, ops[len(ops)-1].LockID(), want)
			}
		}
	}
	s := NewScenario(8, 1).Muted()
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.Reset(&s); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			h, _ := w.Ledger(i).EscrowHop(0, s.Spec.PaymentID, i, w.CustomerPID(i), w.CustomerPID(i+1), s.Spec.AmountVia(i), ledger.Condition{})
			if err := w.Ledger(i).ReleaseLock(1, h, nil, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a run's eight locks allocate %.0f times, want 0", allocs)
	}
}

// TestIDBlockCutsStableStrings: every string an IDBlock cuts reads what it
// was cut from after thousands more (a block is never written over), and a
// campaign's worth of payment IDs costs a handful of blocks.
func TestIDBlockCutsStableStrings(t *testing.T) {
	var k IDBlock
	var ids []string
	var buf [48]byte
	for seed := int64(0); seed < 5000; seed++ {
		ids = append(ids, k.Cut(AppendPaymentID(buf[:0], int(seed%7)+1, seed)))
	}
	long := k.Cut(make([]byte, 5000)) // longer than any block
	for seed, id := range ids {
		if want := PaymentID(seed%7+1, int64(seed)); id != want {
			t.Fatalf("ID %d reads %q, want %q", seed, id, want)
		}
	}
	if len(long) != 5000 {
		t.Fatalf("a 5000-byte string was cut to %d bytes", len(long))
	}
	if race.Enabled {
		return // the detector allocates
	}
	allocs := testing.AllocsPerRun(1, func() {
		var k IDBlock
		for seed := int64(0); seed < 1000; seed++ {
			k.Cut(AppendPaymentID(buf[:0], 3, 300_000+seed))
		}
	})
	if allocs > 10 { // 64 B doubling to 4 KiB, then 4 KiB blocks: 7 + 3
		t.Fatalf("1000 payment IDs took %v allocations, want at most 10", allocs)
	}
}

// BenchmarkWorldReset times what a traffic worker does on its standing world
// before an open payment runs: Reset to an n=2 hmac sub-scenario under the
// payment's own seed, whose clock drifts and offsets are its first draws,
// and the keyring under the population's one key seed. The hit restores the
// world's stamp; the miss, a chain-length switch under another key seed
// every time, sets up and stamps anew, as the fuzz kernel does for nearly
// every scenario and a RandomSubPaths traffic worker for most payments.
func BenchmarkWorldReset(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		w := NewWorld()
		s := NewScenario(2, 1).WithCrypto("hmac")
		s.KeySeed = "traffic-keys"
		s.MuteTrace = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Seed = int64(i)
			if err := w.Reset(&s); err != nil {
				b.Fatal(err)
			}
			w.Keyring()
		}
	})
	b.Run("miss", func(b *testing.B) {
		w := NewWorld()
		var shapes [2]Scenario
		for n := range shapes {
			shapes[n] = NewScenario(n+2, 1).WithCrypto("hmac")
			shapes[n].MuteTrace = true
		}
		var seeds [64]string
		for k := range seeds {
			seeds[k] = fmt.Sprintf("scenario-keys-%d", k)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &shapes[i%2]
			s.Seed, s.KeySeed = int64(i), seeds[i%len(seeds)]
			if err := w.Reset(s); err != nil {
				b.Fatal(err)
			}
			w.Keyring()
		}
	})
}
