// Package core defines the cross-chain payment problem exactly as the paper
// states it: the participants and their trust topology (Fig. 1), the payment
// specification, the timing models, the fault model, and the correctness
// properties of Definitions 1 and 2.
//
// Protocol packages (internal/timelock, internal/weaklive, internal/htlc,
// internal/deals) consume these definitions; the property checkers in
// internal/check evaluate the properties over run results produced here.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Role classifies a participant.
type Role string

// Participant roles. Alice (c0) originates the payment, Bob (cn) receives
// it, connectors (c1..c_{n-1}) relay it, escrows (e0..e_{n-1}) hold value
// between adjacent customers, the manager/notaries implement the transaction
// manager of the weak-liveness protocol.
const (
	RoleAlice     Role = "alice"
	RoleConnector Role = "connector"
	RoleBob       Role = "bob"
	RoleEscrow    Role = "escrow"
	RoleManager   Role = "manager"
	RoleNotary    Role = "notary"
)

// idTableSize is how many IDs of each kind are interned; chains and
// committees beyond it still work, through formatting.
const idTableSize = 256

// idTable is one kind's interned IDs: prefix0 .. prefix255.
type idTable struct {
	prefix string
	ids    [idTableSize]string
}

func newIDTable(prefix string) *idTable {
	t := &idTable{prefix: prefix}
	for i := range t.ids {
		t.ids[i] = prefix + strconv.Itoa(i)
	}
	return t
}

// id is a table lookup: protocol runs ask for the same few IDs millions of
// times, and formatting them was a sixth of a payment's cost.
func (t *idTable) id(i int) string {
	if uint(i) < idTableSize {
		return t.ids[i]
	}
	return t.prefix + strconv.Itoa(i)
}

var (
	customerIDs = newIDTable("c")
	escrowIDs   = newIDTable("e")
	notaryIDs   = newIDTable("notary")
)

// CustomerID returns the canonical ID of customer c_i.
func CustomerID(i int) string { return customerIDs.id(i) }

// EscrowID returns the canonical ID of escrow e_i.
func EscrowID(i int) string { return escrowIDs.id(i) }

// NotaryID returns the canonical ID of notary j in the manager committee.
func NotaryID(j int) string { return notaryIDs.id(j) }

// ManagerID is the logical identity of the transaction manager (single
// trusted party or committee) in the weak-liveness protocol.
const ManagerID = "manager"

// Topology is the linear chain of Fig. 1: n escrows e0..e_{n-1} and n+1
// customers c0..c_n, where customers c_{i} and c_{i+1} hold accounts at
// escrow e_i and trust it. No other trust relations exist.
type Topology struct {
	// N is the number of escrows (n >= 1). Alice is c0, Bob is c_N.
	N int
}

// NewTopology returns a topology with n escrows. It panics if n < 1, which
// is a scenario-construction bug rather than a runtime condition.
func NewTopology(n int) Topology {
	if n < 1 {
		panic("core: topology requires at least one escrow")
	}
	return Topology{N: n}
}

// Alice returns Alice's ID (c0).
func (t Topology) Alice() string { return CustomerID(0) }

// Bob returns Bob's ID (c_n).
func (t Topology) Bob() string { return CustomerID(t.N) }

// Customers returns the IDs c0..c_n in order.
func (t Topology) Customers() []string { return t.appendCustomers(make([]string, 0, t.N+1)) }

func (t Topology) appendCustomers(out []string) []string {
	for i := 0; i <= t.N; i++ {
		out = append(out, CustomerID(i))
	}
	return out
}

func (t Topology) appendEscrows(out []string) []string {
	for i := 0; i < t.N; i++ {
		out = append(out, EscrowID(i))
	}
	return out
}

// Connectors returns the IDs of the intermediaries c1..c_{n-1}.
func (t Topology) Connectors() []string {
	var out []string
	for i := 1; i < t.N; i++ {
		out = append(out, CustomerID(i))
	}
	return out
}

// Escrows returns the IDs e0..e_{n-1} in order.
func (t Topology) Escrows() []string { return t.appendEscrows(make([]string, 0, t.N)) }

// Participants returns all customers, then all escrows.
func (t Topology) Participants() []string {
	return t.appendEscrows(t.appendCustomers(make([]string, 0, 2*t.N+1)))
}

// RoleOf classifies an ID within this topology; the manager and the notaries
// notaryK sit outside the chain. An ID that names no participant has no role.
func (t Topology) RoleOf(id string) Role {
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

// customerRole classifies customer c_i by position.
func (t Topology) customerRole(i int) Role {
	switch i {
	case 0:
		return RoleAlice
	case t.N:
		return RoleBob
	}
	return RoleConnector
}

// UpstreamCustomer returns the customer upstream of escrow e_i with respect
// to the flow of money, i.e. c_i.
func (t Topology) UpstreamCustomer(i int) string { return CustomerID(i) }

// DownstreamCustomer returns the customer downstream of escrow e_i, i.e.
// c_{i+1}.
func (t Topology) DownstreamCustomer(i int) string { return CustomerID(i + 1) }

// UpstreamEscrow returns customer c_i's upstream escrow e_{i-1} and whether
// it exists: Alice has none (her only escrow, e0, is downstream).
func (t Topology) UpstreamEscrow(i int) (string, bool) {
	if i <= 0 {
		return "", false
	}
	return EscrowID(i - 1), true
}

// DownstreamEscrow returns customer c_i's downstream escrow e_i and whether
// it exists.
func (t Topology) DownstreamEscrow(i int) (string, bool) {
	if i >= t.N {
		return "", false
	}
	return EscrowID(i), true
}

// PaymentSpec fixes what the participants have already agreed to transfer:
// via escrow e_i, customer c_i pays Amounts[i] to customer c_{i+1}. The
// amounts typically decrease along the chain so each connector earns a
// commission; as the paper notes, how these amounts are chosen is orthogonal
// to the protocol.
type PaymentSpec struct {
	PaymentID string
	Amounts   []int64
}

// NewPaymentSpec builds a spec for a topology with base amount paid to Bob
// and a per-hop commission added upstream: Alice pays
// base + (n-1)*commission, Bob receives base.
func NewPaymentSpec(paymentID string, t Topology, base, commission int64) PaymentSpec {
	return PaymentSpec{PaymentID: paymentID, Amounts: AppendAmounts(make([]int64, 0, t.N), t, base, commission)}
}

// AppendAmounts appends NewPaymentSpec's per-hop amounts to dst: a caller
// that builds specs one after another keeps the slice.
func AppendAmounts(dst []int64, t Topology, base, commission int64) []int64 {
	for i := 0; i < t.N; i++ {
		dst = append(dst, base+int64(t.N-1-i)*commission)
	}
	return dst
}

// Validate checks that the spec matches the topology and all amounts are
// positive.
func (p PaymentSpec) Validate(t Topology) error {
	if len(p.Amounts) != t.N {
		return fmt.Errorf("core: spec has %d amounts for %d escrows", len(p.Amounts), t.N)
	}
	for i, a := range p.Amounts {
		if a <= 0 {
			return fmt.Errorf("core: amount via %s must be positive, got %d", EscrowID(i), a)
		}
	}
	return nil
}

// AmountVia returns the amount transferred via escrow e_i.
func (p PaymentSpec) AmountVia(i int) int64 { return p.Amounts[i] }

// AlicePays returns the amount Alice sends into escrow e0.
func (p PaymentSpec) AlicePays() int64 { return p.Amounts[0] }

// BobReceives returns the amount Bob is owed out of escrow e_{n-1}.
func (p PaymentSpec) BobReceives() int64 { return p.Amounts[len(p.Amounts)-1] }

// Commission returns connector c_i's commission (amount in minus amount
// out); i must be in 1..n-1.
func (p PaymentSpec) Commission(i int) int64 { return p.Amounts[i-1] - p.Amounts[i] }

// Timing bundles the synchrony parameters the protocols are configured
// with: the known message-delay bound Delta, the bound on local processing
// time, and the clock bound (drift and offset). Under partial synchrony
// Delta is merely the post-GST bound and is unknown to the protocol;
// protocols must not rely on it for safety.
type Timing struct {
	// MaxMsgDelay is the (assumed) upper bound Delta on message delay.
	MaxMsgDelay sim.Time
	// MaxProcessing bounds the time an automaton spends in an output state.
	MaxProcessing sim.Time
	// Clock bounds drift and initial offset of correct participants' clocks.
	Clock clock.Bound
}

// DefaultTiming returns timing parameters used across the experiments:
// Delta = 50ms, processing = 1ms, drift 1e-4, offset 5ms.
func DefaultTiming() Timing {
	return Timing{
		MaxMsgDelay:   50 * sim.Millisecond,
		MaxProcessing: 1 * sim.Millisecond,
		Clock:         clock.Bound{MaxRho: 1e-4, MaxOffset: 5 * sim.Millisecond},
	}
}

// FaultSpec describes how a Byzantine participant deviates. The zero value
// means "abides by the protocol". internal/adversary provides named presets.
type FaultSpec struct {
	// Crash stops the participant at CrashAt (real time); 0 means at start.
	Crash   bool
	CrashAt sim.Time
	// Silent makes the participant never send any message (but it still
	// receives and, for an escrow, still holds funds hostage).
	Silent bool
	// WithholdCertificate: the participant receives the certificate chi (or
	// the money) but never forwards what the protocol requires.
	WithholdCertificate bool
	// RefuseToPay: the participant never sends money it is supposed to send.
	RefuseToPay bool
	// PrematureAbort: the participant aborts (weak-liveness protocol) as
	// soon as it is allowed to, regardless of patience.
	PrematureAbort bool
	// DelayActions postpones every protocol action by this much real time.
	DelayActions sim.Time
	// ForgeCertificate: the participant attempts to issue/forward a forged
	// certificate (invalid signature).
	ForgeCertificate bool
	// Equivocate: the participant sends conflicting protocol messages to
	// different peers where the protocol requires consistency.
	Equivocate bool
	// StealEscrow (escrows only): the escrow keeps funds instead of
	// releasing or refunding them.
	StealEscrow bool
}

// IsByzantine reports whether the spec describes any deviation.
func (f FaultSpec) IsByzantine() bool { return f != FaultSpec{} }

// Scenario fully describes one protocol run: topology, payment, timing
// assumptions, the network delay model, per-participant faults, patience
// parameters for the weak-liveness protocol, and the RNG seed.
type Scenario struct {
	Topology Topology
	Spec     PaymentSpec
	Timing   Timing
	// Network is the delay model the run executes under. Protocols never
	// inspect it; they only know Timing.
	Network netsim.DelayModel
	// Faults maps participant IDs to their Byzantine behaviour.
	Faults map[string]FaultSpec
	// Patience maps customer IDs to how long (local time) they are willing
	// to wait at each waiting point of the weak-liveness protocol before
	// losing patience; 0 means infinitely patient.
	Patience map[string]sim.Time
	// InitialBalance is the endowment minted for each customer on each
	// escrow where they hold an account.
	InitialBalance int64
	// Seed drives all randomness (delays within bounds, clock drift draws).
	Seed int64
	// Crypto names the signature backend realising the model's assumed
	// authentication primitive ("" = ed25519; see sig.BackendNames). The
	// backend is a model-level assumption, never a protocol input, so no
	// verdict, settlement or audit may depend on it — the
	// backend-differential oracle in internal/scenariogen enforces this.
	Crypto string
	// KeySeed overrides the seed deriving participant keys ("" derives
	// "seed-<Seed>"). A traffic run points every payment's sub-scenario, and
	// the scenario fuzzer every generated scenario, at one shared KeySeed: a
	// standing world's keyring then keeps its keys and bound signers from one
	// run to the next, and a new world's keyring finds them in the
	// process-wide key cache. Key bytes are below the model — no control flow
	// reads them — so, like Crypto, the seed can never be a protocol input.
	KeySeed string
	// MuteTrace disables trace recording for large benchmark sweeps: a
	// retention choice that no result field and no verdict can see.
	MuteTrace bool
	// MaxEvents caps simulation events as a runaway guard; 0 means the
	// protocol package's default.
	MaxEvents uint64
	// Metrics, if non-nil, receives live kernel/network/ledger counters
	// from the run. Instrumentation is observation-only: a run's verdict,
	// settlements and audits are byte-identical with or without it
	// (the nil-registry differential test in internal/traffic enforces
	// this), so — like Crypto — it can never be a protocol input.
	Metrics *metrics.Registry
}

// FaultOf returns the fault spec of a participant (zero value if honest).
func (s Scenario) FaultOf(id string) FaultSpec { return s.Faults[id] }

// PatienceOf returns the patience of a customer (0 = infinite).
func (s Scenario) PatienceOf(id string) sim.Time { return s.Patience[id] }

// Validate checks scenario consistency.
func (s Scenario) Validate() error {
	if s.Topology.N < 1 {
		return fmt.Errorf("core: scenario topology has no escrows")
	}
	if err := s.Spec.Validate(s.Topology); err != nil {
		return err
	}
	if s.Network == nil {
		return fmt.Errorf("core: scenario has no network model")
	}
	if s.InitialBalance < s.Spec.AlicePays() {
		return fmt.Errorf("core: initial balance %d cannot fund Alice's payment %d", s.InitialBalance, s.Spec.AlicePays())
	}
	if _, ok := sig.BackendByName(s.Crypto); !ok {
		return fmt.Errorf("core: unknown crypto backend %q (have %v)", s.Crypto, sig.BackendNames())
	}
	return nil
}

// DerivedKeySeed returns the seed participant keys derive from: KeySeed when
// set, else "seed-<Seed>" (the historical per-run derivation).
func (s Scenario) DerivedKeySeed() string {
	if s.KeySeed != "" {
		return s.KeySeed
	}
	return fmt.Sprintf("seed-%d", s.Seed)
}

// CustomerOutcome captures what happened to one customer by the end of a
// run, in exactly the vocabulary of Definitions 1 and 2.
type CustomerOutcome struct {
	ID   string
	Role Role
	// Terminated and TerminatedAt record whether/when the customer's
	// protocol terminated (reached a final state or returned).
	Terminated   bool
	TerminatedAt sim.Time
	// StartedAt is the real time of the customer's first protocol obligation
	// (sending money or issuing a certificate); the time-bounded termination
	// property is measured from this instant, since Byzantine peers may
	// legally delay when a customer's participation begins.
	StartedAt sim.Time
	// WealthBefore/WealthAfter are the customer's total balances across all
	// escrow ledgers before and after the run (available funds only).
	WealthBefore int64
	WealthAfter  int64
	// PaidOut is the amount the customer sent into escrow during the run.
	PaidOut int64
	// Received is the amount credited to the customer during the run.
	Received int64
	// HoldsChi reports whether the customer ended up holding a valid
	// payment certificate chi (relevant to Alice, CS1).
	HoldsChi bool
	// IssuedChi reports whether the customer signed/issued chi (Bob, CS2).
	IssuedChi bool
	// HoldsCommitCert / HoldsAbortCert report possession of the
	// weak-liveness protocol's decision certificates (Definition 2).
	HoldsCommitCert bool
	HoldsAbortCert  bool
	// Aborted reports whether the customer chose to abort (lost patience).
	Aborted bool
}

// NetWealthChange is the customer's net gain (negative = loss).
func (o CustomerOutcome) NetWealthChange() int64 { return o.WealthAfter - o.WealthBefore }

// EscrowOutcome captures an escrow's final accounting.
type EscrowOutcome struct {
	ID string
	// BalanceDelta is the escrow's own net balance change: an escrow that
	// abides by the protocol must never end up negative (ES).
	BalanceDelta int64
	// PendingLocks counts locks never settled by the end of the run (funds
	// stuck in escrow).
	PendingLocks int
	// AuditErr is non-nil if conservation of value failed on this ledger.
	AuditErr error
}

// Incident is one entry of a run's consistency record: who could not go on,
// and the label it reported. The zero Incident means none.
type Incident struct {
	Actor string
	Label string
}

// RunResult is the full record of one protocol execution, consumed by the
// property checkers and the experiment harness.
type RunResult struct {
	Protocol string
	Scenario Scenario
	Trace    *trace.Trace
	Book     *ledger.Book
	// Customers maps customer ID to outcome; Escrows maps escrow ID to
	// outcome.
	Customers map[string]CustomerOutcome
	Escrows   map[string]EscrowOutcome
	// BobPaid reports whether Bob ended up with the money (liveness L).
	BobPaid bool
	// CommitIssued / AbortIssued report whether the transaction manager
	// issued the respective certificate at least once (CC).
	CommitIssued bool
	AbortIssued  bool
	// Violation is the first time a participant that abides by the protocol
	// could not execute its own role; Detection the first time one rejected
	// the input of a peer that abides too. Both are zero in a run every
	// participant could abide by (C); World.Report keeps them, whether or not
	// the trace records.
	Violation Incident
	Detection Incident
	// Duration is the real (virtual) time at which the last participant
	// terminated, or the end-of-run time if some never did.
	Duration sim.Time
	// AllTerminated reports whether every honest customer terminated.
	AllTerminated bool
	// NetStats carries message counters for the cost experiments.
	NetStats netsim.Stats
	// EventsFired is the number of simulation events processed.
	EventsFired uint64
	// Err records a scenario/engine error (not a protocol property
	// violation).
	Err error
}

// Outcome returns the outcome of one customer.
func (r *RunResult) Outcome(id string) CustomerOutcome { return r.Customers[id] }

// HonestCustomers returns the IDs of customers whose FaultSpec is zero,
// in chain order.
func (r *RunResult) HonestCustomers() []string {
	var out []string
	for _, id := range r.Scenario.Topology.Customers() {
		if !r.Scenario.FaultOf(id).IsByzantine() {
			out = append(out, id)
		}
	}
	return out
}

// AllHonest reports whether every participant (customers, escrows, manager,
// notaries) abides by the protocol in this scenario.
func (r *RunResult) AllHonest() bool {
	for _, f := range r.Scenario.Faults {
		if f.IsByzantine() {
			return false
		}
	}
	return true
}

// Theorem names the result of the paper that covers a protocol.
type Theorem uint8

// Theorems.
const (
	// Baseline is the HTLC chain, which no theorem of the paper covers.
	Baseline Theorem = iota
	// Theorem1 is the timeout family (Figure 2): all of Definition 1 under
	// synchrony; outside it Theorem 2 applies.
	Theorem1
	// Theorem3 is the manager-based protocol: Definition 2 under partial
	// synchrony, resting on the transaction manager's trust assumption.
	Theorem3
)

// Guarantee is the one fact about correctness only a protocol knows: which
// theorem covers it. What that theorem owes in a given run is decided in one
// place, internal/check.
type Guarantee struct {
	Theorem Theorem
	// Notaries is the size of the committee realising Theorem 3's
	// transaction manager; zero is a single trusted manager.
	Notaries int
}

// Protocol is the common interface of all cross-chain payment protocol
// engines in this repository.
type Protocol interface {
	// Name identifies the protocol in experiment tables.
	Name() string
	// Guarantee states which theorem covers the protocol.
	Guarantee() Guarantee
	// Run executes the scenario and returns its result. Run must be
	// deterministic in (scenario, scenario.Seed).
	Run(s Scenario) (*RunResult, error)
	// RunIn is the same run in a world its caller owns and reuses; the result
	// is w's own and valid until w's next Reset.
	RunIn(w *World, s Scenario) (*RunResult, error)
}

// Property identifies one correctness property from Definitions 1 and 2.
type Property string

// Properties of Definition 1 (time-bounded / eventually terminating
// cross-chain payment) and Definition 2 (weak liveness guarantees).
const (
	PropConsistency     Property = "C"   // each participant can abide by the protocol
	PropTermination     Property = "T"   // honest customers terminate (time-bounded or eventual)
	PropEscrowSecurity  Property = "ES"  // honest escrows do not lose money
	PropCS1             Property = "CS1" // Alice: money back or chi (commit cert in Def. 2)
	PropCS2             Property = "CS2" // Bob: money received or chi not issued (abort cert in Def. 2)
	PropCS3             Property = "CS3" // connectors: money back (net non-negative)
	PropStrongLiveness  Property = "L"   // all honest => Bob is paid
	PropWeakLiveness    Property = "WL"  // all honest + patient => Bob is paid
	PropCertConsistency Property = "CC"  // commit and abort certs never both issued
	PropConservation    Property = "CV"  // engineering invariant: ledgers conserve value
)

// AllProperties lists every property in canonical order.
func AllProperties() []Property {
	return []Property{
		PropConsistency, PropTermination, PropEscrowSecurity,
		PropCS1, PropCS2, PropCS3,
		PropStrongLiveness, PropWeakLiveness, PropCertConsistency, PropConservation,
	}
}

// Describe returns a one-line description of the property.
func (p Property) Describe() string {
	switch p {
	case PropConsistency:
		return "Consistency: every participant can abide by the protocol"
	case PropTermination:
		return "Termination: honest customers terminate (within the bound, if time-bounded)"
	case PropEscrowSecurity:
		return "Escrow security: honest escrows do not lose money"
	case PropCS1:
		return "Customer security 1: Alice got her money back or holds the certificate"
	case PropCS2:
		return "Customer security 2: Bob received the money or did not issue the certificate"
	case PropCS3:
		return "Customer security 3: honest connectors got their money back"
	case PropStrongLiveness:
		return "Strong liveness: if all abide, Bob is eventually paid"
	case PropWeakLiveness:
		return "Weak liveness: if all abide and wait long enough, Bob is paid"
	case PropCertConsistency:
		return "Certificate consistency: commit and abort certificates never both issued"
	case PropConservation:
		return "Conservation: every ledger conserves value"
	}
	return string(p)
}
