// Package weaklive implements the cross-chain payment protocol with weak
// liveness guarantees of Theorem 3 (Definition 2).
//
// Theorem 2 shows that under partial synchrony no protocol can combine the
// liveness of Definition 1 with its safety properties. The paper therefore
// weakens liveness: "we present a protocol in which each customer can, at
// any moment of their choice, lose patience and abort the transaction,
// without a risk of losing value. In case none of them exercises this option
// nor fails, a successful outcome is guaranteed. This solution involves an
// external transaction manager, that can issue an abort or commit
// certificate."
//
// The protocol here follows that sketch:
//
//   - each customer places the agreed value in escrow with her downstream
//     escrow; the escrow reports "prepared" to the transaction manager;
//   - when every escrow has reported, the manager issues a commit
//     certificate; each escrow then completes its transfer downstream;
//   - a customer who loses patience asks the manager to abort; if the
//     manager has not committed yet it issues an abort certificate and every
//     escrow refunds;
//   - certificate consistency (CC) — never both certificates — is exactly
//     the agreement property of the transaction manager, which internal/notary
//     provides either as a single trusted party or as a BFT notary committee.
//
// The escrows never act on their own timeouts, which is why the protocol
// tolerates partial synchrony: safety never depends on a deadline, and
// liveness is conditional on the customers' patience (property L of
// Definition 2).
package weaklive

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/notary"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ManagerKind selects the transaction-manager realisation.
type ManagerKind int

// Manager kinds.
const (
	// ManagerTrusted is a single external party trusted by all.
	ManagerTrusted ManagerKind = iota
	// ManagerCommittee is a committee of notaries, less than one-third of
	// which is assumed unreliable, running a partially synchronous consensus.
	ManagerCommittee
)

// Protocol is the weak-liveness cross-chain payment protocol. It implements
// core.Protocol.
type Protocol struct {
	// Manager selects the transaction-manager realisation.
	Manager ManagerKind
	// CommitteeSize is the number of notaries when Manager is
	// ManagerCommittee (3f+1 tolerates f faults). Zero defaults to 4.
	CommitteeSize int
}

// New returns the protocol with a single trusted transaction manager.
func New() *Protocol { return &Protocol{Manager: ManagerTrusted} }

// NewCommittee returns the protocol with a notary committee of the given
// size as transaction manager.
func NewCommittee(size int) *Protocol {
	return &Protocol{Manager: ManagerCommittee, CommitteeSize: size}
}

// committeeNames holds the protocol's name for the committee sizes anybody
// runs, so that naming a run allocates nothing.
var committeeNames = func() (names [32]string) {
	for size := range names {
		names[size] = "weaklive-committee-" + strconv.Itoa(size)
	}
	return names
}()

// Name implements core.Protocol.
func (p *Protocol) Name() string {
	if p.Manager != ManagerCommittee {
		return "weaklive-trusted"
	}
	if size := p.committeeSize(); size < len(committeeNames) {
		return committeeNames[size]
	}
	return "weaklive-committee-" + strconv.Itoa(p.committeeSize())
}

// Guarantee implements core.Protocol: Theorem 3, with the committee that
// realises its transaction manager.
func (p *Protocol) Guarantee() core.Guarantee {
	g := core.Guarantee{Theorem: core.Theorem3}
	if p.Manager == ManagerCommittee {
		g.Notaries = p.committeeSize()
	}
	return g
}

func (p *Protocol) committeeSize() int {
	if p.CommitteeSize <= 0 {
		return 4
	}
	return p.CommitteeSize
}

// Run implements core.Protocol.
func (p *Protocol) Run(s core.Scenario) (*core.RunResult, error) {
	return p.RunIn(core.NewWorld(), s)
}

// RunIn executes the scenario in w, resetting it first: the same run Run
// makes, on a standing world. The result is w's own and is valid until w's
// next Reset (see core.World).
func (p *Protocol) RunIn(w *core.World, s core.Scenario) (*core.RunResult, error) {
	if err := w.Reset(&s); err != nil {
		return nil, fmt.Errorf("weaklive: %w", err)
	}
	run := core.Standing[runState](w)
	run.reset(p, w)
	run.start()

	_, fired := w.Eng.Run(w.MaxEvents())
	return run.collect(p.Name(), fired), nil
}

// runState holds one run's participants and its world's handles;
// escrows[i] is e_i and customers[i] is c_i. It stands on the run's world
// (core.Standing): reset overwrites every field a run reads and every
// process, so nothing of the previous run is left for this one, and the
// slices are regrown only for a longer chain than any before. The
// transaction manager stands on the world too, in internal/notary's care.
type runState struct {
	w   *core.World
	scn *core.Scenario // the world's
	eng *sim.Engine
	net *netsim.Network
	tr  *trace.Trace
	kr  *sig.Keyring
	mgr notary.Manager

	escrows   []escrowProc
	customers []customerProc
}

// reset makes r the run under p of the scenario w has been reset for: the
// transaction manager and the chain's processes, registered on w's network.
func (r *runState) reset(p *Protocol, w *core.World) {
	r.w, r.scn = w, w.Scenario()
	r.eng, r.net, r.tr, r.kr = w.Eng, w.Net, w.Trace, w.Keyring()
	if p.Manager == ManagerCommittee {
		r.mgr = notary.CommitteeIn(w, p.committeeSize())
	} else {
		r.mgr = notary.TrustedIn(w)
	}

	topo := r.scn.Topology
	r.escrows = slices.Grow(r.escrows[:0], topo.N)[:topo.N]
	r.customers = slices.Grow(r.customers[:0], topo.N+1)[:topo.N+1]
	for i := range r.escrows {
		r.escrows[i] = newEscrowProc(r, i)
		r.net.Attach(r.escrows[i].pid, &r.escrows[i])
	}
	for i := range r.customers {
		r.customers[i] = newCustomerProc(r, i)
		r.net.Attach(r.customers[i].pid, &r.customers[i])
	}
}

func (r *runState) start() {
	for i := range r.escrows {
		r.escrows[i].start()
	}
	for i := range r.customers {
		r.customers[i].start()
	}
	r.w.ScheduleCrashes(r)
}

// Crash implements core.Crasher.
func (r *runState) Crash(id string, customer bool, i int) {
	if customer {
		r.customers[i].crashed = true
	} else {
		r.escrows[i].crashed = true
	}
	r.tr.Add(r.eng.Now(), trace.KindByzantine, id, "", "crash")
}

func (r *runState) collect(protocolName string, fired uint64) *core.RunResult {
	res := r.w.Collect(protocolName, fired, func(i int, out *core.CustomerOutcome) {
		c := &r.customers[i]
		out.Terminated = c.term
		out.TerminatedAt = c.termAt
		out.PaidOut = c.paid
		out.Received = c.credited
		out.HoldsCommitCert = c.hasCommit
		out.HoldsAbortCert = c.hasAbort
		out.Aborted = c.requestedAbort
	})
	res.CommitIssued = r.mgr.CommitIssued()
	res.AbortIssued = r.mgr.AbortIssued()
	return res
}
