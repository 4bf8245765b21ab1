// Package notary implements the transaction manager of the weak-liveness
// protocol (Theorem 3, Definition 2).
//
// The paper offers three realisations of the manager: "a single external
// party trusted by all, or a smart contract running on a permissionless
// blockchain shared by every customer. It can also be a collection of
// notaries appointed by the participants in the protocol, of which less than
// one-third is assumed to be unreliable", running a partially synchronous
// consensus in the style of Dwork, Lynch and Stockmeyer. This package
// provides the first and third behind one interface: Trusted is a single
// manager process; Committee is a committee of notaries running a
// leader-based, view-changing vote protocol that needs f < n/3 Byzantine
// members for safety and partial synchrony for liveness.
//
// The manager's job is small but critical: collect "prepared" notifications
// from the escrows, collect abort requests from impatient customers, and
// issue exactly one decision certificate — commit once every escrow is
// prepared, or abort if a customer asked for it first. Certificate
// consistency (property CC) is exactly the statement that commit and abort
// certificates are never both issued.
//
// Both managers stand on the run's world (core.Standing): TrustedIn and
// CommitteeIn reset the world's one Trusted or Committee for a run, and what
// a manager sends — certificates with their signer and signature slices,
// ballots — is storage it owns, on the network by pointer, never written
// after Send and valid until the world's next Reset (core.World).
package notary

import (
	"repro/internal/core"
	"repro/internal/sig"
)

// Protocol messages exchanged with (and within) the transaction manager.
// Only the pointer types implement netsim.Message: a message is a field of
// its sender (or a record of the committee's arena), written before its Send
// and never after.

// MsgPrepared is sent by escrow e_i to the manager once the upstream
// customer's money is locked in escrow.
type MsgPrepared struct {
	PaymentID string
	Escrow    string
}

// Describe implements netsim.Message.
func (m *MsgPrepared) Describe() string { return "prepared(" + m.Escrow + ")" }

// Head is the constant Describe starts with (see netsim.HeadOf).
func (m *MsgPrepared) Head() string { return "prepared(" }

// MsgAbortRequest is sent by a customer that lost patience.
type MsgAbortRequest struct {
	PaymentID string
	Customer  string
}

// Describe implements netsim.Message.
func (m *MsgAbortRequest) Describe() string { return "abort-request(" + m.Customer + ")" }

// Head is the constant Describe starts with.
func (m *MsgAbortRequest) Head() string { return "abort-request(" }

// MsgDecision carries the manager's decision certificate to participants
// (and between notaries, so that all learn an assembled certificate). The
// certificate's Signers and Sigs are its issuer's standing slices.
type MsgDecision struct {
	Cert sig.DecisionCert
}

// Describe implements netsim.Message.
func (m *MsgDecision) Describe() string { return m.Cert.Describe() }

// Head is what Describe starts with and no certificate's values reach: the
// decision's name.
func (m *MsgDecision) Head() string { return m.Cert.Decision.String() }

// Manager is the common interface of the transaction-manager
// implementations: the weak-liveness protocol sends MsgPrepared and
// MsgAbortRequest to every PID in PIDs() and receives MsgDecision broadcasts
// in return.
type Manager interface {
	// IDs lists the names of the nodes protocol messages must be sent to,
	// and PIDs the same nodes in the run. The slices are the manager's own:
	// callers must not modify them.
	IDs() []string
	PIDs() []core.PID
	// CommitIssued and AbortIssued report whether a valid certificate of the
	// respective kind was ever issued during the run.
	CommitIssued() bool
	AbortIssued() bool
	// Quorum returns the number of signatures a valid certificate carries.
	Quorum() int
}

// standing is what a world keeps of this package from run to run: the
// managers TrustedIn and CommitteeIn reset and return.
type standing struct {
	trusted   Trusted
	committee Committee
}

// run is what both managers hold of their current run: the world, its
// scenario and its keyring.
type run struct {
	w   *core.World
	scn *core.Scenario
	kr  *sig.Keyring
}

// paymentID is the payment the manager decides on.
func (r *run) paymentID() string { return r.scn.Spec.PaymentID }

// addKey derives the key of manager or notary id, which is no participant of
// the chain, under its PID and the keyring's key seed: the run's.
func (r *run) addKey(pid core.PID, id string) {
	if !r.kr.Holds(pid, id) {
		r.kr.Hold(pid, id)
	}
}

// scheduleCrash schedules id's crash fault, if it has one: crash(arg).
func (r *run) scheduleCrash(id string, f core.FaultSpec, crash func(any), arg any) {
	if f.Crash {
		r.w.Eng.ScheduleArgAt(f.CrashAt, "crash", crash, arg)
	}
}

// The two decisions a manager can take, by the index tallies and standing
// certificates are kept under: decision d's is d-1.
const (
	commit = int(sig.DecisionCommit) - 1
	abort  = int(sig.DecisionAbort) - 1
)

// issued records which decisions a valid certificate was issued for (feeds
// the CC property and the run result).
type issued [2]bool

func (i *issued) record(d sig.Decision) {
	if k := int(d) - 1; k == commit || k == abort {
		i[k] = true
	}
}

// CommitIssued implements Manager.
func (i *issued) CommitIssued() bool { return i[commit] }

// AbortIssued implements Manager.
func (i *issued) AbortIssued() bool { return i[abort] }
