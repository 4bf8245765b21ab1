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
	"slices"

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
func (m *MsgDecision) Head() string { return string(m.Cert.Decision) }

// Manager is the common interface of the transaction-manager
// implementations: the weak-liveness protocol sends MsgPrepared and
// MsgAbortRequest to every ID in IDs() and receives MsgDecision broadcasts
// in return.
type Manager interface {
	// IDs lists the node IDs protocol messages must be sent to. The slice is
	// the manager's own: callers must not modify it.
	IDs() []string
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

// run is what both managers hold of their current run: the world, the
// scenario and the world's keyring.
type run struct {
	w   *core.World
	scn core.Scenario
	kr  *sig.Keyring
}

// paymentID is the payment the manager decides on.
func (r *run) paymentID() string { return r.scn.Spec.PaymentID }

// addKey derives the key of manager or notary id, which is no participant of
// the chain, from the run's key seed.
func (r *run) addKey(seed, id string) {
	if !r.kr.Has(id) {
		r.kr.Add(seed, id)
	}
}

// scheduleCrash schedules id's crash fault, if it has one: crash(arg).
func (r *run) scheduleCrash(id string, f core.FaultSpec, crash func(any), arg any) {
	if f.Crash {
		r.w.Eng.ScheduleArgAt(f.CrashAt, r.w.EventName(id, "crash"), crash, arg)
	}
}

// The two decisions a manager can take, by the index tallies and standing
// certificates are kept under.
const (
	commit = iota
	abort
)

var decisions = [2]sig.Decision{commit: sig.DecisionCommit, abort: sig.DecisionAbort}

// issued records which decisions a valid certificate was issued for (feeds
// the CC property and the run result).
type issued [2]bool

func (i *issued) record(d sig.Decision) {
	if k := slices.Index(decisions[:], d); k >= 0 {
		i[k] = true
	}
}

// CommitIssued implements Manager.
func (i *issued) CommitIssued() bool { return i[commit] }

// AbortIssued implements Manager.
func (i *issued) AbortIssued() bool { return i[abort] }
