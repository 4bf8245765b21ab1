// Package htlc implements the hashed-timelock baseline: a chain of
// hash-timelocked escrow contracts in the style of the Interledger atomic
// mode and of payment-channel networks.
//
// The paper's introduction positions its contribution against exactly this
// family: prior cross-chain payment protocols "did not require this success,
// or any form of progress". A hashed-timelock chain is atomic — either every
// hop completes or every hop refunds — but it gives Alice no transferable
// certificate that Bob has been paid, it offers no success guarantee (Bob may
// simply never reveal the preimage and everybody waits out the full
// timelock), and the collateral of every connector stays locked for a time
// that grows linearly with the chain length. Experiment E7 quantifies these
// differences against the Figure-2 protocol.
//
// Protocol sketch (money flows Alice = c0 -> Bob = c_n):
//
//   - Bob's invoice fixes a hashlock H = SHA-256(R) known to every
//     participant; only Bob knows the preimage R.
//   - Alice locks the agreed value at escrow e0 under (H, expiry T_0).
//   - each connector c_i, once its incoming lock at e_{i-1} exists, locks the
//     (slightly smaller) outgoing value at e_i under (H, T_i) with
//     T_i = T_{i-1} - margin, so that claiming downstream always leaves time
//     to claim upstream;
//   - Bob claims at e_{n-1} by revealing R; the escrow pays him and exposes R
//     to c_{n-1}, who claims at e_{n-2}, and so on back to e_0;
//   - a lock that is not claimed by its expiry is refunded to its payer.
package htlc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Protocol is the hashed-timelock baseline. It implements core.Protocol.
type Protocol struct {
	// HopMargin is the per-hop decrement of the timelock expiry. Zero uses a
	// margin derived from the scenario's timing assumptions.
	HopMargin sim.Time
	// BaseExpiry is Bob-side expiry (the shortest timelock). Zero derives it
	// from the timing assumptions.
	BaseExpiry sim.Time
}

// New returns the baseline with derived timelock parameters.
func New() *Protocol { return &Protocol{} }

// Name implements core.Protocol.
func (p *Protocol) Name() string { return "htlc" }

// Guarantee implements core.Protocol: no theorem of the paper covers the
// baseline.
func (p *Protocol) Guarantee() core.Guarantee { return core.Guarantee{Theorem: core.Baseline} }

// hopMargin returns the per-hop expiry decrement.
func (p *Protocol) hopMargin(t core.Timing) sim.Time {
	if p.HopMargin > 0 {
		return p.HopMargin
	}
	return 6*t.MaxMsgDelay + 4*t.MaxProcessing
}

// baseExpiry returns the expiry of the lock closest to Bob.
func (p *Protocol) baseExpiry(t core.Timing) sim.Time {
	if p.BaseExpiry > 0 {
		return p.BaseExpiry
	}
	return 4*t.MaxMsgDelay + 4*t.MaxProcessing
}

// ExpiryOf returns the local-time expiry used for the lock at escrow e_i in
// a chain of n escrows: locks closer to Alice expire later, and every expiry
// leaves room for the chain to be set up hop by hop before the first (Bob
// side) timelock can fire.
func (p *Protocol) ExpiryOf(i, n int, t core.Timing) sim.Time {
	setup := sim.Time(n) * (2*t.MaxMsgDelay + 2*t.MaxProcessing)
	return setup + p.baseExpiry(t) + sim.Time(n-1-i)*p.hopMargin(t)
}

// Messages travel by pointer: each is a field of the process that sends it,
// written once before Send and never after — a participant emits each
// message kind at most once per run. Only the pointer types implement
// netsim.Message; a message is valid until its world's next Reset.

// MsgCreateLock is the customer's instruction to her escrow to lock value
// under the hashlock.
type MsgCreateLock struct {
	PaymentID string
	Amount    int64
	HashLock  []byte
	Expiry    sim.Time // in the escrow's local clock
}

// Describe implements netsim.Message.
func (m *MsgCreateLock) Describe() string { return fmt.Sprintf("hashlock(%d)", m.Amount) }

// Head is the constant Describe starts with (see netsim.HeadOf); the other
// messages' descriptions are constants, hence their own heads.
func (m *MsgCreateLock) Head() string { return "hashlock(" }

// MsgLockCreated notifies the downstream customer that an incoming lock is
// in place.
type MsgLockCreated struct {
	PaymentID string
	Amount    int64
	HashLock  []byte
}

// Describe implements netsim.Message.
func (m *MsgLockCreated) Describe() string { return "lock-created" }

// Head implements netsim.HeadOf's optional method.
func (m *MsgLockCreated) Head() string { return "lock-created" }

// MsgClaim reveals the preimage to an escrow to claim a lock.
type MsgClaim struct {
	PaymentID string
	Preimage  []byte
}

// Describe implements netsim.Message.
func (m *MsgClaim) Describe() string { return "claim" }

// Head implements netsim.HeadOf's optional method.
func (m *MsgClaim) Head() string { return "claim" }

// MsgClaimed tells the payer that her lock was claimed, exposing the
// preimage so she can claim her own incoming lock.
type MsgClaimed struct {
	PaymentID string
	Amount    int64
	Preimage  []byte
}

// Describe implements netsim.Message.
func (m *MsgClaimed) Describe() string { return "claimed" }

// Head implements netsim.HeadOf's optional method.
func (m *MsgClaimed) Head() string { return "claimed" }

// MsgPaid tells the payee the escrow credited her account.
type MsgPaid struct {
	PaymentID string
	Amount    int64
}

// Describe implements netsim.Message.
func (m *MsgPaid) Describe() string { return "paid" }

// Head implements netsim.HeadOf's optional method.
func (m *MsgPaid) Head() string { return "paid" }

// MsgRefunded tells the payer her lock expired and was refunded.
type MsgRefunded struct {
	PaymentID string
	Amount    int64
}

// Describe implements netsim.Message.
func (m *MsgRefunded) Describe() string { return "refunded" }

// Head implements netsim.HeadOf's optional method.
func (m *MsgRefunded) Head() string { return "refunded" }

// Run implements core.Protocol.
func (p *Protocol) Run(s core.Scenario) (*core.RunResult, error) {
	return p.RunIn(core.NewWorld(), s)
}

// RunIn executes the scenario in w, resetting it first: the same run Run
// makes, on a standing world. The result is w's own and is valid until w's
// next Reset (see core.World).
func (p *Protocol) RunIn(w *core.World, s core.Scenario) (*core.RunResult, error) {
	if err := w.Reset(s); err != nil {
		return nil, fmt.Errorf("htlc: %w", err)
	}
	r := core.Standing[runState](w)
	r.reset(p, w, s)
	r.start()

	_, fired := w.Eng.Run(w.MaxEvents())
	return r.collect(fired), nil
}
