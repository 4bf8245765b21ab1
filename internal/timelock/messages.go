package timelock

import (
	"strconv"

	"repro/internal/sig"
)

// Messages travel by pointer, written once before Send and never after. In
// both engines each is a field of its sender — a process, or an automaton's
// adapter — since Figure 2's automata are loop-free and a participant emits
// each message kind at most once per run, and a forwarded certificate is the
// pointer that was received. Only the pointer types implement
// netsim.Message; a message is valid until its world's next Reset.

// MsgGuarantee carries the escrow promise G(d_i) from escrow e_i to its
// upstream customer c_i.
type MsgGuarantee struct {
	G sig.Guarantee
}

// Describe implements netsim.Message.
func (m *MsgGuarantee) Describe() string { return m.G.Describe() }

// Head is the constant Describe starts with (see netsim.HeadOf).
func (m *MsgGuarantee) Head() string { return "G(d=" }

// MsgPromise carries the escrow promise P(a_i) from escrow e_i to its
// downstream customer c_{i+1}.
type MsgPromise struct {
	P sig.Promise
}

// Describe implements netsim.Message.
func (m *MsgPromise) Describe() string { return m.P.Describe() }

// Head is the constant Describe starts with.
func (m *MsgPromise) Head() string { return "P(a=" }

// MsgMoney represents the transfer "$": from a customer to its escrow it is
// the instruction to place the agreed value in escrow; from an escrow to a
// customer it notifies a release (payment) or a refund.
type MsgMoney struct {
	PaymentID string
	Amount    int64
	// Refund marks an escrow-to-customer message as a refund rather than a
	// downstream payment.
	Refund bool
}

// Describe implements netsim.Message.
func (m *MsgMoney) Describe() string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], m.Head()...), m.Amount, 10)
	return string(append(b, ')'))
}

// Head is the constant Describe starts with: a payment's differs from a
// refund's, which no schedule that starves the money holds back.
func (m *MsgMoney) Head() string {
	if m.Refund {
		return "$refund("
	}
	return "$("
}

// MsgCert carries the payment certificate chi, signed by Bob, travelling
// back down the chain from Bob towards Alice.
type MsgCert struct {
	Cert sig.PaymentCert
}

// Describe implements netsim.Message.
func (m *MsgCert) Describe() string { return m.Cert.Describe() }

// Head is the constant Describe starts with.
func (m *MsgCert) Head() string { return "chi(" }
