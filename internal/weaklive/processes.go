package weaklive

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/notary"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Protocol messages specific to the weak-liveness protocol; the
// manager-facing messages (prepared, abort request, decision) live in
// internal/notary. All of them travel by pointer: each is a field of the
// process that sends it, written once before Send and never after — a
// participant emits each at most once per run. Only the pointer types
// implement netsim.Message; a message is valid until its world's next Reset.

// MsgPay is the upstream customer's instruction to her escrow to place the
// agreed value in escrow.
type MsgPay struct {
	PaymentID string
	Amount    int64
}

// Describe implements netsim.Message.
func (m *MsgPay) Describe() string { return "pay" }

// Head is the constant Describe starts with (see netsim.HeadOf): the whole
// description, as it is constant.
func (m *MsgPay) Head() string { return "pay" }

// MsgPayout notifies a customer that the escrow released value to her
// account: the incoming payment on commit, or the refund of her own money on
// abort.
type MsgPayout struct {
	PaymentID string
	Amount    int64
	Refund    bool
}

// Describe implements netsim.Message.
func (m *MsgPayout) Describe() string {
	if m.Refund {
		return "payout-refund"
	}
	return "payout"
}

// Head is the constant Describe starts with: all of it.
func (m *MsgPayout) Head() string { return m.Describe() }

// ---------------------------------------------------------------------------
// Escrow process
// ---------------------------------------------------------------------------

// escrowProc is escrow e_i in the weak-liveness protocol: it locks the
// upstream customer's money, reports "prepared" to the transaction manager,
// and settles the lock according to the manager's decision certificate. It
// never times out on its own — safety must not depend on synchrony.
type escrowProc struct {
	run   *runState
	i     int
	id    string
	up    string
	down  string
	clk   *clock.Clock
	led   *ledger.Ledger
	fault core.FaultSpec

	lockCreated bool
	lockID      string // set when the lock is created
	settled     bool
	crashed     bool
	// decided is the decision of the first valid certificate seen ("" until
	// then), which may arrive before the upstream customer's payment does (an
	// early abort); a lock created afterwards is settled against it
	// immediately.
	decided sig.Decision

	// The escrow's outgoing messages, each written once before its Send: the
	// report to the manager, and the payout — downstream or upstream.
	msgPrepared notary.MsgPrepared
	msgPayout   MsgPayout
}

func newEscrowProc(r *runState, i int) escrowProc {
	topo := r.scn.Topology
	id := core.EscrowID(i)
	return escrowProc{
		run:   r,
		i:     i,
		id:    id,
		up:    topo.UpstreamCustomer(i),
		down:  topo.DownstreamCustomer(i),
		clk:   r.w.EscrowClock(i),
		led:   r.w.Ledger(i),
		fault: r.scn.FaultOf(id),
	}
}

// ID implements netsim.Node.
func (p *escrowProc) ID() string { return p.id }

func (p *escrowProc) active() bool { return !p.crashed }

func (p *escrowProc) start() {
	if p.fault.Crash && p.fault.CrashAt == 0 {
		p.crashed = true
	}
}

// Deliver implements netsim.Node.
func (p *escrowProc) Deliver(from string, msg netsim.Message) {
	if !p.active() {
		return
	}
	switch m := msg.(type) {
	case *MsgPay:
		p.onPay(from, m)
	case *notary.MsgDecision:
		p.onDecision(m)
	}
}

// onPay locks the upstream customer's money and reports prepared to the
// transaction manager.
func (p *escrowProc) onPay(from string, m *MsgPay) {
	if from != p.up || p.lockCreated || p.settled {
		return
	}
	want := p.run.scn.Spec.AmountVia(p.i)
	if m.Amount != want || m.PaymentID != p.run.scn.Spec.PaymentID {
		p.run.w.Report(trace.Event{Kind: trace.KindDetection, Actor: p.id, Peer: from, Label: "wrong-amount", Value: m.Amount}, nil)
		return
	}
	p.lockID = p.run.w.LockID(p.i)
	if _, err := p.led.CreateLock(p.run.eng.Now(), p.lockID, p.up, p.down, want, ledger.Condition{}); err != nil {
		p.run.w.Report(trace.Event{Kind: trace.KindViolation, Actor: p.id, Peer: from, Label: "lock-failed", Value: want}, nil)
		return
	}
	p.lockCreated = true
	p.run.tr.AddValue(p.run.eng.Now(), trace.KindLock, p.id, p.up, p.lockID, want)
	if p.decided != "" {
		// The manager decided before this payment arrived (an early abort):
		// settle the freshly created lock right away so the customer is not
		// left waiting for a decision that has already been broadcast.
		p.settle()
		return
	}
	if p.fault.Silent {
		return // never reports prepared: the manager will not commit
	}
	p.run.eng.ScheduleArgIn(p.run.w.ActionDelay(p.id), p.run.w.EventName(p.id, "prepared"), escrowPrepared, p)
}

// escrowPrepared is the scheduled action of onPay: report prepared to the
// transaction manager.
//
//xchain:hotpath
func escrowPrepared(x any) {
	p := x.(*escrowProc)
	if !p.active() {
		return
	}
	p.msgPrepared = notary.MsgPrepared{PaymentID: p.run.scn.Spec.PaymentID, Escrow: p.id}
	for _, mid := range p.run.mgr.IDs() {
		p.run.net.Send(p.id, mid, &p.msgPrepared)
	}
}

// onDecision settles the escrow lock according to a valid decision
// certificate: release downstream on commit, refund upstream on abort. A
// decision arriving before the lock exists is remembered and applied when
// (if ever) the payment arrives, and not verified a second time.
func (p *escrowProc) onDecision(m *notary.MsgDecision) {
	if p.settled || p.decided != "" && m.Cert.Decision == p.decided {
		return
	}
	if m.Cert.PaymentID != p.run.scn.Spec.PaymentID || !m.Cert.Verify(p.run.kr) {
		return
	}
	if p.decided == "" {
		p.decided = m.Cert.Decision
	}
	p.settle()
}

// settle applies the decision to the escrow's lock, once there is one: an
// unsettled lock is always settled by the first decision seen, because a
// lock created after it settles at once.
func (p *escrowProc) settle() {
	if p.settled || !p.lockCreated {
		return
	}
	p.settled = true
	if p.fault.StealEscrow {
		p.run.tr.Add(p.run.eng.Now(), trace.KindByzantine, p.id, "", "steal-escrow")
		return
	}
	p.run.eng.ScheduleArgIn(p.run.w.ActionDelay(p.id), p.run.w.EventName(p.id, "settle"), escrowSettle, p)
}

// escrowSettle is the scheduled action of settle.
//
//xchain:hotpath
func escrowSettle(x any) {
	p := x.(*escrowProc)
	if !p.active() {
		return
	}
	recording := p.run.tr.Recording()
	amount := p.run.scn.Spec.AmountVia(p.i)
	switch p.decided {
	case sig.DecisionCommit:
		if err := p.led.Release(p.run.eng.Now(), p.lockID, nil, 0); err == nil {
			if recording {
				p.run.tr.AddValue(p.run.eng.Now(), trace.KindRelease, p.id, p.down, p.lockID, amount)
			}
			if !p.fault.Silent {
				p.msgPayout = MsgPayout{PaymentID: p.run.scn.Spec.PaymentID, Amount: amount}
				p.run.net.Send(p.id, p.down, &p.msgPayout)
			}
		}
	case sig.DecisionAbort:
		if err := p.led.Refund(p.run.eng.Now(), p.lockID, p.clk.Now()); err == nil {
			if recording {
				p.run.tr.AddValue(p.run.eng.Now(), trace.KindRefund, p.id, p.up, p.lockID, amount)
			}
			if !p.fault.Silent {
				p.msgPayout = MsgPayout{PaymentID: p.run.scn.Spec.PaymentID, Amount: amount, Refund: true}
				p.run.net.Send(p.id, p.up, &p.msgPayout)
			}
		}
	}
	if recording {
		p.run.tr.Add(p.run.eng.Now(), trace.KindTerminate, p.id, "", "settled-"+string(p.decided))
	}
}

// ---------------------------------------------------------------------------
// Customer process
// ---------------------------------------------------------------------------

// customerProc is customer c_i in the weak-liveness protocol. Alice and the
// connectors place money in escrow and wait for the manager's decision; Bob
// only waits. Any customer may lose patience and ask the manager to abort,
// at no risk to her own funds.
type customerProc struct {
	run   *runState
	i     int
	id    string
	clk   *clock.Clock
	fault core.FaultSpec

	upEscrow   string
	downEscrow string

	paid     int64
	credited int64
	refunded bool
	paidIn   bool

	hasCommit      bool
	hasAbort       bool
	requestedAbort bool

	crashed bool
	term    bool
	termAt  sim.Time

	// The customer's outgoing messages, each written once before its Send:
	// the payment instruction and the abort request to the manager.
	msgPay   MsgPay
	msgAbort notary.MsgAbortRequest
}

func newCustomerProc(r *runState, i int) customerProc {
	topo := r.scn.Topology
	c := customerProc{
		run:   r,
		i:     i,
		id:    core.CustomerID(i),
		clk:   r.w.CustomerClock(i),
		fault: r.scn.FaultOf(core.CustomerID(i)),
	}
	if up, ok := topo.UpstreamEscrow(i); ok {
		c.upEscrow = up
	}
	if down, ok := topo.DownstreamEscrow(i); ok {
		c.downEscrow = down
	}
	return c
}

// ID implements netsim.Node.
func (c *customerProc) ID() string { return c.id }

func (c *customerProc) active() bool { return !c.crashed && !c.term }

func (c *customerProc) isBob() bool { return c.i == c.run.scn.Topology.N }

func (c *customerProc) start() {
	if c.fault.Crash && c.fault.CrashAt == 0 {
		c.crashed = true
		return
	}
	// Pay the agreed value into the downstream escrow (Bob has none).
	if !c.isBob() && !c.fault.RefuseToPay && !c.fault.Silent {
		c.run.eng.ScheduleArgIn(c.run.w.ActionDelay(c.id), c.run.w.EventName(c.id, "pay"), customerPay, c)
	}
	// Patience: after the configured local-time budget, ask the manager to
	// abort (unless a decision already arrived). A premature-abort Byzantine
	// customer asks immediately.
	patience := c.run.scn.PatienceOf(c.id)
	if c.fault.PrematureAbort {
		patience = 1
	}
	if patience > 0 {
		c.run.eng.ScheduleArgIn(c.clk.RealFor(patience), c.run.w.EventName(c.id, "patience"), customerLosePatience, c)
	}
}

// customerPay is the scheduled action of start.
//
//xchain:hotpath
func customerPay(x any) {
	c := x.(*customerProc)
	if !c.active() || c.requestedAbort {
		return
	}
	c.paid = c.run.scn.Spec.AmountVia(c.i)
	c.paidIn = true
	c.msgPay = MsgPay{PaymentID: c.run.scn.Spec.PaymentID, Amount: c.paid}
	c.run.net.Send(c.id, c.downEscrow, &c.msgPay)
}

// customerLosePatience sends an abort request to the transaction manager.
// The customer keeps following the protocol afterwards: whichever
// certificate the manager issues settles her escrow positions, so she risks
// nothing by asking.
//
//xchain:hotpath
func customerLosePatience(x any) {
	c := x.(*customerProc)
	if !c.active() || c.hasCommit || c.hasAbort || c.requestedAbort {
		return
	}
	c.requestedAbort = true
	if c.run.tr.Recording() {
		c.run.tr.Add(c.run.eng.Now(), trace.KindAbort, c.id, "", "lost patience")
	}
	if c.fault.Silent {
		return
	}
	c.msgAbort = notary.MsgAbortRequest{PaymentID: c.run.scn.Spec.PaymentID, Customer: c.id}
	for _, mid := range c.run.mgr.IDs() {
		c.run.net.Send(c.id, mid, &c.msgAbort)
	}
}

// Deliver implements netsim.Node.
func (c *customerProc) Deliver(from string, msg netsim.Message) {
	if !c.active() {
		return
	}
	switch m := msg.(type) {
	case *notary.MsgDecision:
		c.onDecision(m)
	case *MsgPayout:
		c.onPayout(from, m)
	}
}

// onDecision takes note of a valid decision certificate. A customer that
// holds one for a decision does not verify another for the same decision:
// her flag is set and her termination condition unchanged. One for the other
// decision is verified, because holding both is what CC forbids.
func (c *customerProc) onDecision(m *notary.MsgDecision) {
	if m.Cert.PaymentID != c.run.scn.Spec.PaymentID {
		return
	}
	if d := m.Cert.Decision; d == sig.DecisionCommit && c.hasCommit || d == sig.DecisionAbort && c.hasAbort {
		return
	}
	if !m.Cert.Verify(c.run.kr) {
		return
	}
	if len(m.Cert.Signers) < c.run.mgr.Quorum() {
		return
	}
	switch m.Cert.Decision {
	case sig.DecisionCommit:
		if !c.hasCommit {
			c.hasCommit = true
			c.holds(&m.Cert)
		}
	case sig.DecisionAbort:
		if !c.hasAbort {
			c.hasAbort = true
			c.holds(&m.Cert)
		}
	}
	c.maybeTerminate()
}

// holds traces that the customer now holds cert.
func (c *customerProc) holds(cert *sig.DecisionCert) {
	if c.run.tr.Recording() {
		c.run.tr.Add(c.run.eng.Now(), trace.KindCert, c.id, "", "holds "+cert.Describe())
	}
}

func (c *customerProc) onPayout(from string, m *MsgPayout) {
	switch {
	case from == c.downEscrow && m.Refund:
		c.credited += m.Amount
		c.refunded = true
	case from == c.upEscrow && !m.Refund:
		c.credited += m.Amount
	default:
		return
	}
	c.maybeTerminate()
}

// maybeTerminate checks whether the customer's protocol obligations are
// complete:
//
//   - with a commit certificate, Alice is done once she holds the
//     certificate (her proof that Bob has been paid); a connector or Bob is
//     done once the incoming payment arrived;
//   - with an abort certificate, a customer who paid in is done once her
//     refund arrived; Bob (who never pays) is done immediately.
func (c *customerProc) maybeTerminate() {
	if c.term {
		return
	}
	switch {
	case c.hasCommit:
		if c.i == 0 {
			c.terminate("commit-certificate")
			return
		}
		if c.credited >= c.run.scn.Spec.AmountVia(c.i-1) {
			c.terminate("paid")
		}
	case c.hasAbort:
		if !c.paidIn || c.refunded {
			c.terminate("aborted")
		}
	}
}

func (c *customerProc) terminate(reason string) {
	c.term = true
	c.termAt = c.run.eng.Now()
	c.run.tr.Add(c.run.eng.Now(), trace.KindTerminate, c.id, "", reason)
}
