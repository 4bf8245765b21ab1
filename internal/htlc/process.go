package htlc

import (
	"slices"
	"strconv"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runState holds one HTLC run and its world's handles; escrows[i] is e_i
// and customers[i] is c_i. It stands on the run's world (core.Standing):
// reset overwrites every field a run reads and every process, so nothing of
// the previous run is left for this one, and the slices are regrown only for
// a longer chain than any before.
type runState struct {
	proto *Protocol
	w     *core.World
	scn   *core.Scenario // the world's
	eng   *sim.Engine
	net   *netsim.Network
	tr    *trace.Trace

	preimage []byte
	hashLock [32]byte

	escrows   []escrowProc
	customers []customerProc
}

// reset makes r the run under p of the scenario w has been reset for, with
// its processes registered on w's network.
func (r *runState) reset(p *Protocol, w *core.World) {
	s := w.Scenario()
	r.proto, r.w, r.scn = p, w, s
	r.eng, r.net, r.tr = w.Eng, w.Net, w.Trace
	// Bob's invoice: the preimage is derived deterministically from the
	// scenario so runs are reproducible.
	r.preimage = append(append(r.preimage[:0], "preimage-"...), s.Spec.PaymentID...)
	r.preimage = strconv.AppendInt(append(r.preimage, '-'), s.Seed, 10)
	r.hashLock = ledger.HashPreimage(r.preimage)

	topo := s.Topology
	r.escrows = slices.Grow(r.escrows[:0], topo.N)[:topo.N]
	r.customers = slices.Grow(r.customers[:0], topo.N+1)[:topo.N+1]
	for i := range r.escrows {
		r.escrows[i] = escrowProc{
			run:     r,
			i:       i,
			id:      core.EscrowID(i),
			up:      topo.UpstreamCustomer(i),
			down:    topo.DownstreamCustomer(i),
			pid:     w.EscrowPID(i),
			upPID:   w.CustomerPID(i),
			downPID: w.CustomerPID(i + 1),
			clk:     r.w.EscrowClock(i),
			led:     r.w.Ledger(i),
			fault:   w.FaultOf(w.EscrowPID(i)),
		}
		r.net.Attach(r.escrows[i].pid, &r.escrows[i])
	}
	for i := range r.customers {
		c := &r.customers[i]
		*c = customerProc{
			run:     r,
			i:       i,
			id:      core.CustomerID(i),
			pid:     w.CustomerPID(i),
			upPID:   w.UpstreamEscrowPID(i),
			downPID: w.DownstreamEscrowPID(i),
			clk:     r.w.CustomerClock(i),
			fault:   w.FaultOf(w.CustomerPID(i)),
		}
		if up, ok := topo.UpstreamEscrow(i); ok {
			c.upEscrow = up
		}
		if down, ok := topo.DownstreamEscrow(i); ok {
			c.downEscrow = down
		}
		r.net.Attach(c.pid, c)
	}
}

func (r *runState) start() {
	for i := range r.customers {
		r.customers[i].start()
	}
	r.w.ScheduleCrashes(r)
}

// Crash implements core.Crasher.
func (r *runState) Crash(_ string, customer bool, i int) {
	if customer {
		r.customers[i].crashed = true
	} else {
		r.escrows[i].crashed = true
	}
}

func (r *runState) collect(fired uint64) *core.RunResult {
	// An HTLC chain produces no signed payment certificate: Alice's only
	// evidence is the bare preimage, which HoldsChi deliberately does not
	// count, so HoldsChi and IssuedChi stay false. Experiment E7 keys on
	// this difference.
	return r.w.Collect(r.proto.Name(), fired, func(i int, out *core.CustomerOutcome) {
		c := &r.customers[i]
		out.Terminated = c.term
		out.TerminatedAt = c.termAt
		out.PaidOut = c.paid
		out.Received = c.credited
	})
}

// ---------------------------------------------------------------------------
// Escrow process
// ---------------------------------------------------------------------------

// escrowProc is escrow e_i: it holds the hash-timelocked contract between
// c_i (payer) and c_{i+1} (payee). Unlike the Figure-2 escrow it enforces
// the hashlock and the timelock mechanically; it makes no promises.
type escrowProc struct {
	run  *runState
	i    int
	id   string
	up   string
	down string
	// pid, upPID and downPID address e_i, c_i and c_{i+1} in the run.
	pid, upPID, downPID core.PID
	clk                 *clock.Clock
	led                 *ledger.Ledger
	fault               core.FaultSpec

	lockCreated bool
	lock        ledger.Handle // set when the lock is created
	lockID      string        // the lock's ID, rendered when a trace records
	settled     bool
	crashed     bool
	expiry      sim.Time

	// The escrow's outgoing messages, each written once before its Send (see
	// the message types).
	msgLockCreated MsgLockCreated
	msgPaid        MsgPaid
	msgClaimed     MsgClaimed
	msgRefunded    MsgRefunded
}

// ID implements netsim.Node.
func (p *escrowProc) ID() string { return p.id }

func (p *escrowProc) active() bool { return !p.crashed }

// Deliver implements netsim.Node.
func (p *escrowProc) Deliver(from core.PID, msg netsim.Message) {
	if !p.active() {
		return
	}
	switch m := msg.(type) {
	case *MsgCreateLock:
		p.onCreateLock(from, m)
	case *MsgClaim:
		p.onClaim(from, m)
	}
}

func (p *escrowProc) onCreateLock(from core.PID, m *MsgCreateLock) {
	if from != p.upPID || p.lockCreated {
		return
	}
	want := p.run.scn.Spec.AmountVia(p.i)
	if m.Amount != want || m.PaymentID != p.run.scn.Spec.PaymentID {
		p.run.w.Report(trace.Event{Kind: trace.KindDetection, Actor: p.id, Peer: p.up, Label: "wrong-amount", Value: m.Amount}, nil)
		return
	}
	cond := ledger.Condition{HashLock: m.HashLock, Expiry: m.Expiry}
	lock, err := p.led.EscrowHop(p.run.eng.Now(), p.run.scn.Spec.PaymentID, p.i, p.upPID, p.downPID, want, cond)
	if err != nil {
		p.run.w.Report(trace.Event{Kind: trace.KindViolation, Actor: p.id, Peer: p.up, Label: "lock-failed", Value: want}, nil)
		return
	}
	p.lock, p.lockCreated = lock, true
	p.expiry = m.Expiry
	if p.run.tr.Recording() {
		p.lockID = lock.ID()
		p.run.tr.AddValue(p.run.eng.Now(), trace.KindLock, p.id, p.up, p.lockID, want)
	}
	if !p.fault.Silent {
		p.msgLockCreated = MsgLockCreated{PaymentID: m.PaymentID, Amount: want, HashLock: m.HashLock}
		p.run.eng.ScheduleArgIn(p.run.w.ActionDelay(p.pid), "notify-lock", escrowNotifyLock, p)
	}
	// Arm the refund at the lock's expiry (escrow-local clock).
	p.run.eng.ScheduleArgIn(p.clk.RealUntilLocal(m.Expiry), "expiry", escrowExpiry, p)
}

// escrowNotifyLock is the scheduled action of onCreateLock.
//
//xchain:hotpath
func escrowNotifyLock(x any) {
	p := x.(*escrowProc)
	if p.active() {
		p.run.net.Post(p.pid, p.downPID, &p.msgLockCreated)
	}
}

func (p *escrowProc) onClaim(from core.PID, m *MsgClaim) {
	if from != p.downPID || !p.lockCreated || p.settled {
		return
	}
	if m.PaymentID != p.run.scn.Spec.PaymentID {
		return
	}
	if p.fault.StealEscrow {
		p.run.tr.Add(p.run.eng.Now(), trace.KindByzantine, p.id, "", "steal-escrow")
		p.settled = true
		return
	}
	amount := p.run.scn.Spec.AmountVia(p.i)
	if err := p.led.ReleaseLock(p.run.eng.Now(), p.lock, m.Preimage, p.clk.Now()); err != nil {
		p.run.w.Report(trace.Event{Kind: trace.KindDetection, Actor: p.id, Peer: p.down, Label: "claim-rejected"}, err)
		return
	}
	p.settled = true
	if p.run.tr.Recording() {
		p.run.tr.AddValue(p.run.eng.Now(), trace.KindRelease, p.id, p.down, p.lockID, amount)
	}
	if p.fault.Silent {
		return
	}
	p.msgPaid = MsgPaid{PaymentID: m.PaymentID, Amount: amount}
	p.msgClaimed = MsgClaimed{PaymentID: m.PaymentID, Amount: amount, Preimage: m.Preimage}
	p.run.eng.ScheduleArgIn(p.run.w.ActionDelay(p.pid), "settle", escrowSettle, p)
}

// escrowSettle is the scheduled action of onClaim.
//
//xchain:hotpath
func escrowSettle(x any) {
	p := x.(*escrowProc)
	if !p.active() {
		return
	}
	p.run.net.Post(p.pid, p.downPID, &p.msgPaid)
	if !p.fault.WithholdCertificate {
		// Exposing the preimage to the payer is what lets the claim
		// cascade upstream; withholding it is the classic griefing attack.
		p.run.net.Post(p.pid, p.upPID, &p.msgClaimed)
	}
}

// escrowExpiry fires at the lock's expiry: a lock nobody claimed is refunded
// to its payer.
//
//xchain:hotpath
func escrowExpiry(x any) {
	p := x.(*escrowProc)
	if !p.active() || !p.lockCreated || p.settled {
		return
	}
	if p.fault.StealEscrow {
		p.settled = true
		return
	}
	amount := p.run.scn.Spec.AmountVia(p.i)
	if err := p.led.RefundLock(p.run.eng.Now(), p.lock, p.clk.Now()); err != nil {
		// The claim may have raced the expiry; nothing to do.
		return
	}
	p.settled = true
	if p.run.tr.Recording() {
		p.run.tr.AddValue(p.run.eng.Now(), trace.KindRefund, p.id, p.up, p.lockID, amount)
	}
	if !p.fault.Silent {
		p.msgRefunded = MsgRefunded{PaymentID: p.run.scn.Spec.PaymentID, Amount: amount}
		p.run.net.Post(p.pid, p.upPID, &p.msgRefunded)
	}
}

// ---------------------------------------------------------------------------
// Customer process
// ---------------------------------------------------------------------------

// customerProc is customer c_i in the HTLC chain.
type customerProc struct {
	run   *runState
	i     int
	id    string
	clk   *clock.Clock
	fault core.FaultSpec

	upEscrow   string
	downEscrow string
	// pid, upPID and downPID address c_i and its two escrows in the run
	// (core.NoPID for a missing one).
	pid, upPID, downPID core.PID

	incomingLock bool
	outgoingLock bool
	paid         int64
	credited     int64
	gotPreimage  bool
	outResolved  bool // outgoing lock claimed or refunded
	inResolved   bool // incoming lock claimed (by us) or known refunded

	crashed bool
	term    bool
	termAt  sim.Time

	// The customer's outgoing messages, each written once before its Send:
	// the lock instruction downstream and the claim upstream.
	msgCreateLock MsgCreateLock
	msgClaim      MsgClaim
}

// ID implements netsim.Node.
func (c *customerProc) ID() string { return c.id }

func (c *customerProc) active() bool { return !c.crashed && !c.term }

func (c *customerProc) isAlice() bool { return c.i == 0 }
func (c *customerProc) isBob() bool   { return c.i == c.run.scn.Topology.N }

func (c *customerProc) start() {
	if c.fault.Crash && c.fault.CrashAt == 0 {
		c.crashed = true
		return
	}
	if c.isAlice() {
		c.createOutgoingLock()
	}
}

// createOutgoingLock asks the downstream escrow to lock this customer's
// money under the hashlock with this hop's expiry.
func (c *customerProc) createOutgoingLock() {
	if c.outgoingLock || c.isBob() || c.fault.RefuseToPay || c.fault.Silent {
		return
	}
	c.outgoingLock = true
	c.msgCreateLock = MsgCreateLock{
		PaymentID: c.run.scn.Spec.PaymentID,
		Amount:    c.run.scn.Spec.AmountVia(c.i),
		HashLock:  c.run.hashLock[:],
		Expiry:    c.run.proto.ExpiryOf(c.i, c.run.scn.Topology.N, c.run.scn.Timing),
	}
	c.run.eng.ScheduleArgIn(c.run.w.ActionDelay(c.pid), "lock", customerLock, c)
}

// customerLock is the scheduled action of createOutgoingLock.
//
//xchain:hotpath
func customerLock(x any) {
	c := x.(*customerProc)
	if !c.active() {
		return
	}
	c.paid = c.msgCreateLock.Amount
	c.run.net.Post(c.pid, c.downPID, &c.msgCreateLock)
}

// Deliver implements netsim.Node.
func (c *customerProc) Deliver(from core.PID, msg netsim.Message) {
	if !c.active() {
		return
	}
	switch m := msg.(type) {
	case *MsgLockCreated:
		c.onLockCreated(from, m)
	case *MsgClaimed:
		c.onClaimed(from, m)
	case *MsgPaid:
		c.onPaid(from, m)
	case *MsgRefunded:
		c.onRefunded(from, m)
	}
}

// onLockCreated reacts to the incoming lock at the upstream escrow: a
// connector extends the chain by locking at her own escrow; Bob claims by
// revealing the preimage.
func (c *customerProc) onLockCreated(from core.PID, m *MsgLockCreated) {
	if from != c.upPID || c.incomingLock {
		return
	}
	if !ledger.CheckPreimage(m.HashLock, c.run.preimage) {
		// A hashlock Bob cannot open is worthless; an honest connector would
		// refuse to extend the chain for it. (Only reachable with a Byzantine
		// upstream party inventing its own hashlock.)
		return
	}
	c.incomingLock = true
	if c.isBob() {
		if c.fault.WithholdCertificate || c.fault.Silent {
			// Bob never reveals the preimage: the whole chain times out.
			c.run.tr.Add(c.run.eng.Now(), trace.KindByzantine, c.id, "", "withhold-preimage")
			return
		}
		c.msgClaim = MsgClaim{PaymentID: m.PaymentID, Preimage: c.run.preimage}
		c.run.eng.ScheduleArgIn(c.run.w.ActionDelay(c.pid), "claim", customerClaim, c)
		return
	}
	c.createOutgoingLock()
}

// onClaimed learns the preimage from the downstream escrow (our outgoing
// lock was claimed) and uses it to claim the incoming lock upstream.
func (c *customerProc) onClaimed(from core.PID, m *MsgClaimed) {
	if from != c.downPID {
		return
	}
	c.outResolved = true
	c.gotPreimage = true
	if c.isAlice() {
		// Alice's payment completed; the preimage is her (informal) evidence.
		c.terminate("payment-complete")
		return
	}
	if c.fault.Silent {
		return
	}
	c.msgClaim = MsgClaim{PaymentID: m.PaymentID, Preimage: m.Preimage}
	c.run.eng.ScheduleArgIn(c.run.w.ActionDelay(c.pid), "claim-up", customerClaim, c)
}

// customerClaim is the scheduled action of Bob's claim and of a connector's
// claim upstream: reveal the preimage to the upstream escrow.
//
//xchain:hotpath
func customerClaim(x any) {
	c := x.(*customerProc)
	if c.active() {
		c.run.net.Post(c.pid, c.upPID, &c.msgClaim)
	}
}

// onPaid credits an incoming payment from the upstream escrow.
func (c *customerProc) onPaid(from core.PID, m *MsgPaid) {
	if from != c.upPID {
		return
	}
	c.credited += m.Amount
	c.inResolved = true
	c.maybeTerminate()
}

// onRefunded handles the refund of this customer's own outgoing lock.
func (c *customerProc) onRefunded(from core.PID, m *MsgRefunded) {
	if from != c.downPID {
		return
	}
	c.credited += m.Amount
	c.outResolved = true
	c.maybeTerminate()
}

func (c *customerProc) maybeTerminate() {
	if c.term {
		return
	}
	switch {
	case c.isAlice():
		if c.outResolved {
			c.terminate("resolved")
		}
	case c.isBob():
		if c.inResolved {
			c.terminate("paid")
		}
	default:
		// A connector is done once her own lock is resolved and she has no
		// claim left to make upstream: either she never learned the preimage
		// (refund path), or her upstream claim has been paid out.
		if c.outResolved && (!c.gotPreimage || c.inResolved) {
			c.terminate("resolved")
		}
	}
}

func (c *customerProc) terminate(reason string) {
	c.term = true
	c.termAt = c.run.eng.Now()
	c.run.tr.Add(c.run.eng.Now(), trace.KindTerminate, c.id, "", reason)
}
