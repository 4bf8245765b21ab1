package timelock

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The process-based engine renders the Figure-2 protocol as plain
// event-driven Go processes attached to the simulated network. It is the
// engine used by the large experiment sweeps; the ANTA engine in
// anta_engine.go is the formalism-faithful rendering of the same protocol,
// and TestEnginesAgree asserts their outcomes coincide.

// procEngine wires the per-participant processes of one run together;
// escrows[i] is e_i and customers[i] is c_i. It stands on the run's world
// (see standing), and so does each process: its identity — env, index, name,
// the neighbours and ledger its index fixes — is written when its slot is
// first used, and reset rewrites the rest of its state in place, all but the
// outgoing messages a run writes whole before sending, so nothing of the
// previous run — cut short, Byzantine or complete — is left for this one. The slices are regrown only for a longer chain than any
// before.
type procEngine struct {
	env       *env
	escrows   []escrowProc
	customers []customerProc
}

// reset makes pe the processes of e's run, registered on its network.
func (pe *procEngine) reset(e *env) {
	n := e.scn.Topology.N
	pe.env = e
	pe.escrows = slices.Grow(pe.escrows[:0], n)[:n]
	pe.customers = slices.Grow(pe.customers[:0], n+1)[:n+1]
	for i := range pe.escrows {
		p := &pe.escrows[i]
		if p.env == nil {
			p.place(e, i)
		}
		p.reset(e)
		e.net.Attach(p.pid, p)
	}
	for i := range pe.customers {
		c := &pe.customers[i]
		if c.env == nil {
			c.place(e, i)
		}
		c.reset(e)
		e.net.Attach(c.pid, c)
	}
}

// start schedules the initial actions of every participant plus any crash
// events from the fault specification. Participants are started in chain
// order so that runs are deterministic in the scenario seed.
func (pe *procEngine) start() {
	for i := range pe.escrows {
		pe.escrows[i].start()
	}
	for i := range pe.customers {
		pe.customers[i].start()
	}
	pe.env.w.ScheduleCrashes(pe)
}

// Crash implements core.Crasher: crash faults apply uniformly to escrows and
// customers.
func (pe *procEngine) Crash(id string, customer bool, i int) {
	if customer {
		pe.customers[i].crashed = true
	} else {
		pe.escrows[i].crashed = true
	}
	pe.env.tr.Add(pe.env.eng.Now(), trace.KindByzantine, id, "", "crash")
}

// outcome fills in customer c_i's part of the run's result (core.World.Collect).
func (pe *procEngine) outcome(i int, out *core.CustomerOutcome) {
	c := &pe.customers[i]
	out.Terminated, out.TerminatedAt = c.term, c.termAt
	out.StartedAt, out.HoldsChi, out.IssuedChi = c.started, c.hasChi, c.signedChi
	out.PaidOut, out.Received = c.paid, c.credited
}

// ---------------------------------------------------------------------------
// Escrow process (automaton e_i of Fig. 2)
// ---------------------------------------------------------------------------

// escrowProc is escrow e_i: it issues the guarantee G(d_i) upstream, waits
// for the money, issues the promise P(a_i) downstream, and then either
// forwards the certificate upstream and the money downstream, or refunds the
// money upstream when its local timeout u + a_i expires.
type escrowProc struct {
	env  *env
	i    int
	id   string
	up   string // upstream customer c_i (pays in)
	down string // downstream customer c_{i+1} (is paid out)
	// pid, upPID and downPID address e_i, c_i and c_{i+1} in the run.
	pid, upPID, downPID core.PID
	clk                 *clock.Clock
	led                 *ledger.Ledger
	fault               core.FaultSpec

	lockCreated bool
	lockID      string   // set when the lock is created
	promiseAt   sim.Time // local time u at which P(a_i) was issued
	timeout     sim.Timer
	settled     bool // the lock has been released or refunded (or stolen)
	crashed     bool
	done        bool

	// The escrow's outgoing messages, each written once before its Send: G
	// upstream, P downstream, and the money — released downstream or
	// refunded upstream, never both. chi is the certificate as received,
	// forwarded upstream as is.
	msgG     MsgGuarantee
	msgP     MsgPromise
	msgMoney MsgMoney
	chi      *MsgCert
}

// place makes the unused slot p escrow e_i on e's world for good: what the
// slot's index fixes on every chain.
func (p *escrowProc) place(e *env, i int) {
	p.env, p.i, p.id = e, i, core.EscrowID(i)
	p.up, p.down = core.CustomerID(i), core.CustomerID(i+1)
	p.led = e.w.Ledger(i)
}

// reset makes p, placed, its escrow in e's run: it rewrites every field of
// the run's state. Only the outgoing messages are left, each written whole
// before its Send.
func (p *escrowProc) reset(e *env) {
	p.clk = e.w.EscrowClock(p.i)
	p.pid, p.upPID, p.downPID = e.w.EscrowPID(p.i), e.w.CustomerPID(p.i), e.w.CustomerPID(p.i+1)
	p.fault = e.w.FaultOf(p.pid)
	p.lockCreated, p.lockID, p.promiseAt, p.timeout = false, "", 0, sim.Timer{}
	p.settled, p.crashed, p.done, p.chi = false, false, false, nil
}

// ID implements netsim.Node.
func (p *escrowProc) ID() string { return p.id }

func (p *escrowProc) active() bool { return !p.crashed && !p.done }

// start issues the guarantee G(d_i) to the upstream customer.
func (p *escrowProc) start() {
	if p.fault.Silent || p.fault.Crash && p.fault.CrashAt == 0 {
		return
	}
	p.env.eng.ScheduleArgIn(p.env.w.ActionDelay(p.pid), "send-G", escrowSendG, p)
}

// escrowSendG is the scheduled action of start.
//
//xchain:hotpath
func escrowSendG(x any) {
	p := x.(*escrowProc)
	if !p.active() || p.fault.Silent {
		return
	}
	g := &p.msgG.G
	g.PaymentID, g.Escrow, g.Customer = p.env.scn.Spec.PaymentID, p.id, p.up
	g.D, g.IssuedAt = p.env.params.D[p.i], p.clk.Now()
	g.Sign(p.env.kr, p.pid)
	if p.env.tr.Recording() {
		p.env.tr.Add(p.env.eng.Now(), trace.KindPromise, p.id, p.up, p.msgG.Describe())
	}
	p.env.net.Post(p.pid, p.upPID, &p.msgG)
}

// Deliver implements netsim.Node.
func (p *escrowProc) Deliver(from core.PID, msg netsim.Message) {
	if !p.active() {
		return
	}
	switch m := msg.(type) {
	case *MsgMoney:
		p.onMoney(from, m)
	case *MsgCert:
		p.onCert(from, m)
	}
}

// onMoney handles the receipt r(c_i, $): the upstream customer instructs the
// escrow to place the agreed value in escrow.
func (p *escrowProc) onMoney(from core.PID, m *MsgMoney) {
	if from != p.upPID || p.lockCreated || p.settled {
		return
	}
	want := p.env.scn.Spec.AmountVia(p.i)
	if m.Amount != want {
		p.env.w.Report(trace.Event{
			Kind: trace.KindDetection, Actor: p.id, Peer: p.up,
			Label: "wrong-amount", Value: m.Amount, Extra: fmt.Sprintf("expected %d", want),
		}, nil)
		return
	}
	p.lockID = p.env.w.LockID(p.i)
	if _, err := p.led.Escrow(p.env.eng.Now(), p.lockID, p.upPID, p.downPID, want, ledger.Condition{}); err != nil {
		// A failed lock is the escrow's own inability to execute its role,
		// not a rejection of peer input: a violation, never excused.
		p.env.w.Report(trace.Event{
			Kind: trace.KindViolation, Actor: p.id, Peer: p.up,
			Label: "lock-failed", Value: want, Extra: err.Error(),
		}, nil)
		return
	}
	p.lockCreated = true
	p.env.tr.AddValue(p.env.eng.Now(), trace.KindLock, p.id, p.up, p.lockID, want)

	if p.fault.Silent {
		// A silent escrow swallows the money: it never issues P(a_i), never
		// refunds. ES is its own problem; the customers' security depends on
		// their escrows abiding, so this case only matters for CS preconditions.
		return
	}
	// Issue the promise P(a_i) to the downstream customer and start the
	// timeout clock (u := now).
	p.env.eng.ScheduleArgIn(p.env.w.ActionDelay(p.pid), "send-P", escrowSendP, p)
}

// escrowSendP is the scheduled action of onMoney.
//
//xchain:hotpath
func escrowSendP(x any) {
	p := x.(*escrowProc)
	if !p.active() {
		return
	}
	a := p.env.params.A[p.i]
	p.promiseAt = p.clk.Now()
	pr := &p.msgP.P
	pr.PaymentID, pr.Escrow, pr.Customer = p.env.scn.Spec.PaymentID, p.id, p.down
	pr.A, pr.Epsilon, pr.IssuedAt = a, p.env.params.Epsilon, p.promiseAt
	pr.Sign(p.env.kr, p.pid)
	if p.env.tr.Recording() {
		p.env.tr.Add(p.env.eng.Now(), trace.KindPromise, p.id, p.down, p.msgP.Describe())
	}
	p.env.net.Post(p.pid, p.downPID, &p.msgP)
	// Arm the timeout: now >= u + a_i triggers the refund branch.
	p.timeout = p.env.eng.ScheduleArgIn(p.clk.RealUntilLocal(p.promiseAt+a), "timeout", escrowTimeout, p)
}

// onCert handles the receipt r(c_{i+1}, chi) of the certificate from the
// downstream customer before the timeout.
func (p *escrowProc) onCert(from core.PID, m *MsgCert) {
	if from != p.downPID || p.settled || !p.lockCreated {
		return
	}
	topo := p.env.scn.Topology
	if !m.Cert.Verify(p.env.kr, topo.Bob()) || m.Cert.PaymentID != p.env.scn.Spec.PaymentID {
		p.env.w.Report(trace.Event{Kind: trace.KindDetection, Actor: p.id, Peer: p.down, Label: "invalid-certificate"}, nil)
		return
	}
	// The certificate only counts if it arrives before the local deadline
	// u + a_i; Fig. 2 models this by the timeout transition competing with
	// the receive transition.
	if p.promiseAt != 0 && p.clk.Now() >= p.promiseAt+p.env.params.A[p.i] {
		return // timeout branch wins; onTimeout will refund
	}
	p.settled = true
	p.timeout.Cancel()
	p.chi = m
	if p.env.tr.Recording() {
		p.env.tr.Add(p.env.eng.Now(), trace.KindCert, p.id, p.down, m.Describe())
	}

	if p.fault.StealEscrow {
		// A thieving escrow accepts the certificate but neither forwards it
		// nor pays anyone: the funds stay locked.
		p.env.tr.Add(p.env.eng.Now(), trace.KindByzantine, p.id, "", "steal-escrow")
		p.done = true
		return
	}
	p.env.eng.ScheduleArgIn(p.env.w.ActionDelay(p.pid), "settle", escrowSettle, p)
}

// escrowSettle is the scheduled action of onCert: forward chi to the
// upstream customer (unless withholding) and the money to the downstream
// customer.
//
//xchain:hotpath
func escrowSettle(x any) {
	p := x.(*escrowProc)
	if p.crashed {
		return
	}
	recording := p.env.tr.Recording()
	if !p.fault.WithholdCertificate && !p.fault.Silent {
		p.env.net.Post(p.pid, p.upPID, p.chi)
	}
	if err := p.led.Release(p.env.eng.Now(), p.lockID, nil, 0); err == nil {
		amount := p.env.scn.Spec.AmountVia(p.i)
		if recording {
			p.env.tr.AddValue(p.env.eng.Now(), trace.KindRelease, p.id, p.down, p.lockID, amount)
		}
		if !p.fault.Silent {
			p.msgMoney = MsgMoney{PaymentID: p.env.scn.Spec.PaymentID, Amount: amount}
			p.env.net.Post(p.pid, p.downPID, &p.msgMoney)
		}
	}
	p.done = true
	if recording {
		p.env.tr.Add(p.env.eng.Now(), trace.KindTerminate, p.id, "", "settled-commit")
	}
}

// escrowTimeout fires when the certificate did not arrive by local time
// u + a_i: the escrow refunds the money to the upstream customer.
//
//xchain:hotpath
func escrowTimeout(x any) {
	p := x.(*escrowProc)
	if !p.active() || p.settled || !p.lockCreated {
		return
	}
	p.settled = true
	recording := p.env.tr.Recording()
	if recording {
		p.env.tr.Add(p.env.eng.Now(), trace.KindTimeout, p.id, "", fmt.Sprintf("a_%d expired", p.i))
	}
	if p.fault.StealEscrow {
		if recording {
			p.env.tr.Add(p.env.eng.Now(), trace.KindByzantine, p.id, "", "steal-escrow")
		}
		p.done = true
		return
	}
	p.env.eng.ScheduleArgIn(p.env.w.ActionDelay(p.pid), "refund", escrowRefund, p)
}

// escrowRefund is the scheduled action of escrowTimeout.
//
//xchain:hotpath
func escrowRefund(x any) {
	p := x.(*escrowProc)
	if p.crashed {
		return
	}
	recording := p.env.tr.Recording()
	if err := p.led.Refund(p.env.eng.Now(), p.lockID, p.clk.Now()); err == nil {
		amount := p.env.scn.Spec.AmountVia(p.i)
		if recording {
			p.env.tr.AddValue(p.env.eng.Now(), trace.KindRefund, p.id, p.up, p.lockID, amount)
		}
		if !p.fault.Silent {
			p.msgMoney = MsgMoney{PaymentID: p.env.scn.Spec.PaymentID, Amount: amount, Refund: true}
			p.env.net.Post(p.pid, p.upPID, &p.msgMoney)
		}
	}
	p.done = true
	if recording {
		p.env.tr.Add(p.env.eng.Now(), trace.KindTerminate, p.id, "", "settled-refund")
	}
}

// ---------------------------------------------------------------------------
// Customer process (automata c_0, c_i, c_n of Fig. 2)
// ---------------------------------------------------------------------------

// customerProc covers Alice (i=0), the connectors Chloe_i (0<i<n) and Bob
// (i=n); Alice and Bob are the simplifications of the Chloe automaton shown
// in Fig. 2.
type customerProc struct {
	env   *env
	i     int
	id    string
	clk   *clock.Clock
	fault core.FaultSpec

	upEscrow   string // e_{i-1}, "" for Alice
	downEscrow string // e_i, "" for Bob
	// pid, upPID and downPID address c_i and its two escrows in the run
	// (core.NoPID where upEscrow or downEscrow is "").
	pid, upPID, downPID core.PID

	gotG      bool
	gotP      bool
	sentMoney bool
	hasChi    bool
	signedChi bool
	crashed   bool

	paid     int64
	credited int64

	started sim.Time
	term    bool
	termAt  sim.Time

	// The customer's outgoing messages, each written once before its Send:
	// the money downstream and, for Bob, the certificate he signs. chi is the
	// certificate as received, forwarded upstream as is.
	msgMoney MsgMoney
	msgCert  MsgCert
	chi      *MsgCert
}

// place makes the unused slot c customer c_i on e's world for good, as
// escrowProc.place does an escrow.
func (c *customerProc) place(e *env, i int) {
	c.env, c.i, c.id = e, i, core.CustomerID(i)
	c.upEscrow, _ = e.scn.Topology.UpstreamEscrow(i)
}

// reset makes c, placed, its customer in e's run, as escrowProc.reset does an
// escrow. The downstream escrow is the run's, since the chain's length decides
// who is Bob.
func (c *customerProc) reset(e *env) {
	c.clk = e.w.CustomerClock(c.i)
	c.pid, c.upPID, c.downPID = e.w.CustomerPID(c.i), e.w.UpstreamEscrowPID(c.i), e.w.DownstreamEscrowPID(c.i)
	c.fault = e.w.FaultOf(c.pid)
	c.downEscrow, _ = e.scn.Topology.DownstreamEscrow(c.i)
	c.gotG, c.gotP, c.sentMoney = false, false, false
	c.hasChi, c.signedChi, c.crashed = false, false, false
	c.paid, c.credited, c.started = 0, 0, 0
	c.term, c.termAt, c.chi = false, 0, nil
}

// ID implements netsim.Node.
func (c *customerProc) ID() string { return c.id }

func (c *customerProc) active() bool { return !c.crashed && !c.term }

func (c *customerProc) start() {
	// Customers are reactive in Fig. 2: they only wait for promises first.
	if c.fault.Crash && c.fault.CrashAt == 0 {
		c.crashed = true
	}
}

// Deliver implements netsim.Node.
func (c *customerProc) Deliver(from core.PID, msg netsim.Message) {
	if !c.active() {
		return
	}
	switch m := msg.(type) {
	case *MsgGuarantee:
		c.onGuarantee(from, m)
	case *MsgPromise:
		c.onPromise(from, m)
	case *MsgMoney:
		c.onMoney(from, m)
	case *MsgCert:
		c.onCert(from, m)
	}
}

// onGuarantee handles r(e_i, G(d_i)) from the customer's downstream escrow.
func (c *customerProc) onGuarantee(from core.PID, m *MsgGuarantee) {
	if from != c.downPID || c.gotG {
		return
	}
	if !m.G.Verify(c.env.kr) || m.G.PaymentID != c.env.scn.Spec.PaymentID {
		return
	}
	c.gotG = true
	c.maybeSendMoney()
}

// onPromise handles r(e_{i-1}, P(a_{i-1})) from the upstream escrow. For Bob
// this is the trigger to sign and return the certificate chi.
func (c *customerProc) onPromise(from core.PID, m *MsgPromise) {
	if from != c.upPID || c.gotP {
		return
	}
	if !m.P.Verify(c.env.kr) || m.P.PaymentID != c.env.scn.Spec.PaymentID {
		return
	}
	c.gotP = true
	if c.isBob() {
		c.bobIssueChi()
		return
	}
	c.maybeSendMoney()
}

func (c *customerProc) isAlice() bool { return c.i == 0 }
func (c *customerProc) isBob() bool   { return c.i == c.env.scn.Topology.N }

// maybeSendMoney sends the money to the downstream escrow once the required
// promises are in hand: Alice needs only G(d_0); Chloe_i needs both G(d_i)
// and P(a_{i-1}).
func (c *customerProc) maybeSendMoney() {
	if c.sentMoney || c.isBob() {
		return
	}
	if !c.gotG {
		return
	}
	if !c.isAlice() && !c.gotP {
		return
	}
	if c.fault.RefuseToPay || c.fault.Silent {
		return
	}
	c.sentMoney = true
	c.env.eng.ScheduleArgIn(c.env.w.ActionDelay(c.pid), "send-$", customerSendMoney, c)
}

// customerSendMoney is the scheduled action of maybeSendMoney.
//
//xchain:hotpath
func customerSendMoney(x any) {
	c := x.(*customerProc)
	if !c.active() {
		return
	}
	c.paid = c.env.scn.Spec.AmountVia(c.i)
	if c.started == 0 {
		c.started = c.env.eng.Now()
	}
	c.msgMoney = MsgMoney{PaymentID: c.env.scn.Spec.PaymentID, Amount: c.paid}
	c.env.net.Post(c.pid, c.downPID, &c.msgMoney)
}

// forgedSig is what a forging Bob puts where his signature belongs.
var forgedSig = sig.Raw([]byte("forged"))

// bobIssueChi is Bob's reaction to the promise P(a_{n-1}): sign the
// certificate chi and send it to his escrow.
func (c *customerProc) bobIssueChi() {
	if c.fault.Silent || c.fault.WithholdCertificate {
		return
	}
	c.env.eng.ScheduleArgIn(c.env.w.ActionDelay(c.pid), "send-chi", customerSendChi, c)
}

// customerSendChi is the scheduled action of bobIssueChi.
//
//xchain:hotpath
func customerSendChi(x any) {
	c := x.(*customerProc)
	if !c.active() {
		return
	}
	recording := c.env.tr.Recording()
	if c.fault.ForgeCertificate {
		// A forged certificate carries a signature that does not verify
		// against Bob's key; correct escrows must reject it.
		c.msgCert.Cert = sig.PaymentCert{
			PaymentID: c.env.scn.Spec.PaymentID,
			Issuer:    c.id,
			Payer:     c.env.scn.Topology.Alice(),
			IssuedAt:  c.clk.Now(),
			Sig:       forgedSig,
		}
		if recording {
			c.env.tr.Add(c.env.eng.Now(), trace.KindByzantine, c.id, "", "forge-certificate")
		}
	} else {
		chi := &c.msgCert.Cert
		chi.PaymentID, chi.Issuer, chi.Payer, chi.IssuedAt = c.env.scn.Spec.PaymentID, c.id, c.env.scn.Topology.Alice(), c.clk.Now()
		chi.Sign(c.env.kr, c.pid)
		c.signedChi = true
		if c.started == 0 {
			c.started = c.env.eng.Now()
		}
	}
	if recording {
		c.env.tr.Add(c.env.eng.Now(), trace.KindCert, c.id, c.upEscrow, c.msgCert.Describe())
	}
	c.env.net.Post(c.pid, c.upPID, &c.msgCert)
}

// onMoney handles money notifications from either escrow: a refund of the
// customer's own payment from the downstream escrow, or the incoming payment
// from the upstream escrow.
func (c *customerProc) onMoney(from core.PID, m *MsgMoney) {
	switch {
	case from == c.downPID && m.Refund:
		// Refund of the money this customer had put in escrow: work is done.
		c.credited += m.Amount
		c.terminate("refunded")
	case from == c.upPID && !m.Refund:
		c.credited += m.Amount
		// A connector terminates once her upstream escrow pays her; Bob
		// terminates as soon as he is paid.
		if c.isBob() || c.hasChi || c.env.w.Byzantine(c.pid) {
			c.terminate("paid")
			return
		}
		// Money arrived before the certificate (possible when the upstream
		// escrow settles quickly); remember it and terminate when chi arrives.
		c.term = false
	}
}

// onCert handles r(e_i, chi): the downstream escrow forwarded the
// certificate, meaning this customer's payment completed downstream. A
// connector forwards chi to her upstream escrow and then waits for the money;
// Alice terminates immediately, holding her proof of payment.
func (c *customerProc) onCert(from core.PID, m *MsgCert) {
	if from != c.downPID || c.hasChi {
		return
	}
	if !m.Cert.Verify(c.env.kr, c.env.scn.Topology.Bob()) {
		return
	}
	c.hasChi = true
	c.chi = m
	if c.env.tr.Recording() {
		c.env.tr.Add(c.env.eng.Now(), trace.KindCert, c.id, c.downEscrow, "received "+m.Describe())
	}
	if c.isAlice() {
		c.terminate("has-certificate")
		return
	}
	// Chloe: forward chi to the upstream escrow to claim the incoming payment.
	if c.fault.WithholdCertificate || c.fault.Silent {
		c.env.tr.Add(c.env.eng.Now(), trace.KindByzantine, c.id, "", "withhold-certificate")
		return
	}
	c.env.eng.ScheduleArgIn(c.env.w.ActionDelay(c.pid), "fwd-chi", customerFwdChi, c)
	// If the upstream money already arrived, we are done.
	if c.credited >= c.paid {
		c.terminate("paid")
	}
}

// customerFwdChi is the scheduled action of onCert.
//
//xchain:hotpath
func customerFwdChi(x any) {
	c := x.(*customerProc)
	if c.crashed {
		return
	}
	c.env.net.Post(c.pid, c.upPID, c.chi)
}

func (c *customerProc) terminate(reason string) {
	if c.term {
		return
	}
	c.term = true
	c.termAt = c.env.eng.Now()
	c.env.tr.Add(c.env.eng.Now(), trace.KindTerminate, c.id, "", reason)
}
