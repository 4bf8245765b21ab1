package timelock

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/anta"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The ANTA engine renders Figure 2 literally: one timed automaton per
// participant, executed by the generic interpreter in internal/anta. It is
// the formalism-faithful twin of the process engine; TestEnginesAgree in
// cross_test.go checks both yield the same outcomes on the same scenarios.
//
// What the figure fixes is compiled once per process (figure2): the four
// automata's states, transitions and the guards, actions and emitters below,
// package-level functions of the *anta.Context. What a run fixes — which
// e_i or c_i, its neighbours, amount, window, ledger, fault and the messages
// it sends — is the adapter (antaEscrow, antaCustomer) the context hands
// them, as a process is the argument of its action in process.go.
//
// The ANTA engine models honest behaviour plus the crash, silent,
// refuse-to-pay and withhold-certificate faults (the deviations expressible
// by omitting output actions). Richer Byzantine behaviour (forgery,
// equivocation, theft) is exercised through the process engine.

// varU indexes the escrow automaton's one clock variable: u, the local time
// at which P(a_i) was issued.
const varU = 0

// figure2 is Figure 2 compiled, on first use: the escrow automaton e_i and
// the customer automata c_0 (Alice), c_i (Chloe) and c_n (Bob).
var figure2 = sync.OnceValue(func() (f struct{ escrow, alice, chloe, bob *anta.Program }) {
	sendMoney := anta.State{Name: "send_money", Kind: anta.Output, Next: "wait_outcome", Emit: customerEmitMoney}
	f.escrow = anta.MustCompile(anta.Spec{
		Name: "e_i", Initial: "send_G", Vars: []string{varU: "u"},
		States: []anta.State{
			{Name: "send_G", Kind: anta.Output, Next: "wait_money", Emit: escrowEmitG},
			{Name: "wait_money", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(c_i,$)", To: "send_P", Match: escrowMatchMoney, Action: escrowLock},
			}},
			{Name: "send_P", Kind: anta.Output, Next: "wait_chi", Emit: escrowEmitP},
			{Name: "wait_chi", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(c_i+1,chi)", To: "settle_commit", Match: escrowMatchChi, Action: escrowKeepChi},
				{Name: "now>=u+a_i", To: "refund", TimeoutAfter: escrowDeadline},
			}},
			{Name: "settle_commit", Kind: anta.Output, Next: "done", Emit: escrowEmitCommit},
			{Name: "refund", Kind: anta.Output, Next: "done", Emit: escrowEmitRefund},
			{Name: "done", Kind: anta.Final},
		},
	})
	f.alice = anta.MustCompile(anta.Spec{
		Name: "c_0", Initial: "wait_G",
		States: []anta.State{
			{Name: "wait_G", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e0,G)", To: "send_money", Match: customerMatchG},
			}},
			sendMoney,
			{Name: "wait_outcome", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e0,$)", To: "done", Match: customerMatchRefund, Action: customerCredit},
				{Name: "r(e0,chi)", To: "done_with_chi", Match: customerMatchChi, Action: customerKeepChi},
			}},
			{Name: "done", Kind: anta.Final},
			{Name: "done_with_chi", Kind: anta.Final},
		},
	})
	f.chloe = anta.MustCompile(anta.Spec{
		Name: "c_i", Initial: "wait_G",
		States: []anta.State{
			{Name: "wait_G", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e_i,G)", To: "wait_P", Match: customerMatchG},
			}},
			{Name: "wait_P", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e_i-1,P)", To: "send_money", Match: customerMatchP},
			}},
			sendMoney,
			{Name: "wait_outcome", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e_i,$)", To: "done", Match: customerMatchRefund, Action: customerCredit},
				{Name: "r(e_i,chi)", To: "fwd_chi", Match: customerMatchChi, Action: customerKeepChi},
			}},
			{Name: "fwd_chi", Kind: anta.Output, Next: "wait_payment", Emit: chloeEmitChi},
			{Name: "wait_payment", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e_i-1,$)", To: "done", Match: customerMatchPayment, Action: customerCredit},
			}},
			{Name: "done", Kind: anta.Final},
		},
	})
	f.bob = anta.MustCompile(anta.Spec{
		Name: "c_n", Initial: "wait_P",
		States: []anta.State{
			{Name: "wait_P", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e_n-1,P)", To: "send_chi", Match: customerMatchP},
			}},
			{Name: "send_chi", Kind: anta.Output, Next: "wait_money", Emit: bobEmitChi},
			{Name: "wait_money", Kind: anta.Input, Transitions: []anta.Transition{
				{Name: "r(e_n-1,$)", To: "done", Match: customerMatchPayment, Action: customerCredit},
			}},
			{Name: "done", Kind: anta.Final},
		},
	})
	return f
})

// antaEscrow is the per-run half of escrow e_i's automaton. Its messages are
// fields, each written once before its Send (see messages.go): G upstream, P
// downstream, and the money — released downstream or refunded upstream,
// never both. chi is the certificate as received, forwarded upstream as is.
type antaEscrow struct {
	auto     *anta.Automaton
	env      *env
	i        int
	id       string
	up, down string // customers c_i (pays in) and c_{i+1} (is paid out)
	// pid, upPID and downPID address e_i, c_i and c_{i+1} in the run.
	pid, upPID, downPID core.PID
	fault               core.FaultSpec
	led                 *ledger.Ledger
	amount              int64
	lockID              string // set when the lock is created

	msgG     MsgGuarantee
	msgP     MsgPromise
	msgMoney MsgMoney
	chi      *MsgCert
}

//xchain:hotpath
func escrowEmitG(ctx *anta.Context) {
	e := ctx.Adapter().(*antaEscrow)
	if e.fault.Silent {
		return
	}
	g := &e.msgG.G
	g.PaymentID, g.Escrow, g.Customer = e.env.scn.Spec.PaymentID, e.id, e.up
	g.D, g.IssuedAt = e.env.params.D[e.i], ctx.Now()
	g.Sign(e.env.kr, e.pid)
	if e.env.tr.Recording() {
		e.env.tr.Add(e.env.eng.Now(), trace.KindPromise, e.id, e.up, e.msgG.Describe())
	}
	ctx.Send(e.upPID, &e.msgG)
}

//xchain:hotpath
func escrowMatchMoney(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	e := ctx.Adapter().(*antaEscrow)
	m, ok := msg.(*MsgMoney)
	return ok && from == e.upPID && !m.Refund && m.Amount == e.amount
}

//xchain:hotpath
func escrowLock(ctx *anta.Context) {
	e := ctx.Adapter().(*antaEscrow)
	e.lockID = e.env.w.LockID(e.i)
	if _, err := e.led.Escrow(e.env.eng.Now(), e.lockID, e.upPID, e.downPID, e.amount, ledger.Condition{}); err == nil && e.env.tr.Recording() {
		e.env.tr.AddValue(e.env.eng.Now(), trace.KindLock, e.id, e.up, e.lockID, e.amount)
	}
}

//xchain:hotpath
func escrowEmitP(ctx *anta.Context) {
	e := ctx.Adapter().(*antaEscrow)
	ctx.Set(varU, ctx.Now())
	if e.fault.Silent {
		return
	}
	p := &e.msgP.P
	p.PaymentID, p.Escrow, p.Customer = e.env.scn.Spec.PaymentID, e.id, e.down
	p.A, p.Epsilon, p.IssuedAt = e.env.params.A[e.i], e.env.params.Epsilon, ctx.Now()
	p.Sign(e.env.kr, e.pid)
	if e.env.tr.Recording() {
		e.env.tr.Add(e.env.eng.Now(), trace.KindPromise, e.id, e.down, e.msgP.Describe())
	}
	ctx.Send(e.downPID, &e.msgP)
}

// escrowDeadline is the guard now >= u + a_i.
//
//xchain:hotpath
func escrowDeadline(ctx *anta.Context) sim.Time {
	e := ctx.Adapter().(*antaEscrow)
	return ctx.Get(varU) + e.env.params.A[e.i]
}

//xchain:hotpath
func escrowMatchChi(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	e := ctx.Adapter().(*antaEscrow)
	m, ok := msg.(*MsgCert)
	if !ok || from != e.downPID {
		return false
	}
	if !m.Cert.Verify(e.env.kr, e.env.scn.Topology.Bob()) || m.Cert.PaymentID != e.env.scn.Spec.PaymentID {
		return false
	}
	// The certificate only counts within the window.
	return ctx.Now() < escrowDeadline(ctx)
}

//xchain:hotpath
func escrowKeepChi(ctx *anta.Context) {
	e := ctx.Adapter().(*antaEscrow)
	e.chi = ctx.Msg.(*MsgCert)
	if e.env.tr.Recording() {
		e.env.tr.Add(e.env.eng.Now(), trace.KindCert, e.id, e.down, e.chi.Describe())
	}
}

// steals reports (and traces) a thieving escrow keeping the locked funds.
//
//xchain:hotpath
func (e *antaEscrow) steals() bool {
	if e.fault.StealEscrow && e.env.tr.Recording() {
		e.env.tr.Add(e.env.eng.Now(), trace.KindByzantine, e.id, "", "steal-escrow")
	}
	return e.fault.StealEscrow
}

//xchain:hotpath
func escrowEmitCommit(ctx *anta.Context) {
	e := ctx.Adapter().(*antaEscrow)
	if e.steals() {
		return
	}
	if !e.fault.WithholdCertificate && !e.fault.Silent {
		ctx.Send(e.upPID, e.chi)
	}
	if err := e.led.Release(e.env.eng.Now(), e.lockID, nil, 0); err == nil {
		if e.env.tr.Recording() {
			e.env.tr.AddValue(e.env.eng.Now(), trace.KindRelease, e.id, e.down, e.lockID, e.amount)
		}
		if !e.fault.Silent {
			e.msgMoney = MsgMoney{PaymentID: e.env.scn.Spec.PaymentID, Amount: e.amount}
			ctx.Send(e.downPID, &e.msgMoney)
		}
	}
}

//xchain:hotpath
func escrowEmitRefund(ctx *anta.Context) {
	e := ctx.Adapter().(*antaEscrow)
	if e.steals() {
		return
	}
	if err := e.led.Refund(e.env.eng.Now(), e.lockID, ctx.Now()); err == nil {
		if e.env.tr.Recording() {
			e.env.tr.AddValue(e.env.eng.Now(), trace.KindRefund, e.id, e.up, e.lockID, e.amount)
		}
		if !e.fault.Silent {
			e.msgMoney = MsgMoney{PaymentID: e.env.scn.Spec.PaymentID, Amount: e.amount, Refund: true}
			ctx.Send(e.upPID, &e.msgMoney)
		}
	}
}

// antaCustomer is the per-run half of customer c_i's automaton (Alice for
// i=0, Bob for i=n, Chloe_i otherwise) and the outcome it keeps. msgMoney goes
// downstream; msgCert is the certificate Bob signs; chi is the certificate
// as received, which Chloe forwards upstream as is.
type antaCustomer struct {
	auto                 *anta.Automaton
	env                  *env
	i                    int
	id                   string
	upEscrow, downEscrow string // e_{i-1} ("" for Alice) and e_i ("" for Bob)
	// pid, upPID and downPID address c_i and its two escrows in the run
	// (core.NoPID for a missing one).
	pid, upPID, downPID core.PID
	fault               core.FaultSpec

	paid     int64
	credited int64
	hasChi   bool
	signed   bool
	started  sim.Time

	msgMoney MsgMoney
	msgCert  MsgCert
	chi      *MsgCert
}

//xchain:hotpath
func customerMatchG(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	c := ctx.Adapter().(*antaCustomer)
	m, ok := msg.(*MsgGuarantee)
	return ok && from == c.downPID && m.G.Verify(c.env.kr) && m.G.PaymentID == c.env.scn.Spec.PaymentID
}

//xchain:hotpath
func customerMatchP(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	c := ctx.Adapter().(*antaCustomer)
	m, ok := msg.(*MsgPromise)
	return ok && from == c.upPID && m.P.Verify(c.env.kr) && m.P.PaymentID == c.env.scn.Spec.PaymentID
}

//xchain:hotpath
func customerMatchRefund(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	m, ok := msg.(*MsgMoney)
	return ok && from == ctx.Adapter().(*antaCustomer).downPID && m.Refund
}

//xchain:hotpath
func customerMatchChi(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	c := ctx.Adapter().(*antaCustomer)
	m, ok := msg.(*MsgCert)
	return ok && from == c.downPID && m.Cert.Verify(c.env.kr, c.env.scn.Topology.Bob())
}

//xchain:hotpath
func customerMatchPayment(ctx *anta.Context, from core.PID, msg netsim.Message) bool {
	m, ok := msg.(*MsgMoney)
	return ok && from == ctx.Adapter().(*antaCustomer).upPID && !m.Refund
}

//xchain:hotpath
func customerCredit(ctx *anta.Context) {
	ctx.Adapter().(*antaCustomer).credited += ctx.Msg.(*MsgMoney).Amount
}

//xchain:hotpath
func customerKeepChi(ctx *anta.Context) {
	c := ctx.Adapter().(*antaCustomer)
	c.hasChi = true
	c.chi = ctx.Msg.(*MsgCert)
}

//xchain:hotpath
func customerEmitMoney(ctx *anta.Context) {
	c := ctx.Adapter().(*antaCustomer)
	if c.fault.RefuseToPay || c.fault.Silent {
		return
	}
	c.paid = c.env.scn.Spec.AmountVia(c.i)
	if c.started == 0 {
		c.started = c.env.eng.Now()
	}
	c.msgMoney = MsgMoney{PaymentID: c.env.scn.Spec.PaymentID, Amount: c.paid}
	ctx.Send(c.downPID, &c.msgMoney)
}

//xchain:hotpath
func bobEmitChi(ctx *anta.Context) {
	c := ctx.Adapter().(*antaCustomer)
	if c.fault.Silent || c.fault.WithholdCertificate {
		return
	}
	chi := &c.msgCert.Cert
	chi.PaymentID, chi.Issuer, chi.Payer, chi.IssuedAt = c.env.scn.Spec.PaymentID, c.id, c.env.scn.Topology.Alice(), ctx.Now()
	chi.Sign(c.env.kr, c.pid)
	c.signed = true
	if c.started == 0 {
		c.started = c.env.eng.Now()
	}
	if c.env.tr.Recording() {
		c.env.tr.Add(c.env.eng.Now(), trace.KindCert, c.id, c.upEscrow, c.msgCert.Describe())
	}
	ctx.Send(c.upPID, &c.msgCert)
}

//xchain:hotpath
func chloeEmitChi(ctx *anta.Context) {
	c := ctx.Adapter().(*antaCustomer)
	if !c.fault.WithholdCertificate && !c.fault.Silent {
		ctx.Send(c.upPID, c.chi)
	}
}

// antaEngine is the automata of one run; escrows[i] adapts e_i, customers[i]
// adapts c_i. Like procEngine it stands on the run's world (see standing):
// an adapter's identity is written when its slot is first used, reset
// rewrites the rest of its state in place — all but the outgoing messages a
// run writes whole before sending — and resets every automaton, so nothing of
// the previous run — cut short, crashed or complete — is left for this one. The slices are regrown only for a
// longer chain than any before.
type antaEngine struct {
	env       *env
	escrows   []antaEscrow
	customers []antaCustomer
	// autos are the automata in the world's participant order, c_0..c_N then
	// e_0..e_{N-1}; order is the same automata in start order, by sorted ID
	// (the engine's sequence tie-break follows it).
	autos []anta.Automaton
	order []*anta.Automaton
}

// reset makes ae the automata of e's run, registered on its network.
func (ae *antaEngine) reset(e *env) {
	topo := e.scn.Topology
	f := figure2()
	compute := e.scn.Timing.MaxProcessing / 2 // every output state's share of the bound
	resized := len(ae.escrows) != topo.N
	ae.env = e
	ae.escrows = slices.Grow(ae.escrows[:0], topo.N)[:topo.N]
	ae.customers = slices.Grow(ae.customers[:0], topo.N+1)[:topo.N+1]
	ae.autos = slices.Grow(ae.autos[:0], 2*topo.N+1)[:2*topo.N+1]
	for i := range ae.customers {
		c := &ae.customers[i]
		if c.env == nil {
			c.env, c.i, c.id = e, i, core.CustomerID(i)
			c.upEscrow, _ = topo.UpstreamEscrow(i)
		}
		c.pid, c.upPID, c.downPID = e.w.CustomerPID(i), e.w.UpstreamEscrowPID(i), e.w.DownstreamEscrowPID(i)
		c.auto, c.fault = &ae.autos[i], e.w.FaultOf(c.pid)
		c.downEscrow, _ = topo.DownstreamEscrow(i)
		c.paid, c.credited, c.hasChi, c.signed, c.started = 0, 0, false, false, 0
		c.chi = nil
		prog := f.chloe
		switch i {
		case 0:
			prog = f.alice
		case topo.N:
			prog = f.bob
		}
		c.auto.Reset(prog, c.id, c.pid, c, compute, e.w.CustomerClock(i), e.net, e.tr)
	}
	for i := range ae.escrows {
		x := &ae.escrows[i]
		if x.env == nil {
			x.env, x.i, x.id = e, i, core.EscrowID(i)
			x.up, x.down = core.CustomerID(i), core.CustomerID(i+1)
			x.led = e.w.Ledger(i)
		}
		x.pid, x.upPID, x.downPID = e.w.EscrowPID(i), e.w.CustomerPID(i), e.w.CustomerPID(i+1)
		x.auto, x.fault, x.amount = &ae.autos[topo.N+1+i], e.w.FaultOf(x.pid), e.scn.Spec.AmountVia(i)
		x.lockID, x.chi = "", nil
		x.auto.Reset(f.escrow, x.id, x.pid, x, compute, e.w.EscrowClock(i), e.net, e.tr)
	}
	if resized {
		ae.order = ae.order[:0]
		for i := range ae.autos {
			ae.order = append(ae.order, &ae.autos[i])
		}
		slices.SortFunc(ae.order, func(a, b *anta.Automaton) int { return strings.Compare(a.ID(), b.ID()) })
	}
}

// start enters every automaton's initial state, then schedules the crash
// faults (core.World.ScheduleCrashes, in participant order).
func (ae *antaEngine) start() {
	for _, a := range ae.order {
		a.Start()
	}
	ae.env.w.ScheduleCrashes(ae)
}

// Crash implements core.Crasher: stop the participant's automaton.
func (ae *antaEngine) Crash(_ string, customer bool, i int) {
	if customer {
		ae.customers[i].auto.Crash()
	} else {
		ae.escrows[i].auto.Crash()
	}
}

// outcome fills in customer c_i's part of the run's result (core.World.Collect).
func (ae *antaEngine) outcome(i int, out *core.CustomerOutcome) {
	c := &ae.customers[i]
	if c.auto.Done() {
		out.Terminated, out.TerminatedAt = true, c.auto.DoneAt()
	}
	out.StartedAt, out.HoldsChi, out.IssuedChi = c.started, c.hasChi, c.signed
	out.PaidOut, out.Received = c.paid, c.credited
}
