package timelock

import (
	"repro/internal/anta"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The ANTA engine renders Figure 2 literally: one timed automaton per
// participant, executed by the generic interpreter in internal/anta. It is
// the formalism-faithful twin of the process engine; TestEnginesAgree in
// cross_test.go checks both yield the same outcomes on the same scenarios.
//
// The ANTA engine models honest behaviour plus the crash, silent,
// refuse-to-pay and withhold-certificate faults (the deviations expressible
// by omitting output actions). Richer Byzantine behaviour (forgery,
// equivocation, theft) is exercised through the process engine.

// antaCustomer adapts a customer automaton to the env's outcome collection.
type antaCustomer struct {
	id    string
	auto  *anta.Automaton
	bob   bool
	alice bool

	paid     int64
	credited int64
	hasChi   bool
	signed   bool
	started  sim.Time
}

func (a *antaCustomer) terminated() (bool, sim.Time) {
	if a.auto.Done() {
		return true, a.auto.DoneAt()
	}
	return false, 0
}

func (a *antaCustomer) startedAt() sim.Time { return a.started }
func (a *antaCustomer) holdsChi() bool      { return a.hasChi }
func (a *antaCustomer) issuedChi() bool     { return a.signed }
func (a *antaCustomer) paidOut() int64      { return a.paid }
func (a *antaCustomer) received() int64     { return a.credited }

// antaEngine holds the automata of one run; customers[i] adapts c_i.
type antaEngine struct {
	env       *env
	net       *anta.Network
	customers []*antaCustomer
}

// Automaton state names shared by the conformance tests (Fig. 2 shapes).
const (
	// Escrow e_i.
	StEscrowSendG     = "send_G"
	StEscrowWaitMoney = "wait_money"
	StEscrowSendP     = "send_P"
	StEscrowWaitChi   = "wait_chi"
	StEscrowCommit    = "settle_commit"
	StEscrowRefund    = "refund"
	StEscrowDone      = "done"
	// Customers.
	StCustWaitG       = "wait_G"
	StCustWaitP       = "wait_P"
	StCustSendMoney   = "send_money"
	StCustWaitOutcome = "wait_outcome"
	StCustFwdChi      = "fwd_chi"
	StCustWaitPayment = "wait_payment"
	StCustSendChi     = "send_chi"
	StCustWaitMoney   = "wait_money"
	StCustDone        = "done"
	StCustDoneChi     = "done_with_chi"
)

func newAntaEngine(e *env) *antaEngine {
	ae := &antaEngine{env: e, net: anta.NewNetwork()}
	topo := e.scn.Topology
	for i := 0; i < topo.N; i++ {
		ae.net.Add(ae.buildEscrow(i))
	}
	for i := 0; i <= topo.N; i++ {
		ae.buildCustomer(i)
	}
	return ae
}

func (ae *antaEngine) start() {
	ae.net.StartAll()
	// Crash faults: stop the automaton at the configured time. Schedule in
	// sorted participant order, not map order — the engine's seq tie-breaker
	// follows scheduling order, so two crashes at the same instant would
	// otherwise fire in a different order from run to run (the same
	// map-iteration bug PR 2 fixed in netsim.Broadcast).
	ae.env.w.ScheduleCrashes(ae)
}

// Crash implements core.Crasher: stop the participant's automaton.
func (ae *antaEngine) Crash(id string, _ bool, _ int) {
	if a, ok := ae.net.Get(id); ok {
		a.Crash()
	}
}

// source adapts customer c_i's automaton to the env's outcome collection.
func (ae *antaEngine) source(i int) outcomeSource { return ae.customers[i] }

// buildEscrow constructs the automaton for escrow e_i of Fig. 2.
func (ae *antaEngine) buildEscrow(i int) *anta.Automaton {
	e := ae.env
	topo := e.scn.Topology
	id := core.EscrowID(i)
	up := topo.UpstreamCustomer(i)
	down := topo.DownstreamCustomer(i)
	fault := e.scn.FaultOf(id)
	led := e.w.Ledger(i)
	amount := e.scn.Spec.AmountVia(i)
	lockID := e.w.LockID(i)
	delay := e.scn.Timing.MaxProcessing / 2

	var chi *MsgCert // the certificate as received, forwarded upstream as is

	spec := anta.Spec{
		ID:      id,
		Initial: StEscrowSendG,
		States: []*anta.State{
			{
				Name: StEscrowSendG, Kind: anta.Output, ComputeDelay: delay, Next: StEscrowWaitMoney,
				Emit: func(ctx *anta.Context) {
					if fault.Silent {
						return
					}
					g := sig.NewGuarantee(e.kr, e.scn.Spec.PaymentID, id, up, e.params.D[i], ctx.Now())
					e.tr.AddLazy(e.eng.Now(), trace.KindPromise, id, up, g.Describe)
					ctx.Send(up, &MsgGuarantee{G: g})
				},
			},
			{
				Name: StEscrowWaitMoney, Kind: anta.Input,
				Transitions: []*anta.Transition{{
					Name: "r(c_i,$)", To: StEscrowSendP,
					Match: func(ctx *anta.Context, from string, msg netsim.Message) bool {
						m, ok := msg.(*MsgMoney)
						return ok && from == up && !m.Refund && m.Amount == amount
					},
					Action: func(ctx *anta.Context) {
						if _, err := led.CreateLock(e.eng.Now(), lockID, up, down, amount, ledger.Condition{}); err == nil {
							e.tr.AddValue(e.eng.Now(), trace.KindLock, id, up, lockID, amount)
						}
					},
				}},
			},
			{
				Name: StEscrowSendP, Kind: anta.Output, ComputeDelay: delay, Next: StEscrowWaitChi,
				Emit: func(ctx *anta.Context) {
					ctx.Set("u", ctx.Now())
					if fault.Silent {
						return
					}
					p := sig.NewPromise(e.kr, e.scn.Spec.PaymentID, id, down, e.params.A[i], e.params.Epsilon, ctx.Now())
					e.tr.AddLazy(e.eng.Now(), trace.KindPromise, id, down, p.Describe)
					ctx.Send(down, &MsgPromise{P: p})
				},
			},
			{
				Name: StEscrowWaitChi, Kind: anta.Input,
				Transitions: []*anta.Transition{
					{
						Name: "r(c_i+1,chi)", To: StEscrowCommit,
						Match: func(ctx *anta.Context, from string, msg netsim.Message) bool {
							m, ok := msg.(*MsgCert)
							if !ok || from != down {
								return false
							}
							if !m.Cert.Verify(e.kr, topo.Bob()) || m.Cert.PaymentID != e.scn.Spec.PaymentID {
								return false
							}
							// The certificate only counts within the window.
							return ctx.Now() < ctx.Get("u")+e.params.A[i]
						},
						Action: func(ctx *anta.Context) {
							chi = ctx.Msg.(*MsgCert)
							e.tr.AddLazy(e.eng.Now(), trace.KindCert, id, down, chi.Describe)
						},
					},
					{
						Name: "now>=u+a_i", To: StEscrowRefund,
						TimeoutAfter: func(ctx *anta.Context) sim.Time {
							return ctx.Get("u") + e.params.A[i]
						},
					},
				},
			},
			{
				Name: StEscrowCommit, Kind: anta.Output, ComputeDelay: delay, Next: StEscrowDone,
				Emit: func(ctx *anta.Context) {
					if fault.StealEscrow {
						e.tr.Add(e.eng.Now(), trace.KindByzantine, id, "", "steal-escrow")
						return
					}
					if !fault.WithholdCertificate && !fault.Silent {
						ctx.Send(up, chi)
					}
					if err := led.Release(e.eng.Now(), lockID, nil, 0); err == nil {
						e.tr.AddValue(e.eng.Now(), trace.KindRelease, id, down, lockID, amount)
						if !fault.Silent {
							ctx.Send(down, &MsgMoney{PaymentID: e.scn.Spec.PaymentID, Amount: amount})
						}
					}
				},
			},
			{
				Name: StEscrowRefund, Kind: anta.Output, ComputeDelay: delay, Next: StEscrowDone,
				Emit: func(ctx *anta.Context) {
					if fault.StealEscrow {
						e.tr.Add(e.eng.Now(), trace.KindByzantine, id, "", "steal-escrow")
						return
					}
					if err := led.Refund(e.eng.Now(), lockID, ctx.Now()); err == nil {
						e.tr.AddValue(e.eng.Now(), trace.KindRefund, id, up, lockID, amount)
						if !fault.Silent {
							ctx.Send(up, &MsgMoney{PaymentID: e.scn.Spec.PaymentID, Amount: amount, Refund: true})
						}
					}
				},
			},
			{Name: StEscrowDone, Kind: anta.Final},
		},
	}
	return anta.NewAutomaton(spec, e.w.EscrowClock(i), e.net, e.tr)
}

// buildCustomer constructs the automaton for customer c_i: Alice for i=0,
// Bob for i=n, Chloe_i otherwise.
func (ae *antaEngine) buildCustomer(i int) {
	e := ae.env
	topo := e.scn.Topology
	id := core.CustomerID(i)
	fault := e.scn.FaultOf(id)
	delay := e.scn.Timing.MaxProcessing / 2
	adapter := &antaCustomer{id: id, alice: i == 0, bob: i == topo.N}

	upEscrow := ""
	if up, ok := topo.UpstreamEscrow(i); ok {
		upEscrow = up
	}
	downEscrow := ""
	if down, ok := topo.DownstreamEscrow(i); ok {
		downEscrow = down
	}

	matchGuarantee := func(ctx *anta.Context, from string, msg netsim.Message) bool {
		m, ok := msg.(*MsgGuarantee)
		return ok && from == downEscrow && m.G.Verify(e.kr) && m.G.PaymentID == e.scn.Spec.PaymentID
	}
	matchPromise := func(ctx *anta.Context, from string, msg netsim.Message) bool {
		m, ok := msg.(*MsgPromise)
		return ok && from == upEscrow && m.P.Verify(e.kr) && m.P.PaymentID == e.scn.Spec.PaymentID
	}
	matchRefund := func(ctx *anta.Context, from string, msg netsim.Message) bool {
		m, ok := msg.(*MsgMoney)
		return ok && from == downEscrow && m.Refund
	}
	matchChi := func(ctx *anta.Context, from string, msg netsim.Message) bool {
		m, ok := msg.(*MsgCert)
		return ok && from == downEscrow && m.Cert.Verify(e.kr, topo.Bob())
	}
	matchPayment := func(ctx *anta.Context, from string, msg netsim.Message) bool {
		m, ok := msg.(*MsgMoney)
		return ok && from == upEscrow && !m.Refund
	}
	creditMoney := func(ctx *anta.Context) {
		if m, ok := ctx.Msg.(*MsgMoney); ok {
			adapter.credited += m.Amount
		}
	}

	sendMoneyState := &anta.State{
		Name: StCustSendMoney, Kind: anta.Output, ComputeDelay: delay, Next: StCustWaitOutcome,
		Emit: func(ctx *anta.Context) {
			if fault.RefuseToPay || fault.Silent {
				return
			}
			amount := e.scn.Spec.AmountVia(i)
			adapter.paid = amount
			if adapter.started == 0 {
				adapter.started = e.eng.Now()
			}
			ctx.Send(downEscrow, &MsgMoney{PaymentID: e.scn.Spec.PaymentID, Amount: amount})
		},
	}

	var spec anta.Spec
	switch {
	case i == 0: // Alice (Fig. 2, c_0)
		spec = anta.Spec{
			ID: id, Initial: StCustWaitG,
			States: []*anta.State{
				{
					Name: StCustWaitG, Kind: anta.Input,
					Transitions: []*anta.Transition{{Name: "r(e0,G)", To: StCustSendMoney, Match: matchGuarantee}},
				},
				sendMoneyState,
				{
					Name: StCustWaitOutcome, Kind: anta.Input,
					Transitions: []*anta.Transition{
						{Name: "r(e0,$)", To: StCustDone, Match: matchRefund, Action: creditMoney},
						{Name: "r(e0,chi)", To: StCustDoneChi, Match: matchChi, Action: func(ctx *anta.Context) {
							adapter.hasChi = true
						}},
					},
				},
				{Name: StCustDone, Kind: anta.Final},
				{Name: StCustDoneChi, Kind: anta.Final},
			},
		}
	case i == topo.N: // Bob (Fig. 2, c_n)
		spec = anta.Spec{
			ID: id, Initial: StCustWaitP,
			States: []*anta.State{
				{
					Name: StCustWaitP, Kind: anta.Input,
					Transitions: []*anta.Transition{{Name: "r(e_n-1,P)", To: StCustSendChi, Match: matchPromise}},
				},
				{
					Name: StCustSendChi, Kind: anta.Output, ComputeDelay: delay, Next: StCustWaitMoney,
					Emit: func(ctx *anta.Context) {
						if fault.Silent || fault.WithholdCertificate {
							return
						}
						cert := sig.NewPaymentCert(e.kr, e.scn.Spec.PaymentID, id, topo.Alice(), ctx.Now())
						adapter.signed = true
						if adapter.started == 0 {
							adapter.started = e.eng.Now()
						}
						e.tr.AddLazy(e.eng.Now(), trace.KindCert, id, upEscrow, cert.Describe)
						ctx.Send(upEscrow, &MsgCert{Cert: cert})
					},
				},
				{
					Name: StCustWaitMoney, Kind: anta.Input,
					Transitions: []*anta.Transition{{Name: "r(e_n-1,$)", To: StCustDone, Match: matchPayment, Action: creditMoney}},
				},
				{Name: StCustDone, Kind: anta.Final},
			},
		}
	default: // Chloe_i
		spec = anta.Spec{
			ID: id, Initial: StCustWaitG,
			States: []*anta.State{
				{
					Name: StCustWaitG, Kind: anta.Input,
					Transitions: []*anta.Transition{{Name: "r(e_i,G)", To: StCustWaitP, Match: matchGuarantee}},
				},
				{
					Name: StCustWaitP, Kind: anta.Input,
					Transitions: []*anta.Transition{{Name: "r(e_i-1,P)", To: StCustSendMoney, Match: matchPromise}},
				},
				sendMoneyState,
				{
					Name: StCustWaitOutcome, Kind: anta.Input,
					Transitions: []*anta.Transition{
						{Name: "r(e_i,$)", To: StCustDone, Match: matchRefund, Action: creditMoney},
						{Name: "r(e_i,chi)", To: StCustFwdChi, Match: matchChi, Action: func(ctx *anta.Context) {
							adapter.hasChi = true
							ctx.SetData("chi", ctx.Msg)
						}},
					},
				},
				{
					Name: StCustFwdChi, Kind: anta.Output, ComputeDelay: delay, Next: StCustWaitPayment,
					Emit: func(ctx *anta.Context) {
						if fault.WithholdCertificate || fault.Silent {
							return
						}
						if m, ok := ctx.Data("chi").(*MsgCert); ok {
							ctx.Send(upEscrow, m)
						}
					},
				},
				{
					Name: StCustWaitPayment, Kind: anta.Input,
					Transitions: []*anta.Transition{{Name: "r(e_i-1,$)", To: StCustDone, Match: matchPayment, Action: creditMoney}},
				},
				{Name: StCustDone, Kind: anta.Final},
			},
		}
	}
	auto := anta.NewAutomaton(spec, e.w.CustomerClock(i), e.net, e.tr)
	adapter.auto = auto
	ae.net.Add(auto)
	ae.customers = append(ae.customers, adapter)
}
