// Package timelock implements the paper's primary contribution: the
// time-bounded cross-chain payment protocol of Theorem 1 and Figure 2 — the
// Interledger "universal" protocol fine-tuned to remain correct in the
// presence of clock drift.
//
// The protocol is provided in two equivalent engines: a plain process-based
// engine (used for the large experiment sweeps) and a faithful rendering of
// the Figure-2 automata on top of the generic ANTA interpreter in
// internal/anta. A cross-validation test asserts both produce the same
// outcomes on the same scenarios.
package timelock

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// Params holds the protocol's timeout parameters. The brief announcement
// leaves the precise values of d_i as parameters calculated in the full
// version; DeriveParams computes values that make the protocol correct under
// the synchrony assumptions of core.Timing (message delay <= Delta,
// processing <= Pi, clock drift |rho| <= MaxRho).
//
// All A and D values are expressed in the local-clock units of the escrow
// that uses them (window widths, so clock offset is irrelevant; only drift
// matters). Bound is an a-priori real-time bound by which every customer who
// abides by the protocol has terminated, provided her escrows abide
// (property T of Definition 1).
type Params struct {
	// A[i] is the window a_i in escrow e_i's promise P(a_i): the escrow
	// accepts the certificate chi until local time u + A[i], where u is the
	// local time at which the promise was issued.
	A []sim.Time
	// D[i] is the bound d_i in escrow e_i's guarantee G(d_i): having
	// received the money at local time w, the escrow sends either the money
	// back or chi by local time w + D[i].
	D []sim.Time
	// Epsilon is the processing bound in P(a): money is sent within Epsilon
	// (local) of accepting chi.
	Epsilon sim.Time
	// Bound is the a-priori real-time termination bound of Theorem 1.
	Bound sim.Time
	// DriftAware records whether the derivation accounted for clock drift
	// (the paper's fine-tuning). The naive variant (false) reproduces the
	// plain Interledger universal protocol and is used by ablation A1.
	DriftAware bool
}

// hopSlack is the real-time slack budgeted per hop of the chain beyond the
// raw message delays: it absorbs the processing steps of the escrow and the
// connector on the forward (money) and backward (certificate) paths.
func hopSlack(t core.Timing) sim.Time {
	return 4*t.MaxMsgDelay + 6*t.MaxProcessing
}

// DeriveParams computes protocol parameters for a chain of topo.N escrows
// under the given timing assumptions.
//
// The derivation works backwards from Bob's escrow e_{n-1}. Escrow e_i's
// window a_i (measured on e_i's own clock) must outlast, in real time, the
// worst case of: forwarding the money downstream, escrow e_{i+1} exhausting
// its own window a_{i+1} on the slowest conforming clock, and the
// certificate travelling back up one hop. Hence, with rho the drift bound:
//
//	a_{n-1} = (1+rho) * (2*Delta + 2*Pi)                    (P to Bob, chi back)
//	a_i     = (1+rho) * (hopSlack + a_{i+1}/(1-rho))        (i < n-1)
//	d_i     = a_i + processing margin
//
// The (1+rho) factor converts a required real duration into a local window
// that lasts at least that long even on the fastest conforming clock; the
// 1/(1-rho) factor accounts for the downstream escrow's window lasting
// longer in real time on the slowest clock. This is the paper's
// "fine-tuning to work correctly in the presence of clock drift": with
// driftAware=false both factors are omitted, reproducing the plain
// Interledger universal protocol, and ablation A1 shows that variant losing
// payments to spurious refunds and stranding honest connectors (a
// termination failure) once clocks drift appreciably.
func DeriveParams(topo core.Topology, t core.Timing, driftAware bool) Params {
	var p Params
	p.Derive(topo, t, driftAware)
	return p
}

// Derive makes p what DeriveParams returns, in p's own A and D, which are
// regrown only for a longer chain than any before: a caller that derives for
// scenario after scenario keeps one Params.
func (p *Params) Derive(topo core.Topology, t core.Timing, driftAware bool) {
	n := topo.N
	*p = Params{
		A:          slices.Grow(p.A[:0], n)[:n],
		D:          slices.Grow(p.D[:0], n)[:n],
		DriftAware: driftAware,
	}
	p.A[n-1] = lastWindow(t, driftAware)
	for i := n - 2; i >= 0; i-- {
		p.A[i] = upstreamWindow(t, driftAware, p.A[i+1])
	}
	margin := scaleUp(t, driftAware, 2*t.MaxProcessing)
	for i := 0; i < n; i++ {
		p.D[i] = p.A[i] + margin + 2*t.MaxProcessing
	}
	p.Epsilon = margin + 1*t.MaxProcessing
	// Termination bound: G reaches Alice, money reaches e0, the whole
	// downstream round trip (covered by a_0 measured from e0's promise, which
	// is issued within one more hop), then the refund/forward leg back to the
	// customer. A further hopSlack absorbs the final releases along the
	// chain.
	bound := (t.MaxMsgDelay + t.MaxProcessing) + // G(d_0) reaches Alice
		(t.MaxMsgDelay + t.MaxProcessing) + // Alice's money reaches e0
		t.MaxProcessing + // e0 issues P
		t.Clock.RealForLocalUpper(p.A[0]) + // chi returns (or e0 times out)
		2*(t.MaxMsgDelay+t.MaxProcessing) + // response propagates to customers
		hopSlack(t) // final releases along the chain
	p.Bound = bound
}

// FirstWindow returns a_0, DeriveParams(topo, t, driftAware).A[0] (the
// largest window), without building the windows.
func FirstWindow(topo core.Topology, t core.Timing, driftAware bool) sim.Time {
	a := lastWindow(t, driftAware)
	for i := topo.N - 2; i >= 0; i-- {
		a = upstreamWindow(t, driftAware, a)
	}
	return a
}

// lastWindow is a_{n-1}, Bob's escrow's window.
func lastWindow(t core.Timing, driftAware bool) sim.Time {
	return scaleUp(t, driftAware, 2*t.MaxMsgDelay+2*t.MaxProcessing)
}

// upstreamWindow is a_i given a_{i+1}, the window of the escrow downstream.
func upstreamWindow(t core.Timing, driftAware bool, next sim.Time) sim.Time {
	slowReal := next
	if driftAware {
		slowReal = t.Clock.RealForLocalUpper(next)
	}
	return scaleUp(t, driftAware, hopSlack(t)+slowReal)
}

// scaleUp is the local window that lasts at least the real duration d on the
// fastest conforming clock: d itself without drift awareness.
func scaleUp(t core.Timing, driftAware bool, d sim.Time) sim.Time {
	if !driftAware {
		return d
	}
	return t.Clock.LocalForRealUpper(d) + 1
}

// Scale multiplies every window and the termination bound by scale (> 0),
// in place. Any scale >= 1 keeps the derivation sound under synchrony; the
// Theorem-2 search uses scaled variants as the timeout-protocol family
// that partial synchrony defeats.
func (p *Params) Scale(scale float64) {
	for i := range p.A {
		p.A[i] = sim.Time(float64(p.A[i]) * scale)
		p.D[i] = sim.Time(float64(p.D[i])*scale) + 1
	}
	p.Bound = sim.Time(float64(p.Bound)*scale) + 1
}

// Inflate makes every timeout window effectively infinite (about 35
// simulated years), in place, kept strictly nested so the parameters stay
// structurally valid. It is the patient end of the timeout-protocol family:
// under an adversarial schedule it never refunds, so it loses termination
// instead of liveness.
func (p *Params) Inflate() {
	base := sim.Time(1) << 50
	for i := range p.A {
		p.A[i] = base - sim.Time(i)*sim.Hour
		p.D[i] = p.A[i] + sim.Hour
	}
	p.Bound = sim.Time(1) << 55
}

// Validate checks internal consistency of the parameters: windows must be
// positive and strictly nested (a_0 > a_1 > ... > a_{n-1}), and each d_i
// must exceed a_i — otherwise the guarantee G(d_i) could be violated by an
// escrow that merely waits out its own window.
func (p Params) Validate() error {
	if len(p.A) == 0 || len(p.A) != len(p.D) {
		return fmt.Errorf("timelock: params have %d a-values and %d d-values", len(p.A), len(p.D))
	}
	for i := range p.A {
		if p.A[i] <= 0 || p.D[i] <= 0 {
			return fmt.Errorf("timelock: non-positive window at escrow %d", i)
		}
		if p.D[i] <= p.A[i] {
			return fmt.Errorf("timelock: d_%d (%v) must exceed a_%d (%v)", i, p.D[i], i, p.A[i])
		}
		if i+1 < len(p.A) && p.A[i] <= p.A[i+1] {
			return fmt.Errorf("timelock: windows not nested: a_%d (%v) <= a_%d (%v)", i, p.A[i], i+1, p.A[i+1])
		}
	}
	if p.Epsilon <= 0 {
		return fmt.Errorf("timelock: epsilon must be positive")
	}
	if p.Bound <= 0 {
		return fmt.Errorf("timelock: termination bound must be positive")
	}
	return nil
}

// String summarises the parameters.
func (p Params) String() string {
	return fmt.Sprintf("params(n=%d, a0=%v, a_last=%v, eps=%v, bound=%v, driftAware=%v)",
		len(p.A), p.A[0], p.A[len(p.A)-1], p.Epsilon, p.Bound, p.DriftAware)
}
