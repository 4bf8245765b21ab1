package timelock

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// env is one protocol run's view of the world it executes in, plus the
// run's timeout parameters. Both the process-based and the ANTA-based
// engines execute against the same env, which is what makes their outcomes
// directly comparable.
type env struct {
	w      *core.World
	scn    core.Scenario
	params Params
	eng    *sim.Engine
	net    *netsim.Network
	tr     *trace.Trace
	kr     *sig.Keyring
}

// standing is the package's run-state on one world (core.Standing): the env
// and the engine of the current run — processes or automata, whichever the
// protocol executes — overwritten by the next, and the last derived timeout
// parameters, which a traffic worker's payments share for as long as their
// chains and timing do.
type standing struct {
	env  env
	proc procEngine
	anta antaEngine

	derived    Params
	derivedFor paramsKey
}

// paramsKey is what DeriveParams' result is a function of.
type paramsKey struct {
	topo       core.Topology
	timing     core.Timing
	driftAware bool
}

// paramsFor is p.ParamsFor(s) without deriving what the previous run already
// did. The result shares the cache's A and D; a run only reads them.
func (st *standing) paramsFor(p *Protocol, s core.Scenario) Params {
	if p.Params != nil {
		return *p.Params
	}
	key := paramsKey{topo: s.Topology, timing: s.Timing, driftAware: p.DriftAware}
	if st.derived.A == nil || st.derivedFor != key {
		st.derived, st.derivedFor = DeriveParams(s.Topology, s.Timing, p.DriftAware), key
	}
	return st.derived
}

// bind resets the world for the scenario and makes st.env the run's.
func (st *standing) bind(w *core.World, s core.Scenario, params Params) (*env, error) {
	if err := w.Reset(s); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	st.env = env{w: w, scn: s, params: params, eng: w.Eng, net: w.Net, tr: w.Trace, kr: w.Keyring()}
	return &st.env, nil
}

// outcomeSource is what the env needs from a per-customer engine object to
// build a core.CustomerOutcome. Both engines implement it.
type outcomeSource interface {
	terminated() (bool, sim.Time)
	startedAt() sim.Time
	holdsChi() bool
	issuedChi() bool
	paidOut() int64
	received() int64
}

// collect builds the RunResult common to both engines; source(i) is
// customer c_i's engine object.
func (e *env) collect(protocolName string, source func(i int) outcomeSource, eventsFired uint64) *core.RunResult {
	return e.w.Collect(protocolName, eventsFired, func(i int, out *core.CustomerOutcome) {
		src := source(i)
		out.Terminated, out.TerminatedAt = src.terminated()
		out.StartedAt = src.startedAt()
		out.HoldsChi = src.holdsChi()
		out.IssuedChi = src.issuedChi()
		out.PaidOut = src.paidOut()
		out.Received = src.received()
	})
}
