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

// newEnv resets the world for the scenario and binds a run to it.
func newEnv(w *core.World, s core.Scenario, params Params) (*env, error) {
	if err := w.Reset(s); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &env{w: w, scn: s, params: params, eng: w.Eng, net: w.Net, tr: w.Trace, kr: w.Keyring()}, nil
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
