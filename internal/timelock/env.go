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
// directly comparable. scn is the world's copy of the scenario and params the
// protocol's or the standing cache's: the run reads both in place.
type env struct {
	w      *core.World
	scn    *core.Scenario
	params *Params
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
// did: the protocol's own parameters, or the cache's. A run only reads them.
func (st *standing) paramsFor(p *Protocol, s *core.Scenario) *Params {
	if p.Params != nil {
		return p.Params
	}
	key := paramsKey{topo: s.Topology, timing: s.Timing, driftAware: p.DriftAware}
	if st.derived.A == nil || st.derivedFor != key {
		st.derived.Derive(s.Topology, s.Timing, p.DriftAware)
		st.derivedFor = key
	}
	return &st.derived
}

// bind resets the world for the scenario and makes st.env the run's.
func (st *standing) bind(w *core.World, s *core.Scenario, params *Params) (*env, error) {
	if err := w.Reset(s); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	st.env = env{w: w, scn: w.Scenario(), params: params, eng: w.Eng, net: w.Net, tr: w.Trace, kr: w.Keyring()}
	return &st.env, nil
}
