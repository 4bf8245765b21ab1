package timelock

import (
	"fmt"

	"repro/internal/core"
)

// Engine selects which of the two equivalent protocol renderings executes a
// run.
type Engine int

// Engines.
const (
	// EngineProcess is the plain event-driven rendering (default; fastest and
	// supports the full Byzantine behaviour library).
	EngineProcess Engine = iota
	// EngineANTA executes the Figure-2 automata on the generic ANTA
	// interpreter, faithful to the paper's formalism.
	EngineANTA
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e == EngineANTA {
		return "anta"
	}
	return "process"
}

// Protocol is the time-bounded cross-chain payment protocol of Theorem 1 /
// Figure 2 (the Interledger universal protocol fine-tuned for clock drift).
// It implements core.Protocol.
type Protocol struct {
	// Engine selects the execution engine.
	Engine Engine
	// DriftAware toggles the clock-drift fine-tuning in the timeout
	// derivation. The paper's protocol uses true; false reproduces the plain
	// Interledger universal protocol and is used by ablation A1.
	DriftAware bool
	// Params, if non-nil, overrides the derived timeout parameters.
	Params *Params
}

// New returns the paper's protocol: process engine, drift-aware parameters.
func New() *Protocol {
	return &Protocol{Engine: EngineProcess, DriftAware: true}
}

// NewANTA returns the protocol executed by the ANTA interpreter.
func NewANTA() *Protocol {
	return &Protocol{Engine: EngineANTA, DriftAware: true}
}

// NewNaive returns the drift-unaware ablation (plain universal protocol).
func NewNaive() *Protocol {
	return &Protocol{Engine: EngineProcess, DriftAware: false}
}

// Name implements core.Protocol.
func (p *Protocol) Name() string {
	switch anta := p.Engine == EngineANTA; {
	case p.DriftAware && anta:
		return "timelock-anta"
	case p.DriftAware:
		return "timelock"
	case anta:
		return "timelock-naive-anta"
	}
	return "timelock-naive"
}

// Guarantee implements core.Protocol: the timeout family is Theorem 1's.
func (p *Protocol) Guarantee() core.Guarantee { return core.Guarantee{Theorem: core.Theorem1} }

// ParamsFor returns the timeout parameters the protocol would use for the
// scenario (derived unless overridden).
func (p *Protocol) ParamsFor(s core.Scenario) Params {
	if p.Params != nil {
		return *p.Params
	}
	return DeriveParams(s.Topology, s.Timing, p.DriftAware)
}

// Run implements core.Protocol. The run is deterministic in
// (scenario, scenario.Seed).
func (p *Protocol) Run(s core.Scenario) (*core.RunResult, error) {
	return p.RunIn(core.NewWorld(), s)
}

// RunIn executes the scenario in w, resetting it first: the same run Run
// makes, on a standing world. The result is w's own and is valid until w's
// next Reset (see core.World).
func (p *Protocol) RunIn(w *core.World, s core.Scenario) (*core.RunResult, error) {
	st := core.Standing[standing](w)
	env, err := st.bind(w, &s, st.paramsFor(p, &s))
	if err != nil {
		return nil, fmt.Errorf("timelock: %w", err)
	}
	// outcome fills in customer c_i's part of the result from the engine the
	// run executed on.
	var outcome func(i int, out *core.CustomerOutcome)
	switch p.Engine {
	case EngineANTA:
		st.anta.reset(env)
		st.anta.start()
		outcome = st.anta.outcome
	default:
		st.proc.reset(env)
		st.proc.start()
		outcome = st.proc.outcome
	}
	_, fired := env.eng.Run(w.MaxEvents())
	return w.Collect(p.Name(), fired, outcome), nil
}
