// Package anta implements Asynchronous Networks of Timed Automata (ANTA),
// the specification formalism the paper uses to present its time-bounded
// protocol (Fig. 2).
//
// An automaton has a finite set of states. Output ("grey") states spend a
// bounded amount of local time computing and are left by sending a message
// s(id, m). Input ("white") states are left when an incoming transition
// becomes enabled: either a message r(id, m) is received that matches the
// transition's pattern, or a time-out guard of the form `now >= x + d`
// becomes true on the automaton's local (possibly drifting) clock.
// Transitions may record the current local time into a clock variable
// (`x := now`).
//
// internal/timelock builds the four automata of Fig. 2 on top of this
// package; the generic interpreter here knows nothing about payments.
package anta

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StateKind distinguishes the paper's grey (output), white (input) and final
// states.
type StateKind int

// State kinds.
const (
	// Input states wait for a message or a timeout.
	Input StateKind = iota
	// Output states compute for a bounded time, emit messages, and move on.
	Output
	// Final states terminate the automaton.
	Final
)

// String implements fmt.Stringer.
func (k StateKind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case Final:
		return "final"
	}
	return fmt.Sprintf("StateKind(%d)", int(k))
}

// Context is passed to transition guards and actions; it exposes the
// automaton's clock variables, local clock and messaging.
type Context struct {
	a *Automaton
	// From and Msg are set for message-triggered transitions.
	From string
	Msg  netsim.Message
}

// Now returns the automaton's local clock reading.
func (c *Context) Now() sim.Time { return c.a.clk.Now() }

// Set assigns a clock variable (the paper's `x := now` uses Set(x, Now())).
func (c *Context) Set(variable string, v sim.Time) { c.a.vars[variable] = v }

// Get reads a clock variable.
func (c *Context) Get(variable string) sim.Time { return c.a.vars[variable] }

// Send performs the output action s(to, m).
func (c *Context) Send(to string, m netsim.Message) { c.a.send(to, m) }

// SetData stores an arbitrary protocol value (e.g. a received certificate)
// in the automaton's data store.
func (c *Context) SetData(key string, v any) { c.a.data[key] = v }

// Data reads a stored protocol value.
func (c *Context) Data(key string) any { return c.a.data[key] }

// Transition is one outgoing edge of an input state.
type Transition struct {
	// Name labels the transition in traces.
	Name string
	// To is the target state.
	To string
	// Match, if non-nil, makes this a message transition r(id, m): it fires
	// when a message arrives (or is buffered) for which Match returns true.
	Match func(ctx *Context, from string, msg netsim.Message) bool
	// TimeoutAfter, if non-nil, makes this a timeout transition enabled when
	// local now >= TimeoutAfter(ctx). The guard is re-evaluated on state
	// entry; the automaton schedules a wake-up for the guard time.
	TimeoutAfter func(ctx *Context) sim.Time
	// Action runs when the transition is taken (assignments, bookkeeping).
	Action func(ctx *Context)
}

// State is one automaton state.
type State struct {
	Name string
	Kind StateKind
	// Output-state fields: the automaton spends ComputeDelay of local time,
	// runs Emit (which performs the sends), then moves to Next.
	ComputeDelay sim.Time
	Emit         func(ctx *Context)
	Next         string
	// Input-state fields.
	Transitions []*Transition
	// OnEnter, if non-nil, runs when the state is entered (any kind).
	OnEnter func(ctx *Context)
}

// Spec describes an automaton to be instantiated.
type Spec struct {
	ID      string
	Initial string
	States  []*State
}

// Validate checks structural well-formedness of the spec.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("anta: spec has empty ID")
	}
	names := map[string]*State{}
	for _, st := range s.States {
		if st.Name == "" {
			return fmt.Errorf("anta: %s has a state with empty name", s.ID)
		}
		if _, dup := names[st.Name]; dup {
			return fmt.Errorf("anta: %s has duplicate state %q", s.ID, st.Name)
		}
		names[st.Name] = st
	}
	if _, ok := names[s.Initial]; !ok {
		return fmt.Errorf("anta: %s initial state %q not defined", s.ID, s.Initial)
	}
	for _, st := range s.States {
		switch st.Kind {
		case Output:
			if st.Emit == nil {
				return fmt.Errorf("anta: %s output state %q has no Emit", s.ID, st.Name)
			}
			if _, ok := names[st.Next]; !ok {
				return fmt.Errorf("anta: %s output state %q has unknown Next %q", s.ID, st.Name, st.Next)
			}
		case Input:
			for _, tr := range st.Transitions {
				if _, ok := names[tr.To]; !ok {
					return fmt.Errorf("anta: %s state %q transition %q targets unknown state %q", s.ID, st.Name, tr.Name, tr.To)
				}
				if tr.Match == nil && tr.TimeoutAfter == nil {
					return fmt.Errorf("anta: %s state %q transition %q has neither Match nor TimeoutAfter", s.ID, st.Name, tr.Name)
				}
			}
		case Final:
			// nothing to check
		default:
			return fmt.Errorf("anta: %s state %q has unknown kind %v", s.ID, st.Name, st.Kind)
		}
	}
	return nil
}

// buffered is a received-but-unconsumed message.
type buffered struct {
	from string
	msg  netsim.Message
}

// Automaton is a running instance of a Spec, attached to a network, a local
// clock and a trace.
type Automaton struct {
	spec    Spec
	states  map[string]*State
	current string
	clk     *clock.Clock
	net     *netsim.Network
	tr      *trace.Trace
	vars    map[string]sim.Time
	data    map[string]any
	inbox   []buffered
	pending []sim.Timer // timeout wake-ups for the current state
	done    bool
	doneAt  sim.Time
	// Crashed, when true, makes the automaton ignore everything (used by
	// fault injection).
	crashed bool
}

// NewAutomaton instantiates spec. It panics on an invalid spec: specs are
// built by protocol code, so a malformed one is a programming error.
func NewAutomaton(spec Spec, clk *clock.Clock, net *netsim.Network, tr *trace.Trace) *Automaton {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	a := &Automaton{
		spec:   spec,
		states: map[string]*State{},
		clk:    clk,
		net:    net,
		tr:     tr,
		vars:   map[string]sim.Time{},
		data:   map[string]any{},
	}
	for _, st := range spec.States {
		a.states[st.Name] = st
	}
	net.Register(a)
	return a
}

// ID implements netsim.Node.
func (a *Automaton) ID() string { return a.spec.ID }

// Clock returns the automaton's local clock.
func (a *Automaton) Clock() *clock.Clock { return a.clk }

// Current returns the current state name.
func (a *Automaton) Current() string { return a.current }

// Done reports whether the automaton reached a final state.
func (a *Automaton) Done() bool { return a.done }

// DoneAt returns the real time of termination (meaningful if Done).
func (a *Automaton) DoneAt() sim.Time { return a.doneAt }

// Var reads a clock variable.
func (a *Automaton) Var(name string) sim.Time { return a.vars[name] }

// Data reads a stored protocol value.
func (a *Automaton) Data(key string) any { return a.data[key] }

// Crash makes the automaton stop reacting to anything from now on.
func (a *Automaton) Crash() {
	a.crashed = true
	a.cancelPending()
}

// Start enters the initial state. It must be called exactly once, after all
// automata of the network have been constructed.
func (a *Automaton) Start() { a.enter(a.spec.Initial) }

func (a *Automaton) send(to string, m netsim.Message) {
	if a.crashed {
		return
	}
	a.net.Send(a.spec.ID, to, m)
}

func (a *Automaton) engine() *sim.Engine { return a.net.Engine() }

func (a *Automaton) cancelPending() {
	for _, ev := range a.pending {
		ev.Cancel()
	}
	a.pending = nil
}

func (a *Automaton) enter(name string) {
	if a.crashed || a.done {
		return
	}
	a.cancelPending()
	st, ok := a.states[name]
	if !ok {
		panic(fmt.Sprintf("anta: %s entering unknown state %q", a.spec.ID, name))
	}
	a.current = name
	if a.tr.Recording() {
		a.tr.Append(trace.Event{
			At: a.engine().Now(), Local: a.clk.Now(), Kind: trace.KindState,
			Actor: a.spec.ID, Label: name, Extra: st.Kind.String(),
		})
	}
	ctx := &Context{a: a}
	if st.OnEnter != nil {
		st.OnEnter(ctx)
	}
	switch st.Kind {
	case Final:
		a.done = true
		a.doneAt = a.engine().Now()
		if a.tr.Recording() {
			a.tr.Append(trace.Event{
				At: a.engine().Now(), Local: a.clk.Now(), Kind: trace.KindTerminate,
				Actor: a.spec.ID, Label: name,
			})
		}
	case Output:
		delay := st.ComputeDelay
		if delay < 0 {
			delay = 0
		}
		evName := "emit"
		if a.tr.Recording() {
			evName = a.spec.ID + ":emit:" + name
		}
		ev := a.clk.ScheduleAfterLocal(delay, evName, func() {
			if a.crashed || a.done || a.current != name {
				return
			}
			st.Emit(&Context{a: a})
			a.enter(st.Next)
		})
		a.pending = append(a.pending, ev)
	case Input:
		// Try buffered messages first (in arrival order), then arm timeouts.
		if a.tryBuffered() {
			return
		}
		a.armTimeouts(st)
	}
}

// armTimeouts schedules wake-ups for every timeout transition of st.
func (a *Automaton) armTimeouts(st *State) {
	ctx := &Context{a: a}
	for _, tr := range st.Transitions {
		if tr.TimeoutAfter == nil {
			continue
		}
		tr := tr
		target := tr.TimeoutAfter(ctx)
		name := "timeout"
		if a.tr.Recording() {
			name = fmt.Sprintf("%s:timeout:%s", a.spec.ID, tr.Name)
		}
		var fire func()
		fire = func() {
			if a.crashed || a.done || a.current != st.Name {
				return
			}
			// Re-check the guard against the current local clock; if drift
			// rounding left us marginally early, re-arm rather than drop.
			if deadline := tr.TimeoutAfter(&Context{a: a}); a.clk.Now() < deadline {
				ev := a.clk.ScheduleAtLocal(deadline, name, fire)
				a.pending = append(a.pending, ev)
				return
			}
			a.take(tr, "", nil)
		}
		ev := a.clk.ScheduleAtLocal(target, name, fire)
		a.pending = append(a.pending, ev)
	}
}

// take fires a transition.
func (a *Automaton) take(tr *Transition, from string, msg netsim.Message) {
	ctx := &Context{a: a, From: from, Msg: msg}
	if tr.TimeoutAfter != nil && tr.Match == nil && a.tr.Recording() {
		a.tr.Append(trace.Event{
			At: a.engine().Now(), Local: a.clk.Now(), Kind: trace.KindTimeout,
			Actor: a.spec.ID, Label: tr.Name,
		})
	}
	if tr.Action != nil {
		tr.Action(ctx)
	}
	a.enter(tr.To)
}

// tryBuffered attempts to consume one buffered message with the current
// state's transitions; returns true if a transition fired.
func (a *Automaton) tryBuffered() bool {
	st := a.states[a.current]
	if st == nil || st.Kind != Input {
		return false
	}
	ctx := &Context{a: a}
	for i, b := range a.inbox {
		for _, tr := range st.Transitions {
			if tr.Match == nil {
				continue
			}
			if tr.Match(ctx, b.from, b.msg) {
				a.inbox = append(a.inbox[:i:i], a.inbox[i+1:]...)
				a.take(tr, b.from, b.msg)
				return true
			}
		}
	}
	return false
}

// Deliver implements netsim.Node: buffer the message, then try to consume it
// if the automaton is currently waiting in an input state.
func (a *Automaton) Deliver(from string, msg netsim.Message) {
	if a.crashed || a.done {
		return
	}
	a.inbox = append(a.inbox, buffered{from: from, msg: msg})
	st := a.states[a.current]
	if st != nil && st.Kind == Input {
		a.tryBuffered()
	}
}

// Network is a convenience holder for a set of automata started together.
type Network struct {
	automata map[string]*Automaton
}

// NewNetwork returns an empty automata collection.
func NewNetwork() *Network { return &Network{automata: map[string]*Automaton{}} }

// Add registers an automaton.
func (n *Network) Add(a *Automaton) *Automaton {
	n.automata[a.ID()] = a
	return a
}

// Get returns the automaton with the given ID.
func (n *Network) Get(id string) (*Automaton, bool) {
	a, ok := n.automata[id]
	return a, ok
}

// IDs returns the sorted automaton IDs.
func (n *Network) IDs() []string {
	out := make([]string, 0, len(n.automata))
	for id := range n.automata {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// StartAll starts every automaton (in sorted ID order, for determinism).
func (n *Network) StartAll() {
	for _, id := range n.IDs() {
		n.automata[id].Start()
	}
}

// AllDone reports whether every automaton reached a final state.
func (n *Network) AllDone() bool {
	for _, a := range n.automata {
		if !a.done {
			return false
		}
	}
	return true
}
