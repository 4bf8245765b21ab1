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
// A Spec is what the figure fixes: states, transitions and clock variables,
// with guards, actions and emitters that are functions of the *Context
// alone. Compile validates it once and resolves every name to an index; the
// Program it returns is immutable and shared by any number of automata and
// goroutines. An Automaton is what a run fixes: one participant executing a
// Program — its identifier, clock and network, and the adapter that tells
// e_0 from e_3 (amounts, windows, the messages it sends), which the Context
// hands to the Program's functions. Reset rebinds a standing automaton to a
// new run, and a muted step of the interpreter allocates nothing.
//
// internal/timelock compiles the four automata of Fig. 2 on top of this
// package; the generic interpreter here knows nothing about payments.
package anta

import (
	"fmt"
	"slices"

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

// Context is what a Program's guards, actions and emitters see of the
// automaton executing them: its adapter, clock variables, local clock and
// messaging. Each automaton has one, valid for the duration of the call.
type Context struct {
	a *Automaton
	// From and Msg are set while a message-triggered transition's Action runs.
	From string
	Msg  netsim.Message
}

// Adapter returns what the automaton was Reset with: the per-run, per-
// participant half of the automaton, which the Program's functions assert
// back to its concrete type.
func (c *Context) Adapter() any { return c.a.adapter }

// Now returns the automaton's local clock reading.
func (c *Context) Now() sim.Time { return c.a.clk.Now() }

// Set assigns clock variable v, an index into Spec.Vars (the paper's
// `x := now` is Set(x, Now())).
func (c *Context) Set(v int, t sim.Time) { c.a.vars[v] = t }

// Get reads clock variable v.
func (c *Context) Get(v int) sim.Time { return c.a.vars[v] }

// Send performs the output action s(to, m). m travels by reference: it must
// not be written again before the automaton's next Reset.
func (c *Context) Send(to string, m netsim.Message) {
	if !c.a.crashed {
		c.a.net.Send(c.a.id, to, m)
	}
}

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

	// Resolved by Compile: the target's index and, for a timeout transition,
	// which of the automaton's wake-up slots it arms.
	to, slot int
}

// State is one automaton state.
type State struct {
	Name string
	Kind StateKind
	// Output-state fields: the automaton spends its compute delay of local
	// time (see Reset), runs Emit (which performs the sends), then moves to
	// Next.
	Emit func(ctx *Context)
	Next string
	// Input-state fields.
	Transitions []Transition

	next int // Next's index, resolved by Compile
}

// Spec describes an automaton as the figure draws it. Its functions should
// capture nothing: whatever varies from one participant or run to the next
// reaches them through Context.Adapter.
type Spec struct {
	// Name says which automaton of the figure this is ("e_i"); the running
	// instance's identifier is given to Automaton.Reset.
	Name    string
	Initial string
	// Vars names the clock variables; Context.Set and Get take the index.
	Vars   []string
	States []State
}

// Validate checks structural well-formedness of the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("anta: spec has empty name")
	}
	names := map[string]bool{}
	for _, st := range s.States {
		if st.Name == "" {
			return fmt.Errorf("anta: %s has a state with empty name", s.Name)
		}
		if names[st.Name] {
			return fmt.Errorf("anta: %s has duplicate state %q", s.Name, st.Name)
		}
		names[st.Name] = true
	}
	if !names[s.Initial] {
		return fmt.Errorf("anta: %s initial state %q not defined", s.Name, s.Initial)
	}
	for _, st := range s.States {
		switch st.Kind {
		case Output:
			if st.Emit == nil {
				return fmt.Errorf("anta: %s output state %q has no Emit", s.Name, st.Name)
			}
			if !names[st.Next] {
				return fmt.Errorf("anta: %s output state %q has unknown Next %q", s.Name, st.Name, st.Next)
			}
		case Input:
			for _, tr := range st.Transitions {
				if !names[tr.To] {
					return fmt.Errorf("anta: %s state %q transition %q targets unknown state %q", s.Name, st.Name, tr.Name, tr.To)
				}
				if tr.Match == nil && tr.TimeoutAfter == nil {
					return fmt.Errorf("anta: %s state %q transition %q has neither Match nor TimeoutAfter", s.Name, st.Name, tr.Name)
				}
			}
		case Final:
			// nothing to check
		default:
			return fmt.Errorf("anta: %s state %q has unknown kind %v", s.Name, st.Name, st.Kind)
		}
	}
	return nil
}

// Program is a compiled Spec: validated, every state name, transition target
// and timeout resolved to an index. It is immutable.
type Program struct {
	states   []State
	initial  int
	vars     int // clock variables
	timeouts int // timeout transitions, one wake-up slot each
}

// Compile validates spec and resolves its names. The program holds copies
// of the spec's slices: later writes to spec do not reach it.
func Compile(spec Spec) (*Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Program{states: slices.Clone(spec.States), vars: len(spec.Vars)}
	index := func(name string) int {
		return slices.IndexFunc(p.states, func(st State) bool { return st.Name == name })
	}
	p.initial = index(spec.Initial)
	for i := range p.states {
		st := &p.states[i]
		st.next = index(st.Next)
		st.Transitions = slices.Clone(st.Transitions)
		for k := range st.Transitions {
			tr := &st.Transitions[k]
			tr.to = index(tr.To)
			if tr.TimeoutAfter != nil {
				tr.slot = p.timeouts
				p.timeouts++
			}
		}
	}
	return p, nil
}

// MustCompile is Compile for specs written in protocol code, where a
// malformed one is a programming error: it panics.
func MustCompile(spec Spec) *Program {
	p, err := Compile(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// buffered is a received-but-unconsumed message.
type buffered struct {
	from string
	msg  netsim.Message
}

// wakeup is the argument of one timeout transition's scheduled wake-up.
type wakeup struct {
	a  *Automaton
	tr *Transition
}

// Automaton is one participant executing a Program in one run, attached to a
// network, a local clock and a trace. The zero value is ready for Reset, and
// Reset makes a used automaton — terminated, crashed or cut short wherever —
// indistinguishable from a new one, keeping only its slices' storage. An
// automaton must not be copied after Reset: the network and the engine hold
// pointers to it.
type Automaton struct {
	prog    *Program
	id      string
	adapter any
	compute sim.Time // local time an output state computes for
	clk     *clock.Clock
	net     *netsim.Network
	tr      *trace.Trace
	ctx     Context

	current int // index into prog.states; -1 before Start
	vars    []sim.Time
	inbox   []buffered
	pending []sim.Timer // emission or timeout wake-ups of the current state
	wakeups []wakeup    // one per timeout transition of prog
	done    bool
	doneAt  sim.Time
	// crashed makes the automaton ignore everything (fault injection).
	crashed bool
}

// Reset makes a the automaton called id executing prog in a new run, with
// the given adapter, spending compute of local time in every output state,
// and registers it on net.
func (a *Automaton) Reset(prog *Program, id string, adapter any, compute sim.Time, clk *clock.Clock, net *netsim.Network, tr *trace.Trace) {
	clear(a.inbox) // drop the previous run's messages
	*a = Automaton{
		prog: prog, id: id, adapter: adapter, compute: max(compute, 0), clk: clk, net: net, tr: tr,
		current: -1,
		vars:    slices.Grow(a.vars[:0], prog.vars)[:prog.vars],
		inbox:   a.inbox[:0],
		pending: a.pending[:0],
		wakeups: slices.Grow(a.wakeups[:0], prog.timeouts)[:prog.timeouts],
	}
	a.ctx.a = a
	clear(a.vars)
	net.Register(a)
}

// ID implements netsim.Node.
func (a *Automaton) ID() string { return a.id }

// Current returns the current state's name ("" before Start).
func (a *Automaton) Current() string {
	if a.current < 0 {
		return ""
	}
	return a.prog.states[a.current].Name
}

// Done reports whether the automaton reached a final state.
func (a *Automaton) Done() bool { return a.done }

// DoneAt returns the real time of termination (meaningful if Done).
func (a *Automaton) DoneAt() sim.Time { return a.doneAt }

// Var reads clock variable v, an index into Spec.Vars.
func (a *Automaton) Var(v int) sim.Time { return a.vars[v] }

// Crash makes the automaton stop reacting to anything from now on.
func (a *Automaton) Crash() {
	a.crashed = true
	a.cancelPending()
}

// Start enters the initial state. It must be called exactly once per run,
// after all automata of the network have been Reset.
func (a *Automaton) Start() { a.enter(a.prog.initial) }

func (a *Automaton) cancelPending() {
	for _, ev := range a.pending {
		ev.Cancel()
	}
	a.pending = a.pending[:0]
}

// enter moves the automaton into state i.
//
//xchain:hotpath
func (a *Automaton) enter(i int) {
	if a.crashed || a.done {
		return
	}
	a.cancelPending()
	st := &a.prog.states[i]
	a.current = i
	recording := a.tr.Recording()
	if recording {
		a.tr.Append(trace.Event{
			At: a.net.Engine().Now(), Local: a.clk.Now(), Kind: trace.KindState,
			Actor: a.id, Label: st.Name, Extra: st.Kind.String(),
		})
	}
	switch st.Kind {
	case Final:
		a.done = true
		a.doneAt = a.net.Engine().Now()
		if recording {
			a.tr.Append(trace.Event{
				At: a.net.Engine().Now(), Local: a.clk.Now(), Kind: trace.KindTerminate,
				Actor: a.id, Label: st.Name,
			})
		}
	case Output:
		name := "emit"
		if recording {
			name = a.id + ":emit:" + st.Name
		}
		a.pending = append(a.pending, a.clk.ScheduleArgAfterLocal(a.compute, name, emit, a))
	case Input:
		// Try buffered messages first (in arrival order), then arm timeouts.
		if !a.tryBuffered() {
			a.armTimeouts(st)
		}
	}
}

// emit is the scheduled end of an output state's computation: perform the
// sends and move on. Leaving a state and crashing cancel the pending events,
// so the automaton is live and still in the state that scheduled this.
//
//xchain:hotpath
func emit(x any) {
	a := x.(*Automaton)
	st := &a.prog.states[a.current]
	st.Emit(&a.ctx)
	a.enter(st.next)
}

// armTimeouts schedules a wake-up for every timeout transition of st.
//
//xchain:hotpath
func (a *Automaton) armTimeouts(st *State) {
	for k := range st.Transitions {
		if tr := &st.Transitions[k]; tr.TimeoutAfter != nil {
			w := &a.wakeups[tr.slot]
			w.a, w.tr = a, tr
			a.arm(w, tr.TimeoutAfter(&a.ctx))
		}
	}
}

// arm schedules w's wake-up for local time deadline.
//
//xchain:hotpath
func (a *Automaton) arm(w *wakeup, deadline sim.Time) {
	name := "timeout"
	if a.tr.Recording() {
		name = fmt.Sprintf("%s:timeout:%s", a.id, w.tr.Name)
	}
	a.pending = append(a.pending, a.clk.ScheduleArgAtLocal(deadline, name, wake, w))
}

// wake fires a timeout transition's wake-up (not canceled, so the automaton
// is live and still in the transition's state).
//
//xchain:hotpath
func wake(x any) {
	w := x.(*wakeup)
	a := w.a
	// Re-check the guard against the current local clock; if drift rounding
	// left us marginally early, re-arm rather than drop.
	if deadline := w.tr.TimeoutAfter(&a.ctx); a.clk.Now() < deadline {
		a.arm(w, deadline)
		return
	}
	a.take(w.tr, "", nil)
}

// take fires a transition.
//
//xchain:hotpath
func (a *Automaton) take(tr *Transition, from string, msg netsim.Message) {
	if tr.Match == nil && a.tr.Recording() {
		a.tr.Append(trace.Event{
			At: a.net.Engine().Now(), Local: a.clk.Now(), Kind: trace.KindTimeout,
			Actor: a.id, Label: tr.Name,
		})
	}
	if tr.Action != nil {
		a.ctx.From, a.ctx.Msg = from, msg
		tr.Action(&a.ctx)
		a.ctx.From, a.ctx.Msg = "", nil
	}
	a.enter(tr.to)
}

// tryBuffered attempts to consume one buffered message with the current
// (input) state's transitions; returns true if a transition fired.
//
//xchain:hotpath
func (a *Automaton) tryBuffered() bool {
	st := &a.prog.states[a.current]
	for i, b := range a.inbox {
		for k := range st.Transitions {
			tr := &st.Transitions[k]
			if tr.Match != nil && tr.Match(&a.ctx, b.from, b.msg) {
				a.inbox = slices.Delete(a.inbox, i, i+1)
				a.take(tr, b.from, b.msg)
				return true
			}
		}
	}
	return false
}

// Deliver implements netsim.Node: buffer the message, then try to consume it
// if the automaton is currently waiting in an input state.
//
//xchain:hotpath
func (a *Automaton) Deliver(from string, msg netsim.Message) {
	if a.crashed || a.done {
		return
	}
	a.inbox = append(a.inbox, buffered{from: from, msg: msg})
	if a.current >= 0 && a.prog.states[a.current].Kind == Input {
		a.tryBuffered()
	}
}
