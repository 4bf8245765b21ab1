// Package hotalloc is a golden-diagnostic fixture for the hotalloc
// analyzer. The local Trace and Engine types mirror the real trace.Trace and
// sim.Engine surfaces (Recording, Add, AddLazy; ScheduleIn, ScheduleAt,
// ScheduleArgIn) that the analyzer keys on by name, and Clock mirrors
// clock.Clock's local-time wrappers of them.
package hotalloc

import "fmt"

type Engine struct{ queue []func() }

func (e *Engine) ScheduleIn(d int64, name string, fn func()) { e.queue = append(e.queue, fn) }

func (e *Engine) ScheduleAt(at int64, name string, fn func()) { e.queue = append(e.queue, fn) }

func (e *Engine) ScheduleArgIn(d int64, name string, fn func(any), arg any) {
	e.queue = append(e.queue, func() { fn(arg) })
}

type Clock struct{ eng *Engine }

func (c *Clock) ScheduleAtLocal(target int64, name string, fn func()) {
	c.eng.ScheduleAt(target, name, fn)
}

func (c *Clock) ScheduleAfterLocal(d int64, name string, fn func()) { c.eng.ScheduleIn(d, name, fn) }

func (c *Clock) ScheduleArgAfterLocal(d int64, name string, fn func(any), arg any) {
	c.eng.ScheduleArgIn(d, name, fn, arg)
}

type proc struct {
	eng  *Engine
	clk  *Clock
	sent int
}

var ticks int

// Bad: one closure per scheduled action, whichever of the two it goes to.
//
//xchain:hotpath
func (p *proc) closurePerAction(d int64, amount int) {
	p.eng.ScheduleIn(d, "send", func() { p.sent += amount }) // want `capturing closure passed to ScheduleIn in hot path closurePerAction allocates per event; use ScheduleArgIn`
	p.eng.ScheduleAt(d, "send", func() { p.sent++ })         // want `capturing closure passed to ScheduleAt in hot path closurePerAction allocates per event; use ScheduleArgAt`
}

// Bad: a local clock's wrappers cost the same closure (this is how the ANTA
// interpreter's went unnoticed).
//
//xchain:hotpath
func (p *proc) closurePerLocalTimer(d int64) {
	p.clk.ScheduleAfterLocal(d, "emit", func() { p.sent++ }) // want `capturing closure passed to ScheduleAfterLocal in hot path closurePerLocalTimer allocates per event; use ScheduleArgAfterLocal`
	p.clk.ScheduleAtLocal(d, "timeout", func() { p.sent++ }) // want `capturing closure passed to ScheduleAtLocal in hot path closurePerLocalTimer allocates per event; use ScheduleArgAtLocal`
	p.clk.ScheduleArgAfterLocal(d, "emit", procSend, p)
}

// A method of the same name on another type is not the clock's.
type planner struct{ todo []func() }

func (pl *planner) ScheduleAtLocal(target int64, name string, fn func()) {
	pl.todo = append(pl.todo, fn)
}

//xchain:hotpath
func (p *proc) otherReceiver(pl *planner, d int64) {
	pl.ScheduleAtLocal(d, "plan", func() { p.sent++ })
}

// Good: the process is the argument of a package-level action, and a
// literal that captures nothing (package-level state is not a capture) is a
// static function value.
//
//xchain:hotpath
func (p *proc) closureFree(d int64) {
	p.eng.ScheduleArgIn(d, "send", procSend, p)
	p.eng.ScheduleIn(d, "tick", func() {
		step := 1
		ticks += step
	})
}

func procSend(x any) { x.(*proc).sent++ }

// No directive, no checks: cold paths may close over what they like.
func (p *proc) coldClosure(d int64) {
	p.eng.ScheduleIn(d, "send", func() { p.sent++ })
}

type Trace struct {
	on     bool
	events []string
}

func (t *Trace) Recording() bool { return t != nil && t.on }

func (t *Trace) Add(label string) { t.events = append(t.events, label) }

func (t *Trace) AddLazy(f func() string) { t.events = append(t.events, f()) }

//xchain:hotpath
func eagerFormat(seq uint64) string {
	return fmt.Sprintf("seq=%d", seq) // want `eager fmt\.Sprintf in hot path eagerFormat not guarded by Recording\(\)`
}

//xchain:hotpath
func eagerTrace(tr *Trace, id string) {
	tr.Add(id) // want `trace Add in hot path eagerTrace not guarded by Recording\(\)`
}

//xchain:hotpath
func eagerConcat(id string, seq uint64) string {
	_ = seq
	return id + "!" // want `string concatenation in hot path eagerConcat not guarded by Recording\(\)`
}

// Guard spelling 1: Recording() called directly in the if condition.
//
//xchain:hotpath
func guardedDirect(tr *Trace, id string) {
	if tr.Recording() {
		tr.Add("deliver " + id)
	}
}

// Guard spelling 2: branching on a bool bound from a Recording() call.
//
//xchain:hotpath
func guardedBound(tr *Trace, id string) {
	recording := tr.Recording()
	if recording {
		tr.Add("send " + id)
	}
}

// Building the lazy closure still allocates on a muted run, so the AddLazy
// call itself is flagged; the Sprintf inside the literal is lazy and exempt.
//
//xchain:hotpath
func lazyClosure(tr *Trace, seq uint64) {
	tr.AddLazy(func() string { return fmt.Sprintf("seq=%d", seq) }) // want `trace AddLazy in hot path lazyClosure not guarded by Recording\(\)`
}

// A negated condition is not a guard: this body runs exactly when muted.
//
//xchain:hotpath
func negated(tr *Trace, id string) {
	if !tr.Recording() {
		tr.Add(id) // want `trace Add in hot path negated not guarded by Recording\(\)`
	}
}

// Error construction is a result the caller demanded, not observability.
//
//xchain:hotpath
func errorsAllowed(id string) error {
	return fmt.Errorf("unknown participant %q", id)
}

// No directive, no checks: cold paths may format freely.
func coldPath(tr *Trace, seq uint64) {
	tr.Add(fmt.Sprintf("seq=%d", seq))
}

//xchain:hotpath
func justified(tr *Trace, id string) {
	//lint:hotalloc fixture: a justified suppression silences the finding
	tr.Add(id)
}
