// Package hotalloc is a golden-diagnostic fixture for the hotalloc
// analyzer. The local Trace and Engine types mirror the real trace.Trace and
// sim.Engine surfaces (Recording, Add; ScheduleArgIn, ScheduleArgAt) that
// the analyzer keys on by name, and Clock mirrors clock.Clock's local-time
// wrappers of them.
package hotalloc

import "fmt"

type Engine struct{ queue []func() }

func (e *Engine) ScheduleArgIn(d int64, name string, fn func(any), arg any) {
	e.queue = append(e.queue, func() { fn(arg) })
}

func (e *Engine) ScheduleArgAt(at int64, name string, fn func(any), arg any) {
	e.queue = append(e.queue, func() { fn(arg) })
}

type Clock struct{ eng *Engine }

func (c *Clock) ScheduleArgAtLocal(target int64, fn func(any), arg any) {
	c.eng.ScheduleArgAt(target, "", fn, arg)
}

func (c *Clock) ScheduleArgAfterLocal(d int64, fn func(any), arg any) {
	c.eng.ScheduleArgIn(d, "", fn, arg)
}

type proc struct {
	eng  *Engine
	clk  *Clock
	sent int
}

var ticks int

// Bad: one closure per scheduled action, whichever entry point it goes to.
//
//xchain:hotpath
func (p *proc) closurePerAction(d int64, amount int) {
	p.eng.ScheduleArgIn(d, "send", func(any) { p.sent += amount }, nil) // want `capturing closure passed to ScheduleArgIn in hot path closurePerAction allocates per event; pass a package-level action and bind its state in arg`
	p.eng.ScheduleArgAt(d, "send", func(any) { p.sent++ }, nil)         // want `capturing closure passed to ScheduleArgAt in hot path closurePerAction allocates per event`
}

// Bad: a local clock's wrappers cost the same closure (this is how the ANTA
// interpreter's went unnoticed).
//
//xchain:hotpath
func (p *proc) closurePerLocalTimer(d int64) {
	p.clk.ScheduleArgAfterLocal(d, func(any) { p.sent++ }, nil) // want `capturing closure passed to ScheduleArgAfterLocal in hot path closurePerLocalTimer allocates per event`
	p.clk.ScheduleArgAtLocal(d, func(any) { p.sent++ }, nil)    // want `capturing closure passed to ScheduleArgAtLocal in hot path closurePerLocalTimer allocates per event`
	p.clk.ScheduleArgAfterLocal(d, procSend, p)
}

// A method of the same name on another type is not the clock's.
type planner struct{ todo []func(any) }

func (pl *planner) ScheduleArgAtLocal(target int64, fn func(any), arg any) {
	pl.todo = append(pl.todo, fn)
}

//xchain:hotpath
func (p *proc) otherReceiver(pl *planner, d int64) {
	pl.ScheduleArgAtLocal(d, func(any) { p.sent++ }, nil)
}

// Good: the process is the argument of a package-level action, and a
// literal that captures nothing (package-level state is not a capture) is a
// static function value.
//
//xchain:hotpath
func (p *proc) closureFree(d int64) {
	p.eng.ScheduleArgIn(d, "send", procSend, p)
	p.eng.ScheduleArgIn(d, "tick", func(any) {
		step := 1
		ticks += step
	}, nil)
}

func procSend(x any) { x.(*proc).sent++ }

// No directive, no checks: cold paths may close over what they like.
func (p *proc) coldClosure(d int64) {
	p.eng.ScheduleArgIn(d, "send", func(any) { p.sent++ }, nil)
}

type Trace struct {
	on     bool
	events []string
}

func (t *Trace) Recording() bool { return t != nil && t.on }

func (t *Trace) Add(label string) { t.events = append(t.events, label) }

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

// The body of a function literal runs when the literal is called, not on
// the hot function's own path: the Sprintf inside it is exempt.
//
//xchain:hotpath
func literalBody(tr *Trace, seq uint64) func() string {
	return func() string { return fmt.Sprintf("seq=%d", seq) }
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

// registry is a name-keyed table, the shape a participant table had before
// PIDs.
type registry struct {
	byName map[string]int
	byID   map[int]int
	names  []string
}

// Bad: every read or write of a string-keyed map hashes a name.
//
//xchain:hotpath
func (r *registry) lookups(name string, tr *Trace) int {
	n := r.byName[name]              // want `index into a string-keyed map in hot path lookups; address the participant by its PID instead of hashing its name`
	r.byName[name] = n + 1           // want `index into a string-keyed map in hot path lookups`
	if v, ok := r.byName["c0"]; ok { // want `index into a string-keyed map in hot path lookups`
		n += v
	}
	return n + r.byID[n] + len(r.names[n])
}

// Good: an integer-keyed map or a slice is no name lookup, a lookup under a
// Recording() guard is rendering, and a literal runs when called.
//
//xchain:hotpath
func (r *registry) guardedLookups(pid int, tr *Trace) int {
	n := r.byID[pid]
	if tr.Recording() {
		n += r.byName[r.names[pid]]
	}
	count := func(name string) int { return r.byName[name] }
	return n + count("c1")
}
