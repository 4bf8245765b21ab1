package sim

// Checkpoint support: the traffic layer snapshots a run mid-flight and later
// rebuilds a byte-identical engine. Restoring an engine is a three-step
// protocol on a freshly constructed Engine:
//
//  1. RestoreEvent (or RestoreEventArg) once per pending event captured from
//     the old engine, re-attaching a freshly built callback under the
//     event's original (at, seq) coordinates. Order of calls does not
//     matter: the heap property only depends on (at, seq).
//  2. RestoreClock to set the virtual clock and the seq/fired/scheduled
//     cursors to their captured values.
//  3. Resume the normal Run/RunBefore drive loop.
//
// Restored events must carry seq values strictly below the seq cursor passed
// to RestoreClock, so that events scheduled after the restore sort after
// every restored event at the same instant — exactly as in the original run.

// Pending returns the firing coordinates (at, seq) of a timer's event when it
// is still live: scheduled, not yet fired, and not canceled. ok is false for
// the zero Timer, for stale timers whose event already fired or was recycled,
// and for canceled events. Checkpointing uses this to capture the exact heap
// position a rebuilt event must reoccupy.
func (t Timer) Pending() (at Time, seq uint64, ok bool) {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.canceled {
		return 0, 0, false
	}
	return t.ev.at, t.ev.seq, true
}

// RestoreEvent inserts an event at explicit heap coordinates (at, seq),
// bypassing the seq allocator and the scheduled counter — both are restored
// wholesale by RestoreClock. The returned Timer is a normal cancelable
// handle. RestoreEvent must only be used while rebuilding an engine from a
// checkpoint, before RestoreClock.
func (e *Engine) RestoreEvent(at Time, seq uint64, name string, fn func()) Timer {
	return e.restore(at, seq, name, fn, nil, nil)
}

// RestoreEventArg is RestoreEvent for an event scheduled with ScheduleArgAt
// or ScheduleArgIn: fn fires with arg.
func (e *Engine) RestoreEventArg(at Time, seq uint64, name string, fn func(any), arg any) Timer {
	return e.restore(at, seq, name, nil, fn, arg)
}

func (e *Engine) restore(at Time, seq uint64, name string, fn func(), argFn func(any), arg any) Timer {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.name = name
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	ev.seq = seq
	ev.canceled = false
	e.push(ev)
	e.live++
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// RestoreClock sets the engine's virtual clock, sequence cursor and
// fired/scheduled totals to captured values. Call it after every
// RestoreEvent: restored events keep their original seq values, and new
// events scheduled once the run resumes draw seq values above the cursor.
func (e *Engine) RestoreClock(now Time, seq, fired, scheduled uint64) {
	e.now = now
	e.seq = seq
	e.fired = fired
	e.scheduled = scheduled
}

// Clock returns the engine's restorable clock state: the current virtual
// time, the sequence cursor, and the fired/scheduled totals. Together with
// Timer.Pending over every live event it is a complete description of the
// engine for checkpointing purposes.
func (e *Engine) Clock() (now Time, seq, fired, scheduled uint64) {
	return e.now, e.seq, e.fired, e.scheduled
}
