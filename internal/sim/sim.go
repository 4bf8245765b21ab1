// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocols in this repository execute on top of this kernel: virtual
// time only advances when the next scheduled event is processed, so a run is
// a pure function of its inputs (scenario parameters and RNG seed). This is
// what lets the property checkers in internal/check and the scenario fuzzer
// and Theorem-2 search in internal/scenariogen reason about executions.
//
// The kernel is written for the muted hot path: every experiment sweep and
// traffic run schedules and fires millions of events, so the event queue
// (Queue, which the traffic admission timeline runs on too) is a hand-rolled
// min-heap of pointer-free (at, seq, ref, kind) entries. An engine event is a
// package-level action with a pre-bound argument (ScheduleArgAt), kept in a
// slot its entry's ref indexes, so scheduling reuses a freed slot and
// performs no heap allocation in steady state.
package sim

import "strconv"

// Time is virtual time in microseconds since the start of the run.
//
// Microsecond granularity is fine enough to express clock drift over
// realistic message delays while keeping all arithmetic in int64.
type Time int64

// Convenient duration units expressed in Time ticks.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Never is a sentinel Time larger than any reachable simulation instant.
const Never Time = 1<<62 - 1

// String renders a Time in a human-friendly way (milliseconds with three
// decimals), used by traces and experiment tables.
func (t Time) String() string {
	var buf [32]byte
	return string(t.Append(buf[:0]))
}

// Append appends String's rendering of t to b. Labels that embed a time
// (the escrow promises' Describe) build themselves in one buffer with it.
func (t Time) Append(b []byte) []byte {
	if t == Never {
		return append(b, "never"...)
	}
	b = strconv.AppendFloat(b, float64(t)/float64(Millisecond), 'f', 3, 64)
	return append(b, "ms"...)
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// slot is a scheduled event's action: what it does (fn(arg)) and whether it
// still may (gen, canceled). Slot i acts for the queue entry whose Ref is i;
// the engine frees it once its event fired or was discarded, linking it into
// the free list through next, so external code never holds one directly:
// Timer is the caller-facing handle.
type slot struct {
	fn       func(any)
	arg      any
	gen      uint64 // incremented on release; stale Timers no longer match
	next     int32  // while free: the next free slot plus one (0: none)
	canceled bool
}

// Timer is a cancelable handle to a scheduled event. The zero value is an
// inert timer: Cancel and Canceled are no-ops on it. A Timer whose event has
// already fired (or was discarded) is stale, and canceling it is a no-op —
// its slot may already act for a different, later event.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or was already canceled is a no-op.
//
//xchain:hotpath
func (t Timer) Cancel() {
	if t.eng == nil {
		return
	}
	if s := &t.eng.slots[t.slot]; s.gen == t.gen && !s.canceled {
		s.canceled = true
		t.eng.live--
		t.eng.q.CountCanceled()
	}
}

// Canceled reports whether the event is still pending but canceled. It
// returns false for the zero Timer and for stale timers whose event already
// fired or was discarded.
func (t Timer) Canceled() bool {
	if t.eng == nil {
		return false
	}
	s := &t.eng.slots[t.slot]
	return s.gen == t.gen && s.canceled
}

// Engine is a single-run simulation engine. It is not safe for concurrent
// use: a run is strictly sequential, which is what makes it reproducible.
// Parallelism in this repository happens across independent runs.
type Engine struct {
	q     Queue  // the pending events, an entry's Ref its slot
	slots []slot // the events' actions
	free  int32  // the first free slot plus one (0: none)
	live  int    // pending events that are not canceled
	rng   *Rand
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Reset returns the engine to the state NewEngine(seed) builds — virtual
// time 0, no pending events, zeroed counters, the RNG at the start of
// seed's stream — in O(pending events), keeping the queue's and the slot
// table's capacity and the metrics hooks. Timers handed out before the Reset
// are stale: their events are gone and Cancel on them is a no-op.
func (e *Engine) Reset(seed int64) {
	for _, en := range e.q.heap {
		e.release(en.Ref)
	}
	e.q.Reset()
	e.live = 0
	e.rng.Seed(seed)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.q.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// EventsScheduled returns the total number of events scheduled so far.
func (e *Engine) EventsScheduled() uint64 { return e.q.seq }

// EventsFired returns the total number of events that have fired so far.
func (e *Engine) EventsFired() uint64 { return e.q.fired }

// Pending returns the number of events currently waiting in the queue
// (including canceled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.q.heap) }

// Live returns the number of pending events that have not been canceled.
func (e *Engine) Live() int { return e.live }

// release invalidates every Timer on slot i and frees it.
//
//xchain:hotpath
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.gen++
	s.fn, s.arg = nil, nil
	s.next = e.free
	e.free = i + 1
}

// newSlot adds a slot to the table and returns its index: the free list is
// empty. The table doubles when full, and the queue's heap with it: every
// entry in the heap holds a slot, so the heap never grows on its own.
func (e *Engine) newSlot() int32 {
	if n := len(e.slots); n == cap(e.slots) {
		e.slots = append(make([]slot, 0, max(2*n, 16)), e.slots...)
		e.q.heap = append(make([]Entry, 0, cap(e.slots)), e.q.heap...)
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// ScheduleArgAt registers fn(arg) to run at absolute virtual time at.
// Scheduling in the past is clamped to "now": the event fires before time
// advances further. fn is meant to be a package-level function with all
// per-event state pre-bound in arg, so the hot path allocates nothing: arg
// is typically a pointer into a caller-managed pool, and boxing a pointer
// into an interface does not allocate. The engine keeps no name: name is
// ignored, and stays in the signature because the benchmark harness
// (benchmark/probes.go) passes one. The event's slot is taken from the free
// list, else added to the table, so in steady state scheduling allocates
// nothing.
//
//xchain:hotpath
func (e *Engine) ScheduleArgAt(at Time, name string, fn func(any), arg any) Timer {
	i := e.free - 1
	if i < 0 {
		i = e.newSlot()
	} else {
		e.free = e.slots[i].next
	}
	s := &e.slots[i]
	s.fn, s.arg, s.canceled = fn, arg, false
	e.q.Push(e.q.stamp(at, i, 0)) // q.Schedule, without the call
	e.live++
	return Timer{eng: e, slot: i, gen: s.gen}
}

// ScheduleArgIn registers fn(arg) to run after delay d from the current
// time, a negative d counting as none; name is ignored, as for
// ScheduleArgAt.
//
//xchain:hotpath
func (e *Engine) ScheduleArgIn(d Time, name string, fn func(any), arg any) Timer {
	return e.ScheduleArgAt(e.q.now+d, name, fn, arg)
}

// step fires the earliest pending event, discarding the canceled ones that
// surface before it. It returns false when no event is due by until.
//
//xchain:hotpath
func (e *Engine) step(until Time) bool {
	for len(e.q.heap) > 0 {
		next := e.q.heap[0]
		s := &e.slots[next.Ref]
		if s.canceled {
			e.q.Discard()
			e.release(next.Ref)
			continue
		}
		if next.At > until {
			return false
		}
		e.q.Fire()
		e.live--
		// Copy the action out and release its slot before invoking: the
		// action may itself schedule (reusing this slot) or cancel its own
		// stale Timer, both of which are safe once the generation has been
		// bumped.
		fn, arg := s.fn, s.arg
		e.release(next.Ref)
		fn(arg)
		return true
	}
	return false
}

// Run processes events until the queue drains or the limit on fired events
// is exceeded. It returns the virtual time at which the run ended and the
// number of events fired.
func (e *Engine) Run(maxEvents uint64) (Time, uint64) {
	return e.RunUntil(Never, maxEvents)
}

// RunUntil processes events with firing time <= until, subject to the same
// termination conditions as Run. Virtual time is advanced to until if no
// live event due by until remains and until is not Never.
func (e *Engine) RunUntil(until Time, maxEvents uint64) (Time, uint64) {
	var fired uint64
	for (maxEvents == 0 || fired < maxEvents) && e.step(until) {
		fired++
	}
	// Advance to until only once no event due by it remains (maxEvents may
	// have stopped the loop short); otherwise the clock would later run
	// backwards when the leftover events fire.
	if until != Never && e.q.now < until && e.NextEventTime() > until {
		e.q.AdvanceTo(until)
	}
	return e.q.now, fired
}

// RunBefore processes every event with firing time strictly earlier than t,
// subject to the same termination conditions as Run, then advances virtual
// time to t. It lets a driver inject externally-sourced work at time t ahead
// of any already-scheduled event at the same instant, exactly as if that
// work had been scheduled before the run started (the traffic admission
// model's reference run interleaves arrivals with settlements so).
func (e *Engine) RunBefore(t Time, maxEvents uint64) (Time, uint64) {
	_, fired := e.RunUntil(t-1, maxEvents)
	if e.NextEventTime() >= t {
		e.q.AdvanceTo(t)
	}
	return e.q.now, fired
}

// Drained reports whether no live (non-canceled) events remain. The engine
// counts cancellations as they happen, so this is O(1).
func (e *Engine) Drained() bool { return e.live == 0 }

// NextEventTime returns the firing time of the earliest live pending event,
// or Never if none remain. Canceled events reaching the heap root are
// discarded eagerly, so cancel-heavy workloads do not accumulate dead
// entries at the front of the queue.
//
//xchain:hotpath
func (e *Engine) NextEventTime() Time {
	for len(e.q.heap) > 0 {
		next := e.q.heap[0]
		if !e.slots[next.Ref].canceled {
			return next.At
		}
		e.q.Discard()
		e.release(next.Ref)
	}
	return Never
}
