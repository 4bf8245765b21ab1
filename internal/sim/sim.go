// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocols in this repository execute on top of this kernel: virtual
// time only advances when the next scheduled event is processed, so a run is
// a pure function of its inputs (scenario parameters and RNG seed). This is
// what lets the property checkers in internal/check and the scenario fuzzer
// and Theorem-2 search in internal/scenariogen reason about executions.
//
// The kernel is written for the muted hot path: every experiment sweep and
// traffic run schedules and fires millions of events, so the event queue is
// a hand-rolled min-heap over a free list of event records. An event is a
// package-level action with a pre-bound argument (ScheduleArgAt), so
// scheduling reuses a pooled record and performs no heap allocation in
// steady state.
package sim

import (
	"math/rand"
	"strconv"
)

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

// event is a scheduled action record: when it fires (at, seq), whether it
// still may (gen, canceled), and what it does (fn(arg)). Records are owned by
// the engine and recycled through a free list once fired or discarded, so
// external code never holds one directly; Timer is the caller-facing handle.
type event struct {
	at       Time
	seq      uint64 // tie-breaker for deterministic ordering
	gen      uint64 // incremented on recycle; stale Timers no longer match
	canceled bool
	fn       func(any)
	arg      any
}

// Timer is a cancelable handle to a scheduled event. The zero value is an
// inert timer: Cancel and Canceled are no-ops on it. A Timer whose event has
// already fired (or was discarded) is stale, and canceling it is a no-op —
// the underlying record may already describe a different, later event.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or was already canceled is a no-op.
//
//xchain:hotpath
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled {
		t.ev.canceled = true
		t.eng.live--
		t.eng.m.Canceled.Inc()
	}
}

// Canceled reports whether the event is still pending but canceled. It
// returns false for the zero Timer and for stale timers whose event already
// fired or was discarded.
func (t Timer) Canceled() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.canceled
}

// Engine is a single-run simulation engine. It is not safe for concurrent
// use: a run is strictly sequential, which is what makes it reproducible.
// Parallelism in this repository happens across independent runs.
type Engine struct {
	now  Time
	heap []*event // min-heap ordered by (at, seq)
	free []*event // recycled records ready for reuse
	live int      // pending events that are not canceled
	seq  uint64
	rng  *rand.Rand

	// block is what is left of the block new records are cut from.
	block []event

	// Stats
	fired     uint64
	scheduled uint64

	// m holds optional instrumentation hooks (see SetMetrics); the zero
	// value is muted and every update below is an inlined nil no-op.
	m Metrics
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Reset returns the engine to the state NewEngine(seed) builds — virtual
// time 0, no pending events, zeroed counters, the RNG at the start of
// seed's stream — in O(pending events), keeping the heap's and the free
// list's capacity and the metrics hooks. Timers handed out before the Reset
// are stale: their events are gone and Cancel on them is a no-op.
func (e *Engine) Reset(seed int64) {
	for i, ev := range e.heap {
		e.recycle(ev)
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.now, e.live, e.seq = 0, 0, 0
	e.fired, e.scheduled = 0, 0
	e.rng.Seed(seed)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsScheduled returns the total number of events scheduled so far.
func (e *Engine) EventsScheduled() uint64 { return e.scheduled }

// EventsFired returns the total number of events that have fired so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently waiting in the queue
// (including canceled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.heap) }

// Live returns the number of pending events that have not been canceled.
func (e *Engine) Live() int { return e.live }

// less orders the heap by (at, seq): virtual time first, scheduling order as
// the deterministic tie-breaker.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap (sift-up).
//
//xchain:hotpath
func (e *Engine) push(ev *event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// popRoot removes and returns the heap's minimum (sift-down).
//
//xchain:hotpath
func (e *Engine) popRoot() *event {
	root := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && less(e.heap[right], e.heap[left]) {
			smallest = right
		}
		if !less(e.heap[smallest], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[smallest] = e.heap[smallest], e.heap[i]
		i = smallest
	}
	return root
}

// recycle invalidates all Timers pointing at ev and returns the record to
// the free list.
//
//xchain:hotpath
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// eventBlock is how many records a block holds: 16 of 56 bytes fill an
// 896-byte size class. A world's engine rarely holds more than a few dozen
// events, so a block stays small; the traffic timeline's, which warms up to
// thousands, makes a block per 16 rather than a record each. A record never
// moves, so Timers keep pointing at it.
const eventBlock = 16

// ScheduleArgAt registers fn(arg) to run at absolute virtual time at.
// Scheduling in the past is clamped to "now": the event fires before time
// advances further. fn is meant to be a package-level function with all
// per-event state pre-bound in arg, so the hot path allocates nothing: arg
// is typically a pointer into a caller-managed pool, and boxing a pointer
// into an interface does not allocate. The engine keeps no name: name is
// accepted and ignored. The event's record is taken from the free list, else
// cut from a block, so in steady state scheduling allocates nothing.
//
//xchain:hotpath
func (e *Engine) ScheduleArgAt(at Time, name string, fn func(any), arg any) Timer {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.scheduled++
	e.m.Scheduled.Inc()
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if len(e.block) == cap(e.block) {
			e.block = make([]event, 0, eventBlock)
		}
		e.block = e.block[:len(e.block)+1]
		ev = &e.block[len(e.block)-1]
	}
	ev.at, ev.seq, ev.canceled = at, e.seq, false
	ev.fn, ev.arg = fn, arg
	e.push(ev)
	e.live++
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// ScheduleArgIn registers fn(arg) to run after delay d from the current
// time; name is ignored, as for ScheduleArgAt.
//
//xchain:hotpath
func (e *Engine) ScheduleArgIn(d Time, name string, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleArgAt(e.now+d, name, fn, arg)
}

// step fires the earliest pending event. It returns false when no event is
// due by until.
//
//xchain:hotpath
func (e *Engine) step(until Time) bool {
	for len(e.heap) > 0 {
		next := e.heap[0]
		if next.canceled {
			e.recycle(e.popRoot())
			continue
		}
		if next.at > until {
			return false
		}
		e.popRoot()
		e.now = next.at
		e.fired++
		e.live--
		e.m.Fired.Inc()
		if e.m.Watermark != nil {
			e.m.Watermark.Set(next.at.Millis())
		}
		// Copy the callback out and recycle before invoking: the callback may
		// itself schedule (reusing this record) or cancel its own stale Timer,
		// both of which are safe once the generation has been bumped.
		fn, arg := next.fn, next.arg
		e.recycle(next)
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
// termination conditions as Run. Virtual time is advanced to until if the
// queue drains earlier and until is not Never.
func (e *Engine) RunUntil(until Time, maxEvents uint64) (Time, uint64) {
	var fired uint64
	for {
		if maxEvents > 0 && fired >= maxEvents {
			break
		}
		if !e.step(until) {
			break
		}
		fired++
	}
	if until != Never && e.now < until {
		e.now = until
	}
	return e.now, fired
}

// RunBefore processes every event with firing time strictly earlier than t,
// subject to the same termination conditions as Run, then advances virtual
// time to t. It lets a driver inject externally-sourced work at time t ahead
// of any already-scheduled event at the same instant, exactly as if that
// work had been scheduled before the run started (the traffic admission
// model's reference run interleaves arrivals with settlements so).
func (e *Engine) RunBefore(t Time, maxEvents uint64) (Time, uint64) {
	var fired uint64
	for {
		if maxEvents > 0 && fired >= maxEvents {
			break
		}
		if !e.step(t - 1) {
			break
		}
		fired++
	}
	// Advance to t only once no earlier event remains (maxEvents may have
	// stopped the loop short); otherwise the clock would later run
	// backwards when the leftover events fire.
	if e.NextEventTime() >= t && e.now < t {
		e.now = t
	}
	return e.now, fired
}

// Drained reports whether no live (non-canceled) events remain. The engine
// counts cancellations as they happen, so this is O(1).
func (e *Engine) Drained() bool { return e.live == 0 }

// NextEventTime returns the firing time of the earliest live pending event,
// or Never if none remain. Canceled events reaching the heap root are
// discarded eagerly, so cancel-heavy workloads do not accumulate dead
// records at the front of the queue.
//
//xchain:hotpath
func (e *Engine) NextEventTime() Time {
	for len(e.heap) > 0 && e.heap[0].canceled {
		e.recycle(e.popRoot())
	}
	if len(e.heap) == 0 {
		return Never
	}
	return e.heap[0].at
}
