package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// The engine differential: a program of schedule, cancel, run and reset
// steps drives a real Engine and a naive model — a list kept sorted by (at,
// seq) — and both must fire the same (at, action) sequence, keep the same
// clock and counters, and agree on what is pending. The model shares no code
// with Queue, the heap the engine and the traffic timeline both run on.

// firing is one fired event: when, and which action (the event's ID, in
// scheduling order).
type firing struct {
	at Time
	id int
}

// fuzzEvent is the argument of one engine event. Its action logs the firing
// and, while spawn > 0, schedules a child spawn ticks later with spawn-1.
type fuzzEvent struct {
	h     *engineHarness
	id    int
	spawn int
}

// engineHarness drives the real engine. timers[id] is event id's handle.
type engineHarness struct {
	eng    *Engine
	events []*fuzzEvent
	timers []Timer
	log    []firing
}

func fireFuzzEvent(x any) {
	ev := x.(*fuzzEvent)
	h := ev.h
	h.log = append(h.log, firing{h.eng.Now(), ev.id})
	if ev.spawn > 0 {
		h.add(h.eng.ScheduleArgIn(Time(ev.spawn), "child", fireFuzzEvent, h.next(ev.spawn-1)))
	}
}

// next builds the argument of the event about to be scheduled.
func (h *engineHarness) next(spawn int) *fuzzEvent {
	ev := &fuzzEvent{h: h, id: len(h.events), spawn: spawn}
	h.events = append(h.events, ev)
	return ev
}

// add records the handle of the event next just built.
func (h *engineHarness) add(tm Timer) {
	h.timers = append(h.timers, tm)
}

// modelEvent is a pending event of the model.
type modelEvent struct {
	at    Time
	seq   uint64
	id    int
	spawn int
}

// engineModel is the reference: a list of pending events sorted by (at,
// seq), fired from the front. ids counts the events ever scheduled, across
// resets: an event's ID is its handle's index.
type engineModel struct {
	now                   Time
	seq, fired, scheduled uint64
	ids                   int
	pending               []modelEvent
	log                   []firing
}

func (m *engineModel) scheduleAt(at Time, spawn int) {
	m.seq++
	m.scheduled++
	m.pending = append(m.pending, modelEvent{at: max(at, m.now), seq: m.seq, id: m.ids, spawn: spawn})
	m.ids++
	slices.SortFunc(m.pending, func(a, b modelEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
}

func (m *engineModel) cancel(id int) {
	m.pending = slices.DeleteFunc(m.pending, func(ev modelEvent) bool { return ev.id == id })
}

func (m *engineModel) nextAt() Time {
	if len(m.pending) == 0 {
		return Never
	}
	return m.pending[0].at
}

func (m *engineModel) step(until Time) bool {
	if len(m.pending) == 0 || m.pending[0].at > until {
		return false
	}
	ev := m.pending[0]
	m.pending = m.pending[1:]
	m.now = ev.at
	m.fired++
	m.log = append(m.log, firing{ev.at, ev.id})
	if ev.spawn > 0 {
		m.scheduleAt(m.now+Time(ev.spawn), ev.spawn-1)
	}
	return true
}

func (m *engineModel) runUntil(until Time, maxEvents uint64) (Time, uint64) {
	var n uint64
	for (maxEvents == 0 || n < maxEvents) && m.step(until) {
		n++
	}
	if until != Never && m.nextAt() > until && m.now < until {
		m.now = until
	}
	return m.now, n
}

func (m *engineModel) runBefore(t Time, maxEvents uint64) (Time, uint64) {
	var n uint64
	for (maxEvents == 0 || n < maxEvents) && m.step(t-1) {
		n++
	}
	if m.nextAt() >= t && m.now < t {
		m.now = t
	}
	return m.now, n
}

// reset empties the model as Engine.Reset does the engine: no pending
// event, the clock and counters at zero. Handles from before stay valid
// IDs, naming events that are gone.
func (m *engineModel) reset() {
	m.now, m.seq, m.fired, m.scheduled = 0, 0, 0, 0
	m.pending = m.pending[:0]
}

// driveEngine runs program, three bytes a step (op, a, b), on the engine
// and the model and fails at the first step they disagree.
func driveEngine(t *testing.T, program []byte) {
	h := &engineHarness{eng: NewEngine(1)}
	m := &engineModel{}
	for i := 0; i+3 <= len(program); i += 3 {
		op, a, b := program[i]%7, program[i+1], program[i+2]
		spawn := int(b % 4)
		limit := uint64(b % 4)
		var gotNow, wantNow Time
		var gotN, wantN uint64
		ran := false
		switch op {
		case 0: // ScheduleArgAt, possibly in the past
			at := h.eng.Now() + Time(a%16) - 4
			h.add(h.eng.ScheduleArgAt(at, "at", fireFuzzEvent, h.next(spawn)))
			m.scheduleAt(at, spawn)
		case 1: // ScheduleArgIn, possibly with a negative delay
			d := Time(a%16) - 2
			h.add(h.eng.ScheduleArgIn(d, "in", fireFuzzEvent, h.next(spawn)))
			m.scheduleAt(m.now+max(d, 0), spawn)
		case 2: // Cancel any event ever scheduled: pending, fired or canceled
			if len(h.timers) > 0 {
				id := (int(a) | int(b)<<8) % len(h.timers)
				h.timers[id].Cancel()
				m.cancel(id)
			}
		case 3:
			until := h.eng.Now() + Time(a%16)
			gotNow, gotN = h.eng.RunBefore(until, limit)
			wantNow, wantN = m.runBefore(until, limit)
			ran = true
		case 4:
			until := h.eng.Now() + Time(a%16)
			if a%16 == 15 {
				until = Never
			}
			gotNow, gotN = h.eng.RunUntil(until, limit)
			wantNow, wantN = m.runUntil(until, limit)
			ran = true
		case 5:
			gotNow, gotN = h.eng.Run(limit)
			wantNow, wantN = m.runUntil(Never, limit)
			ran = true
		case 6: // Reset: every pending event goes, every handle is stale
			seed := int64(a)<<8 | int64(b)
			h.eng.Reset(seed)
			m.reset()
			if got, want := h.eng.Rand().Int63(), NewRand(seed).Int63(); got != want {
				t.Fatalf("step %d: Reset(%d) left the RNG drawing %d, want %d", i/3, seed, got, want)
			}
		}
		if ran && (gotNow != wantNow || gotN != wantN) {
			t.Fatalf("step %d (op %d): run returned (%v, %d), model (%v, %d)", i/3, op, gotNow, gotN, wantNow, wantN)
		}
		if !slices.Equal(h.log, m.log) {
			t.Fatalf("step %d (op %d): fired %v, model %v", i/3, op, h.log, m.log)
		}
		e := h.eng
		if e.Now() != m.now || e.Live() != len(m.pending) || e.EventsFired() != m.fired || e.EventsScheduled() != m.scheduled || e.NextEventTime() != m.nextAt() {
			t.Fatalf("step %d (op %d): engine now=%v live=%d fired=%d scheduled=%d next=%v, model now=%v live=%d fired=%d scheduled=%d next=%v",
				i/3, op, e.Now(), e.Live(), e.EventsFired(), e.EventsScheduled(), e.NextEventTime(),
				m.now, len(m.pending), m.fired, m.scheduled, m.nextAt())
		}
	}
}

// FuzzEngineOps drives programs through the engine and the model: any
// program, the same firings step for step. Its seed corpus — programs
// written for the tie-break, the freed canceled slot, a spawning chain cut
// short, a capped RunUntil and stale handles across a Reset, and random
// ones — runs with the tests.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		0, 9, 0, // at now+5
		0, 9, 0, // at now+5: a tie, broken by seq
		0, 9, 0, // and another
		0, 4, 0, // at now
		2, 1, 0, // cancel the second
		5, 0, 1, // Run(1): fires the one at now
		1, 7, 0, // in 5
		5, 0, 0, // Run(0): the ties fire in seq order
	})
	f.Add([]byte{
		0, 6, 0, // at now+2
		0, 6, 0, // at now+2
		2, 0, 0, // cancel the first
		4, 1, 0, // RunUntil(now+1): nothing fires, but the canceled root
		// is discarded and its slot freed
		0, 6, 0, // a new event takes the canceled slot
		0, 6, 0,
		2, 0, 0, // cancel the first again: stale, a no-op
		5, 0, 0, // Run: three events fire
	})
	f.Add([]byte{
		1, 3, 3, // in 1, spawning a chain of three children
		0, 5, 0, 0, 5, 0, 0, 5, 0, // three ties at now+1
		3, 3, 2, // RunBefore(now+3, 2)
		2, 2, 0, // cancel one of the ties
		4, 15, 0, // RunUntil(Never)
	})
	f.Add([]byte{
		0, 9, 0, // at 5
		0, 10, 0, // at 6
		4, 10, 1, // RunUntil(10, 1): fires the one at 5; the clock stays
		// at 5, since the one at 6 is still due by 10
		5, 0, 0, // Run(0): fires the one at 6, the clock never backwards
	})
	f.Add([]byte{
		0, 9, 0, // at 5
		0, 10, 2, // at 6, spawning two children
		0, 12, 0, // at 8
		2, 2, 0, // cancel the one at 8
		5, 0, 1, // Run(1): fires the one at 5
		6, 0, 3, // Reset(3): the rest are gone, the handles stale
		0, 6, 0, // at 2, in a freed slot
		0, 7, 0, // at 3
		2, 1, 0, // cancel the pre-Reset one at 6: a no-op
		2, 2, 0, // and the canceled one: a no-op too
		2, 0, 0, // and the fired one
		6, 1, 0, // Reset(256) with the new ones pending
		1, 3, 1, // in 1, spawning a child
		5, 0, 0, // Run: the two fire, nothing from before a Reset
	})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		program := make([]byte, 3*(10+rng.Intn(300)))
		rng.Read(program)
		f.Add(program)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		driveEngine(t, program)
	})
}
