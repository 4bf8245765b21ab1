package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRestoreReplaysIdentically interrupts an engine mid-run, captures its
// clock and live events, rebuilds a second engine via RestoreEvent +
// RestoreClock, and asserts the remainder of the run fires the same events at
// the same instants in the same order.
func TestRestoreReplaysIdentically(t *testing.T) {
	type rec struct {
		name string
		at   Time
	}

	drive := func(log *[]rec, eng *Engine) func(string) func() {
		return func(name string) func() {
			return func() { *log = append(*log, rec{name, eng.Now()}) }
		}
	}

	// Reference run: schedule a mix of same-instant and spread-out events,
	// fire the first three, then let the rest drain.
	var want []rec
	ref := NewEngine(1)
	mk := drive(&want, ref)
	for i := 0; i < 8; i++ {
		at := Time(10 * (i/2 + 1)) // pairs share an instant; seq breaks the tie
		ref.ScheduleAt(at, fmt.Sprintf("e%d", i), mk(fmt.Sprintf("e%d", i)))
	}
	ref.RunUntil(20, 0) // fires e0..e3
	prefix := len(want)
	ref.Run(0)

	// Interrupted run: same schedule, stop after the same prefix, capture.
	var got []rec
	cut := NewEngine(1)
	mkc := drive(&got, cut)
	timers := make([]Timer, 0, 8)
	names := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		at := Time(10 * (i/2 + 1))
		n := fmt.Sprintf("e%d", i)
		timers = append(timers, cut.ScheduleAt(at, n, mkc(n)))
		names = append(names, n)
	}
	cut.RunUntil(20, 0)
	if len(got) != prefix {
		t.Fatalf("prefix fired %d events, want %d", len(got), prefix)
	}
	now, seq, fired, scheduled := cut.Clock()

	// Rebuild on a fresh engine. Restore events in reverse order to prove
	// insertion order is irrelevant.
	res := NewEngine(1)
	mkr := drive(&got, res)
	for i := len(timers) - 1; i >= 0; i-- {
		at, evseq, ok := timers[i].Pending()
		if !ok {
			continue // already fired
		}
		res.RestoreEvent(at, evseq, names[i], mkr(names[i]))
	}
	res.RestoreClock(now, seq, fired, scheduled)

	if res.Now() != now {
		t.Fatalf("restored Now = %v, want %v", res.Now(), now)
	}
	if res.Live() != cut.Live() {
		t.Fatalf("restored Live = %d, want %d", res.Live(), cut.Live())
	}
	res.Run(0)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\n got %v\nwant %v", got, want)
	}
	if rf := res.EventsFired(); rf != ref.EventsFired() {
		t.Fatalf("restored EventsFired = %d, want %d", rf, ref.EventsFired())
	}
	if rs := res.EventsScheduled(); rs != ref.EventsScheduled() {
		t.Fatalf("restored EventsScheduled = %d, want %d", rs, ref.EventsScheduled())
	}
}

// TestRestoreSeqOrdering pins that a restored event and a newly scheduled
// event at the same instant keep the original tie-break: the restored event
// carries its old (lower) seq and fires first.
func TestRestoreSeqOrdering(t *testing.T) {
	var log []string
	e := NewEngine(1)
	e.RestoreEvent(50, 3, "old", func() { log = append(log, "old") })
	e.RestoreClock(10, 7, 4, 7)
	e.ScheduleAt(50, "new", func() { log = append(log, "new") }) // seq 8 > 3
	e.Run(0)
	if want := []string{"old", "new"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fire order %v, want %v", log, want)
	}
	if e.EventsScheduled() != 8 {
		t.Fatalf("EventsScheduled = %d, want 8", e.EventsScheduled())
	}
}

// TestRestoreEventArg: the Arg form restores an event that fires its
// package-level action with its argument, at its old coordinates.
func TestRestoreEventArg(t *testing.T) {
	var log []string
	note := func(x any) { log = append(log, *x.(*string)) }
	old, older := "old", "older"
	e := NewEngine(1)
	e.RestoreEventArg(50, 3, "old", note, &old)
	tm := e.RestoreEventArg(50, 2, "older", note, &older)
	if at, seq, ok := tm.Pending(); !ok || at != 50 || seq != 2 {
		t.Fatalf("restored timer pending at (%v, %d, %v), want (50, 2, true)", at, seq, ok)
	}
	e.RestoreClock(10, 7, 4, 7)
	e.Run(0)
	if want := []string{"older", "old"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fire order %v, want %v", log, want)
	}
}

// TestPendingStates pins Timer.Pending across the live / fired / canceled /
// zero-value states.
func TestPendingStates(t *testing.T) {
	e := NewEngine(1)
	live := e.ScheduleAt(30, "live", func() {})
	firedT := e.ScheduleAt(5, "fired", func() {})
	cancT := e.ScheduleAt(40, "canceled", func() {})
	cancT.Cancel()
	e.RunUntil(10, 0)

	if at, seq, ok := live.Pending(); !ok || at != 30 || seq != 1 {
		t.Fatalf("live.Pending() = (%v, %d, %v), want (30, 1, true)", at, seq, ok)
	}
	if _, _, ok := firedT.Pending(); ok {
		t.Fatal("fired timer reported pending")
	}
	if _, _, ok := cancT.Pending(); ok {
		t.Fatal("canceled timer reported pending")
	}
	var zero Timer
	if _, _, ok := zero.Pending(); ok {
		t.Fatal("zero timer reported pending")
	}
}
