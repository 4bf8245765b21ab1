package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	if got := (1500 * Microsecond).String(); got != "1.500ms" {
		t.Errorf("String() = %q", got)
	}
	if got := Never.String(); got != "never" {
		t.Errorf("Never renders as %q", got)
	}
	// The rendering is pinned to its fmt form: traces, tables and goldens
	// carry it, so String may get cheaper but never different.
	for _, v := range []Time{
		0, 1, -1, 499, 500, 999, 1000, -1500, 12345, -5 * Millisecond, 10 * Minute, 10*Minute + 1,
		Hour + 999, 1 << 50, 1<<55 + 12345, Never - 1, -Never, math.MaxInt64, math.MinInt64,
	} {
		if got, want := v.String(), fmt.Sprintf("%.3fms", float64(v)/float64(Millisecond)); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(v), got, want)
		}
		if got := string(v.Append([]byte("at "))); got != "at "+v.String() {
			t.Errorf("Time(%d).Append = %q", int64(v), got)
		}
	}
	if (2 * Second).Seconds() != 2 {
		t.Error("Seconds conversion wrong")
	}
	if (3 * Millisecond).Millis() != 3 {
		t.Error("Millis conversion wrong")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	eng := NewEngine(1)
	var fired []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		eng.ScheduleAt(at, "ev", func() { fired = append(fired, at) })
	}
	end, n := eng.Run(0)
	if n != 5 {
		t.Fatalf("fired %d events", n)
	}
	if end != 30 {
		t.Fatalf("ended at %v", end)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of order: %v", fired)
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.ScheduleAt(50, "tie", func() { order = append(order, i) })
	}
	eng.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	eng := NewEngine(1)
	var secondAt Time
	eng.ScheduleAt(100, "first", func() {
		eng.ScheduleAt(10, "late", func() { secondAt = eng.Now() })
	})
	eng.Run(0)
	if secondAt != 100 {
		t.Fatalf("past-scheduled event fired at %v, want clamped to 100", secondAt)
	}
}

func TestCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	ev := eng.ScheduleAt(10, "cancel-me", func() { fired = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
	eng.Run(0)
	if fired {
		t.Fatal("canceled event fired")
	}
	if !eng.Drained() {
		t.Fatal("engine not drained after run")
	}
}

func TestStopHaltsRun(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		eng.ScheduleAt(Time(i), "tick", func() {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
	}
	eng.Run(0)
	if count != 3 {
		t.Fatalf("stopped run fired %d events", count)
	}
	if !eng.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
}

func TestRunUntilAdvancesToHorizon(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleAt(10, "early", func() {})
	eng.ScheduleAt(500, "late", func() {})
	now, fired := eng.RunUntil(100, 0)
	if fired != 1 || now != 100 {
		t.Fatalf("RunUntil fired %d events and ended at %v", fired, now)
	}
	if eng.NextEventTime() != 500 {
		t.Fatalf("next event at %v", eng.NextEventTime())
	}
}

func TestMaxEventsCap(t *testing.T) {
	eng := NewEngine(1)
	var schedule func()
	count := 0
	schedule = func() {
		count++
		eng.ScheduleIn(1, "loop", schedule)
	}
	eng.ScheduleIn(1, "loop", schedule)
	eng.Run(100)
	if count != 100 {
		t.Fatalf("event cap not enforced: %d events fired", count)
	}
}

func TestCounters(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleAt(1, "a", func() {})
	eng.ScheduleAt(2, "b", func() {})
	if eng.EventsScheduled() != 2 || eng.Pending() != 2 {
		t.Fatal("scheduling counters wrong")
	}
	eng.Run(0)
	if eng.EventsFired() != 2 {
		t.Fatal("fired counter wrong")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(7), NewEngine(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestPropertyVirtualTimeMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine(3)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			d := Time(d)
			eng.ScheduleAt(d, "ev", func() {
				if eng.Now() < last {
					ok = false
				}
				last = eng.Now()
			})
		}
		eng.Run(0)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaleTimerCancelIsNoOp(t *testing.T) {
	// Event records are pooled: after an event fires, its record may be
	// reused by a later ScheduleAt. A Timer held across the firing must not
	// be able to cancel the record's new occupant.
	eng := NewEngine(1)
	first := eng.ScheduleAt(10, "first", func() {})
	eng.Run(0)
	fired := false
	eng.ScheduleAt(20, "second", func() { fired = true })
	first.Cancel() // stale: the record now belongs to "second"
	if first.Canceled() {
		t.Fatal("stale timer reports Canceled")
	}
	eng.Run(0)
	if !fired {
		t.Fatal("stale Cancel killed a live event")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	tm.Cancel()
	if tm.Canceled() {
		t.Fatal("zero Timer reports Canceled")
	}
}

func TestNextEventTimeDiscardsCanceledRoot(t *testing.T) {
	eng := NewEngine(1)
	early := eng.ScheduleAt(10, "early", func() {})
	eng.ScheduleAt(500, "late", func() {})
	early.Cancel()
	if got := eng.NextEventTime(); got != 500 {
		t.Fatalf("NextEventTime = %v, want 500", got)
	}
	// The canceled root must have been discarded, not merely skipped.
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d after discard, want 1", eng.Pending())
	}
}

func TestCancelHeavyWorkload(t *testing.T) {
	// Timeout-heavy protocols cancel most of their timers. The engine must
	// keep Drained O(1), discard dead records as they surface, and still
	// fire the surviving events in order.
	eng := NewEngine(1)
	const n = 10000
	timers := make([]Timer, 0, n)
	var fired []Time
	for i := 1; i <= n; i++ {
		at := Time(i)
		timers = append(timers, eng.ScheduleAt(at, "timer", func() { fired = append(fired, at) }))
	}
	for i, tm := range timers {
		if i%100 != 0 { // cancel 99% of them
			tm.Cancel()
		}
	}
	if eng.Live() != n/100 {
		t.Fatalf("Live = %d, want %d", eng.Live(), n/100)
	}
	if eng.Drained() {
		t.Fatal("Drained with live events pending")
	}
	if got := eng.NextEventTime(); got != 1 {
		t.Fatalf("NextEventTime = %v, want 1", got)
	}
	_, count := eng.Run(0)
	if count != n/100 || len(fired) != n/100 {
		t.Fatalf("fired %d events (callbacks %d), want %d", count, len(fired), n/100)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("events out of order: %v then %v", fired[i-1], fired[i])
		}
	}
	if !eng.Drained() || eng.Pending() != 0 {
		t.Fatalf("queue not empty after run: live=%d pending=%d", eng.Live(), eng.Pending())
	}
}

func TestScheduleAtAllocs(t *testing.T) {
	// Regression for the pooled event heap: in steady state, scheduling and
	// firing an event must not allocate beyond the caller's own closure.
	eng := NewEngine(1)
	fn := func() {}
	// Warm-up fills the free list and the heap's backing array.
	for i := 0; i < 100; i++ {
		eng.ScheduleAt(eng.Now()+1, "warmup", fn)
		eng.Run(0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleAt(eng.Now()+1, "tick", fn)
		eng.Run(0)
	})
	if allocs > 1 {
		t.Fatalf("ScheduleAt+fire allocates %.1f objects per event, want <= 1", allocs)
	}
}

func TestScheduleArgAtAllocs(t *testing.T) {
	// The arg-based entry point exists so hot callers can pre-bind all state
	// and hit a strictly allocation-free path.
	eng := NewEngine(1)
	type payload struct{ n int }
	arg := &payload{}
	fn := func(x any) { x.(*payload).n++ }
	for i := 0; i < 100; i++ {
		eng.ScheduleArgAt(eng.Now()+1, "warmup", fn, arg)
		eng.Run(0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleArgAt(eng.Now()+1, "tick", fn, arg)
		eng.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("ScheduleArgAt+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// TestRunBefore checks the streaming-driver primitive: fire everything
// strictly before t, advance time to t, and leave events at exactly t
// pending so externally-injected work at t goes first.
func TestRunBefore(t *testing.T) {
	eng := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 10, 15} {
		at := at
		eng.ScheduleAt(at, "ev", func() { fired = append(fired, at) })
	}
	now, n := eng.RunBefore(10, 0)
	if n != 1 || len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("RunBefore(10) fired %v", fired)
	}
	if now != 10 || eng.Now() != 10 {
		t.Fatalf("time advanced to %v, want 10", now)
	}
	// Work injected at t=10 now schedules ahead in time order but behind
	// the two pending t=10 events in sequence order; all fire at 10.
	eng.ScheduleAt(10, "injected", func() { fired = append(fired, -10) })
	now, n = eng.RunBefore(15, 0)
	if n != 3 {
		t.Fatalf("RunBefore(15) fired %d events", n)
	}
	want := []Time{5, 10, 10, -10}
	for i, at := range want {
		if fired[i] != at {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
	if now != 15 {
		t.Fatalf("time advanced to %v, want 15", now)
	}
	// Calling RunBefore for a time already reached is a no-op.
	if now, n = eng.RunBefore(15, 0); now != 15 || n != 0 {
		t.Fatalf("redundant RunBefore fired %d at %v", n, now)
	}
	eng.Run(0)
	if fired[len(fired)-1] != 15 {
		t.Fatalf("final event lost: %v", fired)
	}
}

// TestRunBeforeCapped checks that a maxEvents cap never advances time past
// events still pending before t (the clock must stay monotone).
func TestRunBeforeCapped(t *testing.T) {
	eng := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		eng.ScheduleAt(at, "ev", func() { fired = append(fired, at) })
	}
	now, n := eng.RunBefore(100, 1)
	if n != 1 || now != 10 {
		t.Fatalf("capped RunBefore fired %d, now %v; want 1 at 10", n, now)
	}
	end, _ := eng.Run(0)
	if end != 30 {
		t.Fatalf("run ended at %v, want 30", end)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("clock ran backwards: %v", fired)
		}
	}
}

// TestRunBeforeZero covers the t=0 edge: nothing fires, time stays at 0.
func TestRunBeforeZero(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	eng.ScheduleAt(0, "ev", func() { fired = true })
	if now, n := eng.RunBefore(0, 0); now != 0 || n != 0 || fired {
		t.Fatalf("RunBefore(0) fired=%v n=%d now=%v", fired, n, now)
	}
	eng.Run(0)
	if !fired {
		t.Fatal("event at 0 never fired")
	}
}

// script drives an engine through a fixed little workload — nested
// scheduling, a cancellation, RNG draws — and returns everything observable.
func script(eng *Engine) []int64 {
	var log []int64
	var tick func()
	n := 0
	tick = func() {
		n++
		log = append(log, int64(eng.Now()), eng.Rand().Int63n(1000))
		if n < 20 {
			eng.ScheduleIn(Time(1+eng.Rand().Intn(5)), "tick", tick)
		}
	}
	eng.ScheduleAt(3, "tick", tick)
	eng.ScheduleAt(7, "never", func() { log = append(log, -1) }).Cancel()
	end, fired := eng.Run(0)
	return append(log, int64(end), int64(fired), int64(eng.EventsScheduled()), int64(eng.EventsFired()))
}

// TestResetRestoresNewEngine runs the same script on a new engine and on one
// that was reset mid-run — pending events, a live timer, a stopped flag, a
// half-used RNG — and expects identical observations.
func TestResetRestoresNewEngine(t *testing.T) {
	for _, seed := range []int64{1, 42, -7} {
		want := script(NewEngine(seed))

		eng := NewEngine(seed + 1000)
		reset := false
		for i := 0; i < 50; i++ {
			eng.ScheduleAt(Time(10*i), "leftover", func() {
				if reset {
					t.Error("an event from before Reset fired after it")
				}
			})
		}
		eng.ScheduleAt(15, "stop", eng.Stop)
		eng.Run(0) // fires the events up to 15, then stops with 48 pending
		eng.Rand().Int63()
		eng.Reset(seed)
		reset = true
		if eng.Now() != 0 || eng.Pending() != 0 || !eng.Drained() || eng.Stopped() || eng.EventsFired() != 0 || eng.EventsScheduled() != 0 {
			t.Fatalf("seed %d: Reset left now=%v pending=%d live=%d stopped=%v", seed, eng.Now(), eng.Pending(), eng.Live(), eng.Stopped())
		}
		got := script(eng)
		if len(got) != len(want) {
			t.Fatalf("seed %d: reset engine observed %d values, new engine %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d is %d on the reset engine, %d on a new one", seed, i, got[i], want[i])
			}
		}
	}
}

// TestStaleTimerAfterReset holds Timers across a Reset: their events are
// gone, and their records are reused by the next run's events, which a stale
// Cancel must not touch.
func TestStaleTimerAfterReset(t *testing.T) {
	eng := NewEngine(1)
	var stale []Timer
	for i := 0; i < 8; i++ {
		stale = append(stale, eng.ScheduleAt(Time(10+i), "old", func() { t.Error("an event from before Reset fired") }))
	}
	canceled := stale[0]
	canceled.Cancel()
	eng.Reset(2)

	fired := 0
	for i := 0; i < 8; i++ { // reuses the eight recycled records
		eng.ScheduleAt(Time(1+i), "new", func() { fired++ })
	}
	for _, tm := range stale {
		tm.Cancel()
		if tm.Canceled() {
			t.Fatal("a timer from before Reset reports Canceled")
		}
	}
	if eng.Live() != 8 {
		t.Fatalf("stale Cancel changed the live count to %d, want 8", eng.Live())
	}
	eng.Run(0)
	if fired != 8 {
		t.Fatalf("%d of 8 events fired after stale Cancels", fired)
	}
}

// TestResetAllocs is the allocation gate on the reuse path: once the heap
// and free list have grown, Reset — with events still pending — allocates
// nothing, and neither does reseeding.
func TestResetAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := func() {}
	fill := func() {
		for i := 0; i < 32; i++ {
			eng.ScheduleAt(Time(i), "pending", fn)
		}
	}
	fill()
	eng.Reset(2)
	seed := int64(3)
	if n := testing.AllocsPerRun(200, func() {
		fill()
		eng.Rand().Int63()
		eng.Reset(seed)
		seed++
	}); n != 0 {
		t.Fatalf("schedule + Reset allocates %v times per cycle, want 0", n)
	}
}
