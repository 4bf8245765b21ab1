package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
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
		eng.ScheduleArgAt(at, "ev", func(any) { fired = append(fired, at) }, nil)
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
		eng.ScheduleArgAt(50, "tie", func(any) { order = append(order, i) }, nil)
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
	eng.ScheduleArgAt(100, "first", func(any) {
		eng.ScheduleArgAt(10, "late", func(any) { secondAt = eng.Now() }, nil)
	}, nil)
	eng.Run(0)
	if secondAt != 100 {
		t.Fatalf("past-scheduled event fired at %v, want clamped to 100", secondAt)
	}
}

func TestCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	ev := eng.ScheduleArgAt(10, "cancel-me", func(any) { fired = true }, nil)
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

func TestRunUntilAdvancesToHorizon(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleArgAt(10, "early", func(any) {}, nil)
	eng.ScheduleArgAt(500, "late", func(any) {}, nil)
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
	var schedule func(any)
	count := 0
	schedule = func(any) {
		count++
		eng.ScheduleArgIn(1, "loop", schedule, nil)
	}
	eng.ScheduleArgIn(1, "loop", schedule, nil)
	eng.Run(100)
	if count != 100 {
		t.Fatalf("event cap not enforced: %d events fired", count)
	}
}

func TestCounters(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleArgAt(1, "a", func(any) {}, nil)
	eng.ScheduleArgAt(2, "b", func(any) {}, nil)
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
			eng.ScheduleArgAt(d, "ev", func(any) {
				if eng.Now() < last {
					ok = false
				}
				last = eng.Now()
			}, nil)
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
	// reused by a later ScheduleArgAt. A Timer held across the firing must not
	// be able to cancel the record's new occupant.
	eng := NewEngine(1)
	first := eng.ScheduleArgAt(10, "first", func(any) {}, nil)
	eng.Run(0)
	fired := false
	eng.ScheduleArgAt(20, "second", func(any) { fired = true }, nil)
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
	early := eng.ScheduleArgAt(10, "early", func(any) {}, nil)
	eng.ScheduleArgAt(500, "late", func(any) {}, nil)
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
		timers = append(timers, eng.ScheduleArgAt(at, "timer", func(any) { fired = append(fired, at) }, nil))
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

func TestScheduleArgAtAllocs(t *testing.T) {
	// Regression for the pooled event heap: with all state pre-bound in its
	// argument, scheduling and firing an event is strictly allocation-free.
	eng := NewEngine(1)
	type payload struct{ n int }
	arg := &payload{}
	fn := func(x any) { x.(*payload).n++ }
	// Warm-up fills the free list and the heap's backing array.
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
		eng.ScheduleArgAt(at, "ev", func(any) { fired = append(fired, at) }, nil)
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
	eng.ScheduleArgAt(10, "injected", func(any) { fired = append(fired, -10) }, nil)
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
		eng.ScheduleArgAt(at, "ev", func(any) { fired = append(fired, at) }, nil)
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
	eng.ScheduleArgAt(0, "ev", func(any) { fired = true }, nil)
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
	var tick func(any)
	n := 0
	tick = func(any) {
		n++
		log = append(log, int64(eng.Now()), eng.Rand().Int63n(1000))
		if n < 20 {
			eng.ScheduleArgIn(Time(1+eng.Rand().Intn(5)), "tick", tick, nil)
		}
	}
	eng.ScheduleArgAt(3, "tick", tick, nil)
	eng.ScheduleArgAt(7, "never", func(any) { log = append(log, -1) }, nil).Cancel()
	end, fired := eng.Run(0)
	return append(log, int64(end), int64(fired), int64(eng.EventsScheduled()), int64(eng.EventsFired()))
}

// TestResetRestoresNewEngine runs the same script on a new engine and on one
// that was reset mid-run — pending events, a live timer, a half-used RNG — and expects identical observations.
func TestResetRestoresNewEngine(t *testing.T) {
	for _, seed := range []int64{1, 42, -7} {
		want := script(NewEngine(seed))

		eng := NewEngine(seed + 1000)
		reset := false
		for i := 0; i < 50; i++ {
			eng.ScheduleArgAt(Time(10*i), "leftover", func(any) {
				if reset {
					t.Error("an event from before Reset fired after it")
				}
			}, nil)
		}
		eng.RunUntil(15, 0) // fires the events up to 15 and leaves 48 pending
		eng.Rand().Int63()
		eng.Reset(seed)
		reset = true
		if eng.Now() != 0 || eng.Pending() != 0 || !eng.Drained() || eng.EventsFired() != 0 || eng.EventsScheduled() != 0 {
			t.Fatalf("seed %d: Reset left now=%v pending=%d live=%d", seed, eng.Now(), eng.Pending(), eng.Live())
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
		stale = append(stale, eng.ScheduleArgAt(Time(10+i), "old", func(any) { t.Error("an event from before Reset fired") }, nil))
	}
	canceled := stale[0]
	canceled.Cancel()
	eng.Reset(2)

	fired := 0
	for i := 0; i < 8; i++ { // reuses the eight recycled records
		eng.ScheduleArgAt(Time(1+i), "new", func(any) { fired++ }, nil)
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

// TestEventRecordSize pins the event record to its time, order and action:
// 56 bytes on a 64-bit platform, the 64-byte allocation size class.
func TestEventRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Fatalf("event record is %d bytes, want 56", got)
	}
}

// TestResetAllocs is the allocation gate on the reuse path: once the heap
// and free list have grown, Reset — with events still pending — allocates
// nothing, and neither does reseeding.
func TestResetAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := func(any) {}
	fill := func() {
		for i := 0; i < 32; i++ {
			eng.ScheduleArgAt(Time(i), "pending", fn, nil)
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
