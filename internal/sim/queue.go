package sim

// Queue is the one event queue of the repository: a min-heap of pending
// events ordered by (at, seq), and the virtual clock a run reads and a
// checkpoint captures — now, the seq cursor (the count of events scheduled)
// and how many fired — with the kernel counters and the watermark (SetMetrics).
// An Engine runs on one, its callbacks in a slot table an entry's Ref
// indexes; the traffic admission timeline runs on one, an entry naming its
// flight or mark by Ref and what befalls it by Kind.
//
// An entry holds no pointer, so the garbage collector never scans the heap
// and ordering it reads the heap alone. A cancelled event stays in the heap
// until it surfaces: the queue's user, which alone knows what Ref and Kind
// stand for, tells it from a live one (Peek) and drops it (Discard).
type Queue struct {
	now        Time
	seq, fired uint64
	heap       []Entry // min-heap by (at, seq)
	m          Metrics
}

// Entry is one pending event: when it fires (At, Seq) and what it does —
// Kind, on the object Ref indexes in its user's tables.
type Entry struct {
	At   Time
	Seq  uint64
	Ref  int32
	Kind uint8
}

// before orders entries by (at, seq): virtual time first, scheduling order
// as the deterministic tie-breaker.
func (a Entry) before(b Entry) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// Now returns the queue's virtual time.
func (q *Queue) Now() Time { return q.now }

// Clock returns the queue's clock: what a checkpoint captures.
func (q *Queue) Clock() (now Time, seq, fired uint64) {
	return q.now, q.seq, q.fired
}

// SetClock sets the queue's clock, restoring a captured one. Entries
// restored with Push keep their seq, below the cursor: what is scheduled
// from here sorts after them at the same instant.
func (q *Queue) SetClock(now Time, seq, fired uint64) {
	q.now, q.seq, q.fired = now, seq, fired
}

// SetMetrics attaches instrumentation hooks to the queue (see Metrics).
func (q *Queue) SetMetrics(m Metrics) { q.m = m }

// CountCanceled counts one cancellation on the kernel counter: the queue
// does not see its users' cancellations, which leave their entries in place.
func (q *Queue) CountCanceled() { q.m.Canceled.Inc() }

// AdvanceTo moves the clock forward to t; it never moves it back.
func (q *Queue) AdvanceTo(t Time) {
	if q.now < t {
		q.now = t
	}
}

// Reset empties the heap and zeroes the clock, keeping the heap's capacity
// and the metrics hooks.
func (q *Queue) Reset() {
	q.heap = q.heap[:0]
	q.now, q.seq, q.fired = 0, 0, 0
}

// Schedule queues an event of kind on ref at virtual time at — clamped to
// now: an event in the past fires before time advances further — and
// returns its entry.
func (q *Queue) Schedule(at Time, ref int32, kind uint8) Entry {
	if len(q.heap) == cap(q.heap) {
		// Double, where Push's append would grow a large heap by a quarter:
		// a traffic timeline's grows to thousands of entries.
		q.heap = append(make([]Entry, 0, max(2*cap(q.heap), 64)), q.heap...)
	}
	e := q.stamp(at, ref, kind)
	q.Push(e)
	return e
}

// stamp returns the entry of a new event of kind on ref at at, clamped to
// now, with the next seq: the seq cursor counts it scheduled.
func (q *Queue) stamp(at Time, ref int32, kind uint8) Entry {
	q.seq++
	q.m.Scheduled.Inc()
	return Entry{max(at, q.now), q.seq, ref, kind}
}

// Push inserts e at its own coordinates, counting and clocking nothing
// (Schedule's insertion, and a restored entry's), moving the parents it
// passes down a level. It and stamp are small enough to inline, so an
// engine schedules an event without a call.
//
//xchain:hotpath
func (q *Queue) Push(e Entry) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// Peek returns the root — the earliest entry, live or cancelled — and
// whether there is one.
func (q *Queue) Peek() (Entry, bool) {
	if len(q.heap) == 0 {
		return Entry{}, false
	}
	return q.heap[0], true
}

// Fire removes the root, which must be live, advances the clock to it and
// counts it fired.
func (q *Queue) Fire() { q.pop(true) }

// Discard removes the root without firing it: a cancelled entry.
func (q *Queue) Discard() { q.pop(false) }

// pop removes the root, first advancing the clock to it and counting it
// fired when fire is set, then moves the lesser child up a level until the
// last entry fits the hole. Fire and Discard inline to a call of it.
//
//xchain:hotpath
func (q *Queue) pop(fire bool) {
	h := q.heap
	if fire {
		at := h[0].At
		q.now = at
		q.fired++
		q.m.Fired.Inc()
		if q.m.Watermark != nil {
			q.m.Watermark.Set(at.Millis())
		}
	}
	n := len(h) - 1
	last := h[n]
	q.heap = q.heap[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && h[right].before(h[least]) {
			least = right
		}
		if !h[least].before(last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
}
