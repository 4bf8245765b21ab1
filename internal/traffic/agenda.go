package traffic

import "repro/internal/sim"

// agenda is the admission timeline's event queue: the settlements, queue
// expiries and Byzantine-status marks pending on the run's virtual clock.
// It orders, clocks and counts them exactly as a sim.Engine would — by
// (at, seq), seq drawn per scheduled event, the clock (now, seq, fired,
// scheduled) that a checkpoint captures, the same kernel counters and
// watermark — but an event is an entry of the heap itself, (at, seq, kind,
// ref), naming its flight or mark by index. Neither an entry nor a flight
// holds a pointer, so the garbage collector never scans the thousands a run
// has in flight, and ordering the heap reads the heap alone.
//
// A cancelled event stays in the heap until it surfaces and is then
// discarded: the timeline, which alone knows whether a flight still waits,
// tells live entries from cancelled ones (timeline.live).
type agenda struct {
	now                   sim.Time
	seq, fired, scheduled uint64
	heap                  []entry // min-heap by (at, seq)
	m                     sim.Metrics
}

// eventKind is what an entry does when it fires.
type eventKind uint8

// Event kinds: a flight's settlement or queue expiry, or a mark.
const (
	settleEvent eventKind = iota
	expireEvent
	markEvent
)

// entry is one pending event: when it fires and what it does — kind, on the
// flight (flightAt) or mark (timeline.marks) ref indexes.
type entry struct {
	at   sim.Time
	seq  uint64
	ref  int32
	kind eventKind
}

// before orders entries by (at, seq): virtual time first, scheduling order
// as the deterministic tie-breaker.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// schedule queues an event of kind on ref after delay d (a negative d is 0)
// and returns its coordinates, as sim.Engine.ScheduleArgIn does.
//
//xchain:hotpath
func (a *agenda) schedule(d sim.Time, kind eventKind, ref int32) (sim.Time, uint64) {
	at := a.now + max(d, 0)
	a.seq++
	a.scheduled++
	a.m.Scheduled.Inc()
	a.push(entry{at, a.seq, ref, kind})
	return at, a.seq
}

// push inserts e (sift-up). The heap doubles when full: a timeline's grows
// to thousands of entries, in a few steps.
//
//xchain:hotpath
func (a *agenda) push(e entry) {
	if len(a.heap) == cap(a.heap) {
		a.heap = append(make([]entry, 0, max(2*cap(a.heap), 64)), a.heap...)
	}
	a.heap = append(a.heap, e)
	h := a.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the root (sift-down).
//
//xchain:hotpath
func (a *agenda) pop() {
	h := a.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	a.heap = h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h[right].before(&h[left]) {
			least = right
		}
		if !h[least].before(&h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
