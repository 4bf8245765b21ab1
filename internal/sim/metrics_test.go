package sim

import (
	"testing"

	"repro/internal/metrics"
)

// An instrumented engine mirrors its internal counters into the registry and
// keeps the watermark at the last fired event's virtual time.
func TestEngineMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	eng := NewEngine(1)
	m := MetricsFrom(r)
	m.Watermark = r.Gauge(MetricVirtualTimeMs, "Virtual time watermark.")
	eng.SetMetrics(m)

	eng.ScheduleArgIn(5*Millisecond, "a", func(any) {}, nil)
	tm := eng.ScheduleArgIn(10*Millisecond, "b", func(any) {}, nil)
	eng.ScheduleArgIn(20*Millisecond, "c", func(any) {}, nil)
	tm.Cancel()
	eng.Run(0)

	if got := r.Counter(MetricEventsScheduled, "").Value(); got != eng.EventsScheduled() {
		t.Errorf("scheduled counter = %d, engine says %d", got, eng.EventsScheduled())
	}
	if got := r.Counter(MetricEventsFired, "").Value(); got != eng.EventsFired() {
		t.Errorf("fired counter = %d, engine says %d", got, eng.EventsFired())
	}
	if got := r.Counter(MetricEventsCanceled, "").Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if got := m.Watermark.Value(); got != (20 * Millisecond).Millis() {
		t.Errorf("watermark = %v ms, want 20", got)
	}
}

// A muted engine (zero Metrics) behaves identically and the instrumented
// schedule path stays allocation-free for pre-bound-argument events.
func TestEngineMetricsMutedAllocFree(t *testing.T) {
	eng := NewEngine(1)
	eng.SetMetrics(MetricsFrom(nil))
	fn := func(any) {}
	// Warm the free list so steady state is measured.
	eng.ScheduleArgAt(0, "warm", fn, nil)
	eng.Run(0)
	if allocs := testing.AllocsPerRun(200, func() {
		eng.ScheduleArgAt(eng.Now(), "x", fn, nil)
		eng.Run(0)
	}); allocs != 0 {
		t.Errorf("muted instrumented schedule+fire allocates %.1f objects, want 0", allocs)
	}
}
