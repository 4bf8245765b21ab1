package sim

import "repro/internal/metrics"

// Canonical kernel metric names (the sim family of /metrics).
const (
	// MetricEventsScheduled counts events scheduled on instrumented engines.
	MetricEventsScheduled = "xchain_sim_events_scheduled_total"
	// MetricEventsFired counts events fired on instrumented engines.
	MetricEventsFired = "xchain_sim_events_fired_total"
	// MetricEventsCanceled counts timer cancellations on instrumented engines.
	MetricEventsCanceled = "xchain_sim_events_canceled_total"
	// MetricVirtualTimeMs is the virtual-time watermark (milliseconds) of the
	// run's authoritative engine (the traffic admission timeline).
	MetricVirtualTimeMs = "xchain_sim_virtual_time_ms"
)

// Metrics holds the kernel's instrumentation hooks. The zero value is the
// muted configuration: every field is a nil handle and every update is an
// inlined no-op, preserving the kernel's zero-allocation guarantee.
//
// The counters are shards of the registry's (metrics.Counter.Shard): each
// MetricsFrom call takes a shard of its own, which the caller keeps for one
// goroutine's engines — a world takes one per registry and keeps it across
// its runs, and a traffic run's admission timeline takes one — so engines on
// many cores never write one cache line between them, and the registry's
// counters, which sum the shards, stay exact at every read. Watermark should
// be attached to exactly one engine per registry — the one whose virtual
// time is authoritative for the run — since concurrent engines disagree
// about "now".
type Metrics struct {
	Scheduled *metrics.Counter
	Fired     *metrics.Counter
	Canceled  *metrics.Counter
	Watermark *metrics.Gauge
}

// MetricsFrom returns a new shard of each kernel counter registered on r
// (watermark excluded; the caller attaches it to the authoritative engine).
// It renders label sets and takes locks: call it once per goroutine, not per
// run. A nil registry yields the zero (muted) Metrics.
func MetricsFrom(r *metrics.Registry) Metrics {
	if r == nil {
		return Metrics{}
	}
	return Metrics{
		Scheduled: r.Counter(MetricEventsScheduled, "Simulation events scheduled.").Shard(),
		Fired:     r.Counter(MetricEventsFired, "Simulation events fired.").Shard(),
		Canceled:  r.Counter(MetricEventsCanceled, "Simulation timers canceled.").Shard(),
	}
}

// SetMetrics attaches instrumentation hooks to the engine. Observation
// only: hooks never change what a run computes (the nil-registry
// differential test in internal/traffic enforces this).
func (e *Engine) SetMetrics(m Metrics) { e.q.SetMetrics(m) }
