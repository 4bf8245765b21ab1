package netsim

import "repro/internal/metrics"

// Canonical network metric names (the net family of /metrics).
const (
	// MetricMessagesSent counts messages handed to instrumented networks.
	MetricMessagesSent = "xchain_net_messages_sent_total"
	// MetricMessagesDelivered counts messages delivered to recipients.
	MetricMessagesDelivered = "xchain_net_messages_delivered_total"
	// MetricMessagesDropped counts messages dropped (adversarial models,
	// unknown recipients).
	MetricMessagesDropped = "xchain_net_messages_dropped_total"
)

// Metrics holds the network's instrumentation hooks. The zero value is
// muted: nil handles make every update an inlined no-op, preserving the
// zero-allocation muted send path. Like sim.Metrics, the counters are a
// shard of the registry's per MetricsFrom call, which one goroutine's
// networks keep (a world takes one per registry): networks on many cores
// never write a shared cache line, and the registry's sums stay exact.
type Metrics struct {
	Sent      *metrics.Counter
	Delivered *metrics.Counter
	Dropped   *metrics.Counter
}

// MetricsFrom returns a new shard of each network counter registered on r:
// once per goroutine, not per run. A nil registry yields the zero (muted)
// Metrics.
func MetricsFrom(r *metrics.Registry) Metrics {
	if r == nil {
		return Metrics{}
	}
	return Metrics{
		Sent:      r.Counter(MetricMessagesSent, "Network messages sent.").Shard(),
		Delivered: r.Counter(MetricMessagesDelivered, "Network messages delivered.").Shard(),
		Dropped:   r.Counter(MetricMessagesDropped, "Network messages dropped.").Shard(),
	}
}

// SetMetrics attaches instrumentation hooks to the network. Observation
// only: hooks never change delivery order, delays or drops.
func (n *Network) SetMetrics(m Metrics) { n.m = m }
