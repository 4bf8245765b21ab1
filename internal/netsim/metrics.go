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
	// MetricBroadcasts counts Broadcast calls; sent/broadcasts gives the
	// mean broadcast fan-out.
	MetricBroadcasts = "xchain_net_broadcasts_total"
)

// Metrics holds the network's instrumentation hooks. The zero value is
// muted: nil handles make every update an inlined no-op, preserving the
// zero-allocation muted send path.
type Metrics struct {
	Sent       *metrics.Counter
	Delivered  *metrics.Counter
	Dropped    *metrics.Counter
	Broadcasts *metrics.Counter
}

// MetricsFrom returns the network counter hooks registered on r. A nil
// registry yields the zero (muted) Metrics.
func MetricsFrom(r *metrics.Registry) Metrics {
	if r == nil {
		return Metrics{}
	}
	return Metrics{
		Sent:       r.Counter(MetricMessagesSent, "Network messages sent."),
		Delivered:  r.Counter(MetricMessagesDelivered, "Network messages delivered."),
		Dropped:    r.Counter(MetricMessagesDropped, "Network messages dropped."),
		Broadcasts: r.Counter(MetricBroadcasts, "Network broadcasts initiated."),
	}
}

// SetMetrics attaches instrumentation hooks to the network. Observation
// only: hooks never change delivery order, delays or drops.
func (n *Network) SetMetrics(m Metrics) { n.m = m }
