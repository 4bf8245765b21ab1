package traffic

import "repro/internal/metrics"

// Canonical traffic metric names (the traffic family of /metrics). The
// liquidity gauges of the traffic book live in internal/ledger
// (MetricLiquidityAvailable / MetricLiquidityEscrowed) next to the code
// updating them.
const (
	// MetricPaymentsGenerated counts payments produced by the workload
	// generator (arrivals entering the pipeline).
	MetricPaymentsGenerated = "xchain_traffic_payments_generated_total"
	// MetricPaymentsSimulated counts completed per-payment protocol runs.
	MetricPaymentsSimulated = "xchain_traffic_payments_simulated_total"
	// MetricPaymentsSettled counts payments that ended StatusOK.
	MetricPaymentsSettled = "xchain_traffic_payments_settled_total"
	// MetricPaymentsFailed counts payments whose protocol run did not pay
	// (StatusProtocolFailed).
	MetricPaymentsFailed = "xchain_traffic_payments_failed_total"
	// MetricPaymentsRejected counts admissions refused outright
	// (StatusRejected).
	MetricPaymentsRejected = "xchain_traffic_payments_rejected_total"
	// MetricPaymentsExpired counts queued payments whose patience ran out
	// (StatusDropped).
	MetricPaymentsExpired = "xchain_traffic_payments_expired_total"
	// MetricPaymentsErrored counts payments whose protocol run returned an
	// engine error (StatusError).
	MetricPaymentsErrored = "xchain_traffic_payments_errored_total"
	// MetricQueueDepth is the live admission-queue depth.
	MetricQueueDepth = "xchain_traffic_queue_depth"
	// MetricInFlight is the live number of admitted, unsettled payments.
	MetricInFlight = "xchain_traffic_in_flight"
	// MetricLatencyMs is the end-to-end latency (arrival to settlement) of
	// settled payments, in milliseconds.
	MetricLatencyMs = "xchain_traffic_latency_ms"
	// MetricChunksGenerated / Simulated / Consumed count streaming pipeline
	// chunks through its three stages; their spread shows where the
	// pipeline's bounded lookahead currently sits.
	MetricChunksGenerated = "xchain_traffic_chunks_generated_total"
	MetricChunksSimulated = "xchain_traffic_chunks_simulated_total"
	MetricChunksConsumed  = "xchain_traffic_chunks_consumed_total"
	// MetricCheckpointWriteErrors counts periodic checkpoint writes that
	// failed and were skipped (the previous snapshot stays on disk and the
	// run carries on); non-zero means a crash now would lose more than one
	// checkpoint interval.
	MetricCheckpointWriteErrors = "xchain_traffic_checkpoint_write_errors_total"

	// MetricByzantineConnectors is the live number of connectors currently
	// inside a fault-plan window (plus statically Byzantine ones).
	MetricByzantineConnectors = "xchain_traffic_byzantine_connectors"
	// MetricByzantinePayments counts payments whose sub-scenario contained
	// a Byzantine participant.
	MetricByzantinePayments = "xchain_traffic_byzantine_payments_total"
	// MetricByzantineExpired counts queue-expiry drops attributed to a
	// faulted path (attacker-caused damage, vs MetricPaymentsExpired which
	// counts all drops).
	MetricByzantineExpired = "xchain_traffic_byzantine_expired_total"
	// MetricByzantineHeld is the liquidity currently held in traffic locks
	// whose payer is Byzantine — lock-and-abandon griefing, live.
	MetricByzantineHeld = "xchain_traffic_byzantine_held_units"
	// MetricSafetyViolations counts safety-property failures across all
	// per-payment protocol runs. Must stay 0 at any attacker fraction.
	MetricSafetyViolations = "xchain_traffic_safety_violations_total"
)

// RunMetrics holds every traffic-level instrumentation handle of one run.
// The zero value is muted: all handles are nil and every update is an
// inlined no-op, so an uninstrumented run pays no branches and allocates
// nothing. Counters and the histogram are updated from pipeline goroutines
// (they are atomic); the gauges are only touched by the single timeline
// goroutine.
type RunMetrics struct {
	Generated *metrics.Counter
	Simulated *metrics.Counter
	Settled   *metrics.Counter
	Failed    *metrics.Counter
	Rejected  *metrics.Counter
	Expired   *metrics.Counter
	Errored   *metrics.Counter

	QueueDepth *metrics.Gauge
	InFlight   *metrics.Gauge
	Latency    *metrics.Histogram

	ChunksGenerated *metrics.Counter
	ChunksSimulated *metrics.Counter
	ChunksConsumed  *metrics.Counter

	CheckpointWriteErrors *metrics.Counter

	ByzConnectors    *metrics.Gauge
	ByzPayments      *metrics.Counter
	ByzExpired       *metrics.Counter
	ByzHeld          *metrics.Gauge
	SafetyViolations *metrics.Counter
}

// NewRunMetrics registers (or finds) the traffic family on r and returns the
// handles. RunWith and the live-progress readers of xchain-serve and
// xchain-traffic all call this, so the run's hot path and its readers
// converge on the same cells with the same help strings.
// A nil registry yields the zero (muted) RunMetrics.
func NewRunMetrics(r *metrics.Registry) RunMetrics {
	if r == nil {
		return RunMetrics{}
	}
	return RunMetrics{
		Generated: r.Counter(MetricPaymentsGenerated, "Payments generated by the workload."),
		Simulated: r.Counter(MetricPaymentsSimulated, "Per-payment protocol runs completed."),
		Settled:   r.Counter(MetricPaymentsSettled, "Payments settled successfully."),
		Failed:    r.Counter(MetricPaymentsFailed, "Payments whose protocol run failed."),
		Rejected:  r.Counter(MetricPaymentsRejected, "Payments rejected at admission."),
		Expired:   r.Counter(MetricPaymentsExpired, "Queued payments expired waiting for liquidity."),
		Errored:   r.Counter(MetricPaymentsErrored, "Payments whose protocol run errored."),

		QueueDepth: r.Gauge(MetricQueueDepth, "Admission queue depth."),
		InFlight:   r.Gauge(MetricInFlight, "Admitted, unsettled payments."),
		Latency:    r.Histogram(MetricLatencyMs, "Settled payment latency in milliseconds."),

		ChunksGenerated: r.Counter(MetricChunksGenerated, "Streaming pipeline chunks generated."),
		ChunksSimulated: r.Counter(MetricChunksSimulated, "Streaming pipeline chunks simulated."),
		ChunksConsumed:  r.Counter(MetricChunksConsumed, "Streaming pipeline chunks consumed by the timeline."),

		CheckpointWriteErrors: r.Counter(MetricCheckpointWriteErrors, "Periodic checkpoint writes that failed and were skipped."),

		ByzConnectors:    r.Gauge(MetricByzantineConnectors, "Connectors currently inside a Byzantine fault window."),
		ByzPayments:      r.Counter(MetricByzantinePayments, "Payments whose path crossed a Byzantine participant."),
		ByzExpired:       r.Counter(MetricByzantineExpired, "Queue-expiry drops attributed to a faulted path."),
		ByzHeld:          r.Gauge(MetricByzantineHeld, "Liquidity held in locks owned by Byzantine payers."),
		SafetyViolations: r.Counter(MetricSafetyViolations, "Safety-property failures across per-payment runs."),
	}
}

// observeStatus bumps the per-status counter (and the latency histogram for
// settled payments) for one terminal payment record.
func (m *RunMetrics) observeStatus(p *PaymentResult) {
	switch p.Status {
	case StatusOK:
		m.Settled.Inc()
		m.Latency.Observe(p.Latency().Millis())
	case StatusProtocolFailed:
		m.Failed.Inc()
	case StatusRejected:
		m.Rejected.Inc()
	case StatusDropped:
		m.Expired.Inc()
	case StatusError:
		m.Errored.Inc()
	}
}
