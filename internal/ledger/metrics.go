package ledger

import "repro/internal/metrics"

// Canonical ledger metric names (the ledger family of /metrics).
const (
	// MetricLocksCreated counts escrow locks created.
	MetricLocksCreated = "xchain_ledger_locks_created_total"
	// MetricLocksReleased counts escrow locks released to the payee.
	MetricLocksReleased = "xchain_ledger_locks_released_total"
	// MetricLocksRefunded counts escrow locks refunded to the payer.
	MetricLocksRefunded = "xchain_ledger_locks_refunded_total"
	// MetricOps counts all ledger operations logged (mint, transfer, lock,
	// release, refund).
	MetricOps = "xchain_ledger_ops_total"
	// MetricLiquidityAvailable is the available (unescrowed) balance of a
	// ledger, labelled by ledger name. Only the traffic book attaches it:
	// protocol sub-run ledgers are short-lived and would thrash the gauge.
	MetricLiquidityAvailable = "xchain_traffic_liquidity_available_units"
	// MetricLiquidityEscrowed is the value currently held in pending locks
	// of a ledger, labelled by ledger name.
	MetricLiquidityEscrowed = "xchain_traffic_liquidity_escrowed_units"
	// MetricLiquidityByzantine is the value currently held in pending locks
	// whose payer is marked Byzantine (see Ledger.SetByzantine), labelled by
	// ledger name — lock-and-abandon griefing observable per book.
	MetricLiquidityByzantine = "xchain_traffic_liquidity_byzantine_units"
)

// Metrics holds a ledger's instrumentation hooks. The zero value is muted:
// nil handles make every update an inlined no-op. The counters are a shard
// of the registry's per MetricsFrom call, shared by the ledgers one
// goroutine owns (a world's, across its runs; the traffic book's): ledgers
// on many cores never write a shared cache line, and the registry's sums stay
// exact. The liquidity gauges must be per-ledger and are only attached where
// a single goroutine owns the ledger (the traffic book), so their
// read-modify-write stays ordered.
type Metrics struct {
	LocksCreated  *metrics.Counter
	LocksReleased *metrics.Counter
	LocksRefunded *metrics.Counter
	Ops           *metrics.Counter

	// Available / Escrowed track this ledger's liquidity split. Mint grows
	// Available; Escrow moves value Available -> Escrowed; Release and
	// Refund move it back (to the payee resp. payer's available balance).
	Available *metrics.Gauge
	Escrowed  *metrics.Gauge
	// ByzantineEscrowed tracks the slice of Escrowed whose payer is marked
	// Byzantine (SetByzantine). Per-ledger, single-goroutine like the other
	// liquidity gauges.
	ByzantineEscrowed *metrics.Gauge
}

// MetricsFrom returns a new shard of each lock/op counter registered on r
// (once per goroutine, not per run), labelled with the given book ("traffic" for the long-running traffic ledgers,
// "protocol" for per-payment sub-run ledgers). Liquidity gauges are not
// populated here; callers owning a single-goroutine ledger attach them via
// the Available/Escrowed fields. A nil registry yields the zero (muted)
// Metrics.
func MetricsFrom(r *metrics.Registry, book string) Metrics {
	if r == nil {
		return Metrics{}
	}
	return Metrics{
		LocksCreated:  r.Counter(MetricLocksCreated, "Escrow locks created.", "book", book).Shard(),
		LocksReleased: r.Counter(MetricLocksReleased, "Escrow locks released to the payee.", "book", book).Shard(),
		LocksRefunded: r.Counter(MetricLocksRefunded, "Escrow locks refunded to the payer.", "book", book).Shard(),
		Ops:           r.Counter(MetricOps, "Ledger operations logged.", "book", book).Shard(),
	}
}

// SetMetrics attaches instrumentation hooks to the ledger. Observation only:
// hooks never change balances, lock states or error results.
func (l *Ledger) SetMetrics(m Metrics) { l.m = m }
