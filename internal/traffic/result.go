package traffic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Status classifies how one payment ended.
type Status string

// Payment statuses.
const (
	// StatusOK: the payment was admitted and its protocol run paid the
	// receiver; the escrow locks were released downstream.
	StatusOK Status = "ok"
	// StatusProtocolFailed: the payment was admitted but its protocol run
	// did not pay the receiver (faults, impatience); locks were refunded.
	StatusProtocolFailed Status = "protocol-failed"
	// StatusRejected: admission found a hop without enough liquidity and the
	// workload does not queue (or the queue was full).
	StatusRejected Status = "rejected"
	// StatusDropped: the payment queued for liquidity but its patience ran
	// out before capacity freed up.
	StatusDropped Status = "dropped"
	// StatusError: the protocol run itself returned an engine error (a
	// scenario bug, not a protocol property violation); locks were refunded.
	StatusError Status = "error"
)

// DropCause attributes a queue-expiry drop (StatusDropped) to what starved
// the payment of liquidity.
type DropCause string

// Drop causes.
const (
	// CauseCapacity: the payment waited on honest contention — offered load
	// simply exceeded the liquidity the chain could recycle in time.
	CauseCapacity DropCause = "capacity"
	// CauseFaultedPath: the payment's route crossed a Byzantine participant
	// at arrival or while it waited, so the drop is attacker-caused damage
	// (lock-and-abandon griefing, holdback) rather than honest congestion.
	CauseFaultedPath DropCause = "faulted-path"
)

// maxSafetySample bounds Result.SafetySample: enough detail to diagnose a
// violated run without growing the Result with the population size.
const maxSafetySample = 8

// PaymentResult records one payment's fate in the traffic timeline.
type PaymentResult struct {
	ID       string
	Sender   int
	Receiver int
	// Amount is what the receiver would collect (last-hop amount); Volume is
	// what the sender locks on its first hop (amount plus commissions).
	Amount int64
	Volume int64
	Hops   int
	// Protocol names the single-payment protocol that executed it.
	Protocol string
	Status   Status
	// Arrival is when the payment entered the system; Start when it was
	// admitted (locks created); End when its locks settled (or when it was
	// rejected/dropped).
	Arrival sim.Time
	Start   sim.Time
	End     sim.Time
	// Queued reports whether the payment waited for liquidity; QueueWait is
	// Start-Arrival for admitted payments (End-Arrival for dropped ones).
	Queued    bool
	QueueWait sim.Time
	// SubEvents is the number of simulation events the payment's own
	// protocol run fired. The pipeline simulates every payment before the
	// timeline admits it, so a rejected or dropped payment carries its
	// sub-run's events too; only a sub-run that returned an error counts 0.
	SubEvents uint64
	// Faulted reports whether the payment's sub-scenario contained any
	// Byzantine participant (static fault, fault-plan window covering its
	// arrival, or a manager outage for manager-based protocols).
	Faulted bool
	// DropCause attributes a StatusDropped payment to "capacity" or
	// "faulted-path"; empty for every other status.
	DropCause DropCause
}

// Latency is the end-to-end latency (arrival to settlement) of an admitted
// payment, including any queue wait.
func (p *PaymentResult) Latency() sim.Time { return p.End - p.Arrival }

// Result aggregates a whole traffic run. All fields are deterministic in
// (Scenario.Seed, Workload); String renders them to a byte-stable summary.
type Result struct {
	// Chain is the topology size n the workload ran against.
	Chain int
	// Seed echoes Scenario.Seed.
	Seed int64
	// Workload echoes the workload that ran.
	Workload Workload
	// Total is the number of payments executed. It always equals
	// Workload.Payments after a full run, including aggregate-only runs
	// that do not retain per-payment records.
	Total int
	// Payments holds one entry per generated payment, in arrival order. Nil
	// in aggregate-only runs (Config.Stream without Config.KeepPayments) —
	// the aggregates below are computed as payments settle either way.
	Payments []PaymentResult
	// Exemplars is a deterministic reservoir sample of payments retained by
	// runs that drop Payments (see Config.Exemplars), sorted by arrival
	// order.
	Exemplars []PaymentResult

	// Outcome counts.
	Succeeded int
	Failed    int
	Rejected  int
	Dropped   int
	Errored   int

	// SuccessRate is Succeeded / Total.
	SuccessRate float64
	// OfferedRate is the measured arrival rate (payments per simulated
	// second); Throughput is the settled rate (successes per simulated
	// second of makespan). A non-empty run whose arrivals all land at t=0
	// (single burst) is measured over a one-tick window rather than
	// reported as zero offered load.
	OfferedRate float64
	Throughput  float64
	// Makespan is the virtual time at which the last payment settled.
	Makespan sim.Time
	// VolumeMoved is the total value successfully delivered to receivers.
	VolumeMoved int64

	// Latency percentiles over successful payments, in milliseconds. Mean
	// and max are always exact; the percentiles are exact when per-payment
	// records are retained and log-bucketed histogram estimates (≤1%
	// relative error, see stats.Histogram) in aggregate-only runs — reported
	// by ApproxPercentiles.
	LatencyMeanMs     float64
	LatencyP50Ms      float64
	LatencyP95Ms      float64
	LatencyP99Ms      float64
	LatencyMaxMs      float64
	ApproxPercentiles bool
	// QueuedCount and QueueWaitMeanMs summarise admission queuing.
	QueuedCount     int
	QueueWaitMeanMs float64

	// PeakInFlight is the largest number of simultaneously admitted
	// payments — the measure of how concurrent the run actually was.
	PeakInFlight int

	// Byzantine-traffic aggregates (all zero for honest runs).
	//
	// ByzantineConnectors is how many connectors the fault plan corrupted;
	// FaultedPayments counts payments whose own sub-scenario contained a
	// Byzantine participant. DroppedFaulted / DroppedCapacity split the
	// Dropped count by attributed cause. PeakByzantineHeld is the largest
	// liquidity simultaneously held in locks whose payer was Byzantine at
	// the time — the direct measure of lock-and-abandon griefing.
	ByzantineConnectors int
	FaultedPayments     int
	DroppedFaulted      int
	DroppedCapacity     int
	PeakByzantineHeld   int64
	// SafetyViolations counts owed consistency and safety-property failures
	// (C, ES, CS1-3, CC, CV) across every per-payment protocol run — the aggregate form of the
	// Theorem 1/3 safety guarantee, owed at any load and any attacker
	// fraction; SafetySample retains the first few failure details.
	SafetyViolations int
	SafetySample     []string
	// CascadeErr is the refund-cascade accounting verdict: non-nil if the
	// running locked-value counter ever went negative or did not return to
	// zero (conservation must hold at every instant, not just at audit).
	CascadeErr error

	// Book is the traffic-level liquidity book (one ledger per escrow)
	// after settlement; AuditErr is the result of auditing every ledger.
	Book     *ledger.Book `json:"-"`
	AuditErr error
	// PendingLocks counts traffic-level locks never settled (must be 0).
	PendingLocks int

	// SubEventsFired sums the simulation events of all per-payment protocol
	// runs; TimelineEvents counts the admission timeline's own events
	// (arrivals, settlements, queue expiries).
	SubEventsFired uint64
	TimelineEvents uint64
}

// aggregator folds per-payment terminal records into a Result as the
// timeline produces them, in settlement order. It retains O(1) state (plus
// the optional exemplar reservoir): exact counters for everything except
// the latency percentiles, which come from the kept per-payment records when
// there are any and from a log-bucketed histogram otherwise.
type aggregator struct {
	keep bool
	// m mirrors terminal statuses and latencies into the live registry (the
	// zero value is muted). It feeds observers only; every Result field
	// still comes from the exact fields below.
	m RunMetrics
	// latHist summarises the latencies when the records are not kept. Mean
	// (over Result.Succeeded) and max are tracked exactly either way.
	latHist *stats.Histogram
	latSum  float64
	latMax  float64

	queueWaitSum float64

	lastArrival sim.Time

	// Deterministic reservoir sample (algorithm R) of terminal payments:
	// Result.Total counts the payments it has seen.
	reservoir []PaymentResult
	resSize   int
	resRng    *sim.Rand
}

// newAggregator builds the aggregator for res. exemplars > 0 enables the
// reservoir (only meaningful when per-payment records are dropped).
func newAggregator(res *Result, keep bool, exemplars int) *aggregator {
	a := &aggregator{keep: keep, resSize: exemplars}
	if !keep {
		a.latHist = stats.NewHistogram()
	}
	if exemplars > 0 {
		// The reservoir RNG is seeded from the scenario seed alone and
		// consumed in settlement order, which is deterministic in
		// (Scenario.Seed, Workload) — so the sample is too.
		a.resRng = sim.NewRand(int64(splitmix64(uint64(res.Seed)^0xE8E47A17) >> 1))
	}
	return a
}

// observe folds one terminal payment record into the running aggregates. It
// reads the record's status, end, drop cause and admission fields only
// (timeline.admission), and returns the exemplar reservoir's slot when the
// sample draws the payment — the caller writes the whole record there — and
// nil otherwise.
func (a *aggregator) observe(r *Result, p *PaymentResult) *PaymentResult {
	a.m.observeStatus(p)
	r.Total++
	switch p.Status {
	case StatusOK:
		r.Succeeded++
		r.VolumeMoved += p.Amount
		lat := p.Latency().Millis()
		a.latSum += lat
		if lat > a.latMax {
			a.latMax = lat
		}
		if !a.keep {
			a.latHist.Add(lat)
		}
	case StatusProtocolFailed:
		r.Failed++
	case StatusRejected:
		r.Rejected++
	case StatusDropped:
		r.Dropped++
		if p.DropCause == CauseFaultedPath {
			r.DroppedFaulted++
			a.m.ByzExpired.Inc()
		} else {
			r.DroppedCapacity++
		}
	case StatusError:
		r.Errored++
	}
	if p.Faulted {
		r.FaultedPayments++
		a.m.ByzPayments.Inc()
	}
	if p.Queued {
		r.QueuedCount++
		a.queueWaitSum += p.QueueWait.Millis()
	}
	if p.Arrival > a.lastArrival {
		a.lastArrival = p.Arrival
	}
	if p.End > r.Makespan {
		r.Makespan = p.End
	}
	r.SubEventsFired += p.SubEvents

	if a.resSize == 0 {
		return nil
	}
	if len(a.reservoir) < a.resSize {
		a.reservoir = append(a.reservoir, PaymentResult{})
		return &a.reservoir[len(a.reservoir)-1]
	}
	if j := a.resRng.Intn(r.Total); j < a.resSize {
		return &a.reservoir[j]
	}
	return nil
}

// finalize computes the derived aggregates and audits the liquidity book.
func (a *aggregator) finalize(r *Result) {
	if r.Total > 0 {
		r.SuccessRate = float64(r.Succeeded) / float64(r.Total)
		window := a.lastArrival
		if window <= 0 {
			// Single-burst workloads put every arrival at t=0; measure
			// offered load over one simulation tick instead of reporting 0.
			window = 1
		}
		r.OfferedRate = float64(r.Total) / window.Seconds()
	}
	if r.Makespan > 0 {
		r.Throughput = float64(r.Succeeded) / r.Makespan.Seconds()
	}
	if r.Succeeded > 0 {
		r.LatencyMeanMs = a.latSum / float64(r.Succeeded)
	}
	r.LatencyMaxMs = a.latMax
	if a.keep {
		lats := stats.New()
		for i := range r.Payments {
			if p := &r.Payments[i]; p.Status == StatusOK {
				lats.Add(p.Latency().Millis())
			}
		}
		r.LatencyP50Ms = lats.Percentile(50)
		r.LatencyP95Ms = lats.Percentile(95)
		r.LatencyP99Ms = lats.Percentile(99)
	} else {
		r.LatencyP50Ms = a.latHist.Percentile(50)
		r.LatencyP95Ms = a.latHist.Percentile(95)
		r.LatencyP99Ms = a.latHist.Percentile(99)
		r.ApproxPercentiles = true
	}
	if r.QueuedCount > 0 {
		r.QueueWaitMeanMs = a.queueWaitSum / float64(r.QueuedCount)
	}
	if len(a.reservoir) > 0 {
		r.Exemplars = a.reservoir
		sort.Slice(r.Exemplars, func(i, j int) bool {
			if r.Exemplars[i].Arrival != r.Exemplars[j].Arrival {
				return r.Exemplars[i].Arrival < r.Exemplars[j].Arrival
			}
			return r.Exemplars[i].ID < r.Exemplars[j].ID
		})
	}
	if r.Book != nil {
		r.AuditErr = r.Book.AuditAll()
		for _, l := range r.Book.Ledgers() {
			r.PendingLocks += l.PendingCount()
		}
	}
}

// String renders a deterministic multi-line summary (used by the CLI, the
// determinism test, and the example).
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic: %d payments over %d escrows (seed %d)\n",
		r.Total, r.Chain, r.Seed)
	fmt.Fprintf(&b, "  outcome     ok=%d protocol-failed=%d rejected=%d dropped=%d error=%d (success %.1f%%)\n",
		r.Succeeded, r.Failed, r.Rejected, r.Dropped, r.Errored, 100*r.SuccessRate)
	fmt.Fprintf(&b, "  load        offered=%.1f/s settled=%.1f/s makespan=%v peak-in-flight=%d\n",
		r.OfferedRate, r.Throughput, r.Makespan, r.PeakInFlight)
	fmt.Fprintf(&b, "  latency     mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
		r.LatencyMeanMs, r.LatencyP50Ms, r.LatencyP95Ms, r.LatencyP99Ms, r.LatencyMaxMs)
	fmt.Fprintf(&b, "  queue       queued=%d mean-wait=%.3fms\n", r.QueuedCount, r.QueueWaitMeanMs)
	fmt.Fprintf(&b, "  byzantine   connectors=%d faulted-paths=%d dropped-faulted=%d dropped-capacity=%d peak-held=%d safety-violations=%d\n",
		r.ByzantineConnectors, r.FaultedPayments, r.DroppedFaulted, r.DroppedCapacity, r.PeakByzantineHeld, r.SafetyViolations)
	for _, detail := range r.SafetySample {
		fmt.Fprintf(&b, "  SAFETY      %s\n", detail)
	}
	fmt.Fprintf(&b, "  value       delivered=%d units\n", r.VolumeMoved)
	audit := "ok"
	if r.AuditErr != nil {
		audit = r.AuditErr.Error()
	}
	cascade := "ok"
	if r.CascadeErr != nil {
		cascade = r.CascadeErr.Error()
	}
	fmt.Fprintf(&b, "  ledgers     audit=%s cascade=%s pending-locks=%d\n", audit, cascade, r.PendingLocks)
	fmt.Fprintf(&b, "  simulation  sub-events=%d timeline-events=%d\n", r.SubEventsFired, r.TimelineEvents)
	return b.String()
}

// PaymentTable renders one line per retained payment, for -v CLI output.
// Runs that drop per-payment records render their exemplar reservoir
// instead (see Config.Exemplars).
func (r *Result) PaymentTable() string {
	rows := r.Payments
	if rows == nil {
		rows = r.Exemplars
	}
	var b strings.Builder
	for _, p := range rows {
		fmt.Fprintf(&b, "%-14s %-18s %-15s arrive=%-12v start=%-12v end=%-12v amount=%d\n",
			p.ID, p.Protocol, p.Status, p.Arrival, p.Start, p.End, p.Amount)
	}
	return b.String()
}
