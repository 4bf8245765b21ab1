package traffic

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
)

// TestMetricsResultEquivalence holds a live registry to the run it observed,
// serial and parallel: every counter, gauge and family agrees with the exact
// Result. That attaching the registry never changes the Result itself is
// TestExecutionLattice's metrics and metrics/drop columns, on every input.
func TestMetricsResultEquivalence(t *testing.T) {
	s := core.NewScenario(4, 99)
	w := Workload{
		Payments:       400,
		Arrival:        Arrival{Kind: ArrivalPoisson, Rate: 2000},
		Liquidity:      2500,
		QueuePatience:  200 * sim.Millisecond,
		RandomSubPaths: true,
		Mix:            []ProtocolShare{{Name: "timelock", Weight: 2}, {Name: "htlc", Weight: 1}},
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, Metrics: metrics.NewRegistry()}
		res, err := RunWith(s, w, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkRunCounters(t, cfg.Metrics, res)
	}
}

// checkRunCounters cross-checks the live registry against the exact Result:
// every payment is generated, simulated (unless rejected/dropped before
// running — sub-runs always run in this pipeline), and lands in exactly one
// terminal counter; gauges return to zero once the run drains.
func checkRunCounters(t *testing.T, r *metrics.Registry, res *Result) {
	t.Helper()
	counter := func(name string) uint64 { return r.Counter(name, "").Value() }
	if got := counter(MetricPaymentsGenerated); got != uint64(res.Total) {
		t.Errorf("generated = %d, want %d", got, res.Total)
	}
	if got := counter(MetricPaymentsSimulated); got != uint64(res.Total) {
		t.Errorf("simulated = %d, want %d", got, res.Total)
	}
	for _, c := range []struct {
		name string
		want int
	}{
		{MetricPaymentsSettled, res.Succeeded},
		{MetricPaymentsFailed, res.Failed},
		{MetricPaymentsRejected, res.Rejected},
		{MetricPaymentsExpired, res.Dropped},
		{MetricPaymentsErrored, res.Errored},
	} {
		if got := counter(c.name); got != uint64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := r.Histogram(MetricLatencyMs, "").Count(); got != uint64(res.Succeeded) {
		t.Errorf("latency observations = %d, want %d", got, res.Succeeded)
	}
	for _, g := range []string{MetricQueueDepth, MetricInFlight} {
		if v := r.Gauge(g, "").Value(); v != 0 {
			t.Errorf("%s = %v after drain, want 0", g, v)
		}
	}
	// Kernel counters: every sub-run's events are mirrored in the shared
	// fired counter (the timeline engine adds its own on top, so this is a
	// lower bound).
	if fired := counter(simMetricEventsFired); fired < res.SubEventsFired {
		t.Errorf("sim events fired = %d, want at least sub-events %d", fired, res.SubEventsFired)
	}
	// The traffic book's liquidity gauges agree with the audited ledgers.
	for _, name := range res.Book.Names() {
		l := res.Book.MustGet(name)
		if got := r.Gauge(ledger.MetricLiquidityAvailable, "", "ledger", name).Value(); got != float64(l.AccountsTotal()) {
			t.Errorf("ledger %s available gauge = %v, want %d", name, got, l.AccountsTotal())
		}
		if got := r.Gauge(ledger.MetricLiquidityEscrowed, "", "ledger", name).Value(); got != float64(l.EscrowedTotal()) {
			t.Errorf("ledger %s escrowed gauge = %v, want %d", name, got, l.EscrowedTotal())
		}
	}
	// A scrape of the populated registry covers the sim, net, traffic and
	// ledger families.
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	for _, family := range []string{
		"xchain_sim_events_fired_total",
		"xchain_net_messages_delivered_total",
		MetricPaymentsSettled,
		ledger.MetricOps,
	} {
		if !strings.Contains(b.String(), "\n"+family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
}

// simMetricEventsFired spells out sim.MetricEventsFired to keep the check
// honest about the cross-package name contract.
const simMetricEventsFired = "xchain_sim_events_fired_total"

// TestCountersExactUnderConcurrency runs one population on four goroutines,
// each simulating every fourth payment on a world of its own under one
// shared registry, and holds every process-wide count to the sum of what
// the runs counted: sig.GlobalStats' delta to the sum of the keyrings'
// Stats, and each kernel, network and protocol-ledger counter of the shared
// registry to the sum of that counter's count for each run alone — read, per
// payment, off a twin world of the goroutine's under a registry of its own.
// Striped and sharded counters must lose nothing and count nothing twice.
func TestCountersExactUnderConcurrency(t *testing.T) {
	bp := benchPopulations()[2] // byz_mix: four protocols, faults, refunds
	bp.payments = 240
	s, w := bp.inputs()
	w.Faults = FaultPlan{Fraction: 0.5} // half the connectors Byzantine throughout: refunds
	plan := w.Faults.compile(s)
	ps, err := resolveProtocols(w, DefaultProtocols())
	if err != nil {
		t.Fatal(err)
	}
	pays := population(s, w)

	type counter struct{ name, book string }
	counters := []counter{
		{sim.MetricEventsScheduled, ""}, {sim.MetricEventsFired, ""}, {sim.MetricEventsCanceled, ""},
		{netsim.MetricMessagesSent, ""}, {netsim.MetricMessagesDelivered, ""}, {netsim.MetricMessagesDropped, ""},
		{ledger.MetricLocksCreated, "protocol"}, {ledger.MetricLocksReleased, "protocol"},
		{ledger.MetricLocksRefunded, "protocol"}, {ledger.MetricOps, "protocol"},
	}
	read := func(r *metrics.Registry) []uint64 {
		out := make([]uint64, len(counters))
		for i, c := range counters {
			if c.book == "" {
				out[i] = r.Counter(c.name, "").Value()
			} else {
				out[i] = r.Counter(c.name, "", "book", c.book).Value()
			}
		}
		return out
	}
	add := func(sum *sig.Stats, s sig.Stats) {
		sum.KeygenHits += s.KeygenHits
		sum.KeygenMisses += s.KeygenMisses
		sum.MemoHits += s.MemoHits
		sum.MemoMisses += s.MemoMisses
		sum.Rendered += s.Rendered
	}

	const goroutines = 4
	shared := metrics.NewRegistry()
	own := make([][]uint64, goroutines)
	keyrings := make([]sig.Stats, goroutines)
	sig0 := sig.GlobalStats()
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base, alone := s, s
			base.Metrics, alone.Metrics = shared, metrics.NewRegistry()
			sm, twin := newSimulator(w.Commission), newSimulator(w.Commission)
			own[g] = make([]uint64, len(counters))
			for i := g; i < len(pays); i += goroutines {
				sm.simulateOne(&base, plan, pays[i], &ps)
				add(&keyrings[g], sm.w.Keyring().Stats())
				before := read(alone.Metrics)
				twin.simulateOne(&alone, plan, pays[i], &ps)
				add(&keyrings[g], twin.w.Keyring().Stats())
				for j, v := range read(alone.Metrics) {
					own[g][j] += v - before[j]
				}
			}
		}()
	}
	wg.Wait()

	var want sig.Stats
	for _, k := range keyrings {
		add(&want, k)
	}
	sig1 := sig.GlobalStats()
	got := sig.Stats{
		KeygenHits: sig1.KeygenHits - sig0.KeygenHits, KeygenMisses: sig1.KeygenMisses - sig0.KeygenMisses,
		MemoHits: sig1.MemoHits - sig0.MemoHits, MemoMisses: sig1.MemoMisses - sig0.MemoMisses,
		Rendered: sig1.Rendered - sig0.Rendered,
	}
	if got != want || want.MemoHits == 0 {
		t.Errorf("sig.GlobalStats moved by %+v, the keyrings counted %+v", got, want)
	}
	for i, v := range read(shared) {
		var sum uint64
		for g := range goroutines {
			sum += own[g][i]
		}
		if v != sum {
			t.Errorf("%s{book=%q} = %d, the runs alone counted %d", counters[i].name, counters[i].book, v, sum)
		}
		if sum == 0 && counters[i].name != netsim.MetricMessagesDropped {
			t.Errorf("%s{book=%q}: no run counted any", counters[i].name, counters[i].book)
		}
	}
}
