package xchainpay

// Benchmark harness: one testing.B benchmark per experiment of README's
// "Experiments" section. Each benchmark regenerates its experiment's table
// through internal/bench at a configuration scaled down to the benchmark's
// iteration budget; `go test -bench=. -benchmem` therefore re-derives every
// table and figure artefact of the paper. cmd/xchain-bench prints the same
// tables at the full configuration.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchConfig is the per-iteration experiment size used inside benchmarks:
// small enough that one iteration is fast, large enough to exercise every
// code path of the experiment.
func benchConfig() bench.Config { return bench.Config{Runs: 2, MaxChain: 4} }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := exp.Run(benchConfig())
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1_TimeBoundedHappyPath regenerates the Figure-1/2 artefact: the
// happy-path run of the time-bounded protocol on growing chains, on both
// engines.
func BenchmarkE1_TimeBoundedHappyPath(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2_Theorem1Properties regenerates the Theorem-1 property sweep
// under synchrony with Byzantine single-fault assignments.
func BenchmarkE2_Theorem1Properties(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3_TerminationBound regenerates the termination-time-vs-bound
// table of Theorem 1.
func BenchmarkE3_TerminationBound(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4_ImpossibilitySearch regenerates the Theorem-2 adversarial
// search under partial synchrony.
func BenchmarkE4_ImpossibilitySearch(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5_WeakLivenessProperties regenerates the Theorem-3 property
// sweep under partial synchrony.
func BenchmarkE5_WeakLivenessProperties(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6_DealsVsPayments regenerates the Section-5 comparison with
// cross-chain deals.
func BenchmarkE6_DealsVsPayments(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7_BaselineComparison regenerates the HTLC-vs-Figure-2 baseline
// comparison.
func BenchmarkE7_BaselineComparison(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8_CostScaling regenerates the protocol cost-scaling table.
func BenchmarkE8_CostScaling(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9_Traffic regenerates the concurrent-traffic table.
func BenchmarkE9_Traffic(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkA1_DriftAblation regenerates the clock-drift fine-tuning ablation.
func BenchmarkA1_DriftAblation(b *testing.B) { runExperiment(b, "A1") }

// BenchmarkA2_NotaryCommittee regenerates the committee-size ablation.
func BenchmarkA2_NotaryCommittee(b *testing.B) { runExperiment(b, "A2") }

// BenchmarkA3_PatienceSensitivity regenerates the patience-sensitivity
// ablation.
func BenchmarkA3_PatienceSensitivity(b *testing.B) { runExperiment(b, "A3") }

// Micro-benchmarks for the protocols themselves, reported alongside the
// experiment benchmarks so the cost of a single end-to-end payment is
// visible per protocol and chain length.

func benchProtocol(b *testing.B, p core.Protocol, n int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.NewScenario(n, int64(i)).Muted()
		for _, id := range s.Topology.Customers() {
			s = s.SetPatience(id, 60*sim.Second)
		}
		res, err := p.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if !res.BobPaid {
			b.Fatalf("%s: Bob not paid", p.Name())
		}
	}
}

// BenchmarkProtocolTimeBounded_n4 measures one end-to-end time-bounded
// payment across four escrows.
func BenchmarkProtocolTimeBounded_n4(b *testing.B) { benchProtocol(b, TimeBounded(), 4) }

// BenchmarkProtocolTimeBoundedANTA_n4 measures the same payment on the
// ANTA (Figure-2 automata) engine.
func BenchmarkProtocolTimeBoundedANTA_n4(b *testing.B) { benchProtocol(b, TimeBoundedANTA(), 4) }

// BenchmarkProtocolWeakLivenessTrusted_n4 measures one weak-liveness payment
// with the trusted manager.
func BenchmarkProtocolWeakLivenessTrusted_n4(b *testing.B) { benchProtocol(b, WeakLiveness(), 4) }

// BenchmarkProtocolWeakLivenessCommittee_n4 measures one weak-liveness
// payment with a 4-notary committee.
func BenchmarkProtocolWeakLivenessCommittee_n4(b *testing.B) {
	benchProtocol(b, WeakLivenessCommittee(4), 4)
}

// BenchmarkProtocolHTLC_n4 measures one hashed-timelock payment.
func BenchmarkProtocolHTLC_n4(b *testing.B) { benchProtocol(b, HTLCBaseline(), 4) }

// Kernel micro-benchmarks: the raw cost of the simulation kernel's hot path
// (event scheduling/firing and muted message delivery), independent of any
// protocol. CI runs these with -benchtime=1x as a smoke test; compare runs
// with benchstat (see README "Performance").

// BenchmarkKernelScheduleFireArg measures one schedule+fire cycle through
// the pooled event heap: a package-level action with a pre-bound argument,
// the form every event takes.
func BenchmarkKernelScheduleFireArg(b *testing.B) {
	eng := sim.NewEngine(1)
	type payload struct{ n int }
	arg := &payload{}
	fn := func(x any) { x.(*payload).n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleArgAt(eng.Now()+1, "tick", fn, arg)
		eng.Run(0)
	}
}

// BenchmarkKernelScheduleDepth measures scheduling into a deep queue (heap
// sift cost): 1024 pending events per firing.
func BenchmarkKernelScheduleDepth(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func(any) {}
	for i := 0; i < 1024; i++ {
		eng.ScheduleArgAt(eng.Now()+sim.Time(i)+1, "standing", fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleArgAt(eng.Now()+1, "tick", fn, nil)
		eng.RunUntil(eng.NextEventTime(), 1)
	}
}

// BenchmarkKernelSendDeliver measures one muted network send+deliver cycle:
// envelope construction, delay draw, pooled delivery scheduling and the
// delivery callback itself.
func BenchmarkKernelSendDeliver(b *testing.B) {
	eng := sim.NewEngine(1)
	tr := trace.New()
	tr.Mute()
	net := netsim.New(eng, netsim.Synchronous{Min: 1, Max: 1}, tr)
	net.Register(&netsim.FuncNode{Id: "a"})
	net.Register(&netsim.FuncNode{Id: "b"})
	// Pre-boxed so the benchmark isolates the network path; a value-typed
	// message adds one 16-byte interface boxing at the call site.
	var msg netsim.Message = netsim.RawMessage{Label: "m"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send("a", "b", msg)
		eng.Run(0)
	}
}

// BenchmarkKernelSendDeliverTraced is the same cycle with a live trace, for
// comparing the cost of recording against the muted fast path.
func BenchmarkKernelSendDeliverTraced(b *testing.B) {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.Synchronous{Min: 1, Max: 1}, trace.New())
	net.Register(&netsim.FuncNode{Id: "a"})
	net.Register(&netsim.FuncNode{Id: "b"})
	msg := netsim.RawMessage{Label: "m"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send("a", "b", msg)
		eng.Run(0)
	}
}

// BenchmarkKernelCancel measures the cancel-heavy pattern of timeout-driven
// protocols: schedule a timer, cancel it, let the queue discard it.
func BenchmarkKernelCancel(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := eng.ScheduleArgAt(eng.Now()+1000, "timeout", fn, nil)
		eng.ScheduleArgAt(eng.Now()+1, "work", fn, nil)
		tm.Cancel()
		eng.Run(0)
	}
}

// Metrics micro-benchmarks: the per-event cost of live instrumentation and
// the proof that muted (nil-handle) instrumentation costs nothing. These
// bound the overhead every instrumented hot path above pays per counter
// bump or latency observation.

// BenchmarkMetricsCounter measures one live counter increment (a single
// atomic add behind a nil check).
func BenchmarkMetricsCounter(b *testing.B) {
	c := metrics.NewRegistry().Counter("bench_events_total", "bench counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkMetricsCounterMuted measures the muted path: a nil *Counter
// increment, the cost an uninstrumented run pays at every metric site.
func BenchmarkMetricsCounterMuted(b *testing.B) {
	var c *metrics.Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkMetricsHistogram measures one live histogram observation:
// log-bucket index computation plus two atomic adds.
func BenchmarkMetricsHistogram(b *testing.B) {
	h := metrics.NewRegistry().Histogram("bench_latency_ms", "bench histogram")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) + 0.5)
	}
}

// BenchmarkMetricsHistogramMuted measures the muted histogram observation.
func BenchmarkMetricsHistogramMuted(b *testing.B) {
	var h *metrics.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(3.5)
	}
}

// BenchmarkKernelScheduleFireInstrumented is BenchmarkKernelScheduleFireArg
// with a live metrics registry attached to the engine, for measuring the
// instrumentation overhead on the kernel's hottest cycle.
func BenchmarkKernelScheduleFireInstrumented(b *testing.B) {
	eng := sim.NewEngine(1)
	eng.SetMetrics(sim.MetricsFrom(metrics.NewRegistry()))
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleArgAt(eng.Now()+1, "tick", fn, nil)
		eng.Run(0)
	}
}
