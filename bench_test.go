package xchainpay

// Benchmark harness: one testing.B benchmark per experiment of DESIGN.md /
// EXPERIMENTS.md. Each benchmark regenerates its experiment's table through
// internal/bench at a configuration scaled down to the benchmark's
// iteration budget; `go test -bench=. -benchmem` therefore re-derives every
// table and figure artefact of the paper. cmd/xchain-bench prints the same
// tables at the full configuration for EXPERIMENTS.md.

import (
	"runtime"
	"testing"
	"time"

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

// Traffic-engine benchmarks: 1,000 concurrent payments multiplexed over an
// 8-hop chain, serial versus worker-pool execution. Comparing the two
// ns/op figures measures the parallel runner's speedup (bounded by the
// machine's core count); the results themselves are identical by
// construction (see TestTrafficFacade and TestStreamingEquivalence in
// internal/traffic). Every variant reports its gomaxprocs so a flat
// comparison is attributable to the runner, and the parallel variant skips
// outright on a single core rather than silently reporting "no speedup"
// against a baseline it equals by definition.

func benchTraffic(b *testing.B, cfg TrafficConfig) {
	b.Helper()
	s := NewScenario(8, 42)
	w := NewWorkload(1000)
	w.Arrival.Rate = 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunTrafficWith(s, w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Succeeded == 0 {
			b.Fatal("no payment succeeded")
		}
		if res.AuditErr != nil {
			b.Fatalf("ledger audit failed: %v", res.AuditErr)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkTraffic1kPayments runs the workload with one worker per CPU.
// Skips on a single core: there the configuration degenerates to the serial
// baseline and the comparison would report a meaningless 1.0x.
func BenchmarkTraffic1kPayments(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("GOMAXPROCS=1: parallel run equals the serial baseline; speedup needs a multi-core runner")
	}
	benchTraffic(b, TrafficConfig{})
}

// BenchmarkTraffic1kPaymentsSerial is the single-worker baseline the
// parallel figure is compared against.
func BenchmarkTraffic1kPaymentsSerial(b *testing.B) {
	benchTraffic(b, TrafficConfig{Workers: 1})
}

// benchTrafficStream runs payments through the streaming pipeline
// (aggregates only) and reports the largest live heap sampled *during* the
// run as peak-heap-MB — a transient O(Payments) buffer would show up here
// even if it is garbage by the time the run returns. Peak RSS note: the
// streaming pipeline holds no []PaymentResult and no ledger history, so
// the peak is dominated by the bounded chunk window plus in-flight
// payments — it does not grow with the payment count (compare
// peak-heap-MB across the 100k and 1M variants; per-payment protocol
// simulation dominates ns/op). Run with -benchtime=1x: one million
// payments cost minutes of ed25519 work per iteration.
func benchTrafficStream(b *testing.B, payments int, rate float64, crypto string) {
	b.Helper()
	s := NewScenario(2, 42)
	w := NewWorkload(payments)
	w.Arrival.Rate = rate
	var peak uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	cfg := TrafficConfig{Stream: true, Crypto: crypto}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunTrafficWith(s, w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total != payments || res.Succeeded == 0 {
			b.Fatalf("streamed %d payments, %d ok", res.Total, res.Succeeded)
		}
		if res.AuditErr != nil {
			b.Fatalf("ledger audit failed: %v", res.AuditErr)
		}
	}
	b.StopTimer()
	close(stop)
	<-sampled
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkTraffic100kPaymentsStream is the CI-sized streaming run
// (default ed25519 backend).
func BenchmarkTraffic100kPaymentsStream(b *testing.B) { benchTrafficStream(b, 100_000, 20_000, "") }

// BenchmarkTraffic100kPaymentsStreamHMAC is the same run on the hmac
// backend: identical aggregates, with the model-assumed crypto off the hot
// path (compare ns/op against the ed25519 variant).
func BenchmarkTraffic100kPaymentsStreamHMAC(b *testing.B) {
	benchTrafficStream(b, 100_000, 20_000, CryptoHMAC)
}

// BenchmarkTraffic1MPayments pushes one million payments through the
// streaming pipeline — the scale target of the ROADMAP north star. Memory
// stays flat versus the 100k variant; only wall-clock grows (linearly, in
// the per-payment protocol simulations).
func BenchmarkTraffic1MPayments(b *testing.B) { benchTrafficStream(b, 1_000_000, 20_000, "") }

// BenchmarkTraffic1MPaymentsHMAC is the million-payment run with
// authentication on the hmac backend — the "as fast as the hardware
// allows" configuration now that ed25519 no longer dominates the profile.
func BenchmarkTraffic1MPaymentsHMAC(b *testing.B) {
	benchTrafficStream(b, 1_000_000, 20_000, CryptoHMAC)
}

// Kernel micro-benchmarks: the raw cost of the simulation kernel's hot path
// (event scheduling/firing and muted message delivery), independent of any
// protocol. CI runs these with -benchtime=1x as a smoke test; compare runs
// with benchstat (see README "Performance").

// BenchmarkKernelScheduleFire measures one schedule+fire cycle through the
// pooled event heap using the closure-based entry point.
func BenchmarkKernelScheduleFire(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleAt(eng.Now()+1, "tick", fn)
		eng.Run(0)
	}
}

// BenchmarkKernelScheduleFireArg measures the allocation-free arg-based
// entry point used by the network's delivery path.
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
	fn := func() {}
	for i := 0; i < 1024; i++ {
		eng.ScheduleAt(eng.Now()+sim.Time(i)+1, "standing", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleAt(eng.Now()+1, "tick", fn)
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
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := eng.ScheduleAt(eng.Now()+1000, "timeout", fn)
		eng.ScheduleAt(eng.Now()+1, "work", fn)
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

// BenchmarkKernelScheduleFireInstrumented is BenchmarkKernelScheduleFire
// with a live metrics registry attached to the engine, for measuring the
// instrumentation overhead on the kernel's hottest cycle.
func BenchmarkKernelScheduleFireInstrumented(b *testing.B) {
	eng := sim.NewEngine(1)
	eng.SetMetrics(sim.MetricsFrom(metrics.NewRegistry()))
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleAt(eng.Now()+1, "tick", fn)
		eng.Run(0)
	}
}
