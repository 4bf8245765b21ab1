package traffic

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// benchPopulation is one of the repository benchmark's traffic populations
// (benchmark/workloads.go) at its batch size, on the hmac backend.
type benchPopulation struct {
	name        string
	n, payments int
	shape       func(w *Workload)
}

// benchPopulations are the open, bound_queue and byz_mix populations.
func benchPopulations() []benchPopulation {
	return []benchPopulation{
		{"open", 2, 6000, func(w *Workload) { w.Arrival.Rate = 20000 }},
		{"bound_queue", 8, 1500, func(w *Workload) {
			w.Arrival.Rate = 4000
			w.RandomSubPaths = true
			w.Liquidity = 10000
			w.QueuePatience = sim.Second
		}},
		{"byz_mix", 8, 4000, func(w *Workload) {
			w.Arrival.Rate = 2000
			w.RandomSubPaths = true
			w.Mix = []ProtocolShare{
				{Name: "timelock", Weight: 0.4}, {Name: "htlc", Weight: 0.3},
				{Name: "weaklive", Weight: 0.2}, {Name: "weaklive-committee", Weight: 0.1},
			}
			w.Faults = FaultPlan{Fraction: 0.1, From: 200 * sim.Millisecond, Stagger: 500 * sim.Millisecond, Outage: sim.Second}
		}},
	}
}

// inputs returns the population's scenario and workload.
func (bp benchPopulation) inputs() (core.Scenario, Workload) {
	s := core.NewScenario(bp.n, 11)
	s.Crypto = "hmac"
	w := NewWorkload(bp.payments)
	bp.shape(&w)
	return s, w
}

// BenchmarkTimeline times the admission timeline alone on each benchmark
// population: the population is drawn and simulated once, and every
// iteration runs a new timeline — new book, aggregate-only retention, as a
// streamed run has them — over it. The first sub-benchmark times the whole
// of timeline.execute per payment; "/drain" times only the drain that ends
// the run (timeline.drain, every arrival already processed) per event it
// fires, which on open is nearly every settlement.
//
//	go test -run '^$' -bench BenchmarkTimeline ./internal/traffic
func BenchmarkTimeline(b *testing.B) {
	for _, bp := range benchPopulations() {
		s, w := bp.inputs()
		plan := w.Faults.compile(s)
		src, _ := simulatedRun(s, w, plan, DefaultProtocols())
		var demand []int64
		if w.Liquidity <= 0 {
			demand = w.demand(s)
		}
		fresh := func() *timeline {
			src.i = 0
			res := &Result{Chain: s.Topology.N, Seed: s.Seed, Workload: w, ByzantineConnectors: plan.connectors(), Book: newLiquidityBook(s, w, demand)}
			return newTimeline(res, w, &src.ps, plan, false, 0, nil, RunMetrics{}, nil)
		}
		b.Run(bp.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tl := fresh()
				b.StartTimer()
				if err := tl.execute(src, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			ops := float64(b.N * bp.payments)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/payment")
			// Mallocs counts fresh()'s book too: a few allocations a run.
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/ops, "allocs/payment")
		})
		b.Run(bp.name+"/drain", func(b *testing.B) {
			var drained uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tl := fresh()
				tl.scheduleMarks()
				if err := tl.run(src, nil); err != nil {
					b.Fatal(err)
				}
				_, _, before := tl.q.Clock()
				b.StartTimer()
				tl.drain()
				b.StopTimer()
				_, _, after := tl.q.Clock()
				drained += after - before
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(drained), "ns/event")
			b.ReportMetric(float64(drained)/float64(b.N), "events/run")
		})
	}
}

// BenchmarkRunWith times whole streamed runs of the open population —
// generation, the worker pool and the timeline, as the benchmark's
// open_hmac workloads run them — with one simulating worker and with
// GOMAXPROCS of them, each muted and under a live registry (a new one per
// run), in ns per payment. The two worker counts give the parallel speed-up
// and the two registry columns what observing a run costs:
//
//	go test -run '^$' -bench BenchmarkRunWith -count 5 ./internal/traffic
func BenchmarkRunWith(b *testing.B) {
	bp := benchPopulations()[0]
	s, w := bp.inputs()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, live := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/registry=nil", workers)
			if live {
				name = fmt.Sprintf("workers=%d/registry=live", workers)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := Config{Workers: workers, Stream: true}
					if live {
						cfg.Metrics = metrics.NewRegistry()
					}
					if _, err := RunWith(s, w, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bp.payments), "ns/payment")
			})
		}
	}
}
