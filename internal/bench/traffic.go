package bench

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// trafficCell is one workload regime of experiment E9 or E11.
type trafficCell struct {
	name  string
	build func(n int, payments int) traffic.Workload
}

// trafficPayments scales the per-cell payment count with the configured
// number of runs, clamped so quick runs stay quick and full runs stay
// meaningful.
func trafficPayments(cfg Config) int {
	return min(max(40*cfg.Runs, 80), 800)
}

// seedRun is one seed's traffic run of an E9 or E11 cell.
type seedRun struct {
	res *traffic.Result
	err error
}

// runSeeds runs w on an n-escrow chain once per configured seed, at most
// GOMAXPROCS seeds at a time and each run single-threaded, and returns the
// runs in seed order: the cells' stats.Sample means depend on the order of
// addition. A cell has at most 800 payments, too few pipeline chunks for one
// RunWith to use the cores itself.
func runSeeds(cfg Config, n int, w traffic.Workload) []seedRun {
	seeds := cfg.seeds()
	runs := make([]seedRun, len(seeds))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			res, err := traffic.RunWith(core.NewScenario(n, 0).WithSeed(seed), w, traffic.Config{Workers: 1})
			if err == nil && res.AuditErr != nil {
				err = fmt.Errorf("AUDIT FAILED: %w", res.AuditErr)
			} else if err == nil && res.CascadeErr != nil {
				err = fmt.Errorf("CASCADE FAILED: %w", res.CascadeErr)
			}
			runs[i] = seedRun{res, err}
		}()
	}
	wg.Wait()
	return runs
}

// RunE9 is the traffic experiment: many concurrent payments multiplexed
// over one shared escrow chain, swept across chain lengths and workload
// regimes. It reports, per cell, the offered versus settled rates, the
// admission outcomes, latency percentiles and the peak number of payments
// simultaneously in flight.
func RunE9(cfg Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "concurrent multi-payment traffic on a shared escrow chain",
		Columns: []string{"workload", "n", "payments", "success", "rejected", "dropped", "settled/s", "p50 ms", "p95 ms", "peak in-flight"},
	}
	maxChain := max(cfg.MaxChain, 3)
	payments := trafficPayments(cfg)
	cells := []trafficCell{
		{name: "open/ample", build: func(n, p int) traffic.Workload {
			w := traffic.NewWorkload(p)
			w.Arrival.Rate = 500
			return w.WithMix(mixed...)
		}},
		{name: "burst/starved", build: func(n, p int) traffic.Workload {
			w := traffic.NewWorkload(p)
			w.Arrival = traffic.Arrival{Kind: traffic.ArrivalBurst, BurstSize: 25, BurstGap: 2 * sim.Second}
			return w.WithLiquidity(int64(5 * (100 + n)))
		}},
		{name: "burst/queued", build: func(n, p int) traffic.Workload {
			w := traffic.NewWorkload(p)
			w.Arrival = traffic.Arrival{Kind: traffic.ArrivalBurst, BurstSize: 25, BurstGap: 2 * sim.Second}
			return w.WithLiquidity(int64(5*(100+n))).WithQueue(20*sim.Second, 0)
		}},
	}
	chains := []int{3}
	if maxChain > 3 {
		chains = append(chains, maxChain)
	}
	settlesAll, rejects := true, true
	for _, cell := range cells {
		for _, n := range chains {
			w := cell.build(n, payments)
			success, rejected, dropped := stats.New(), stats.New(), stats.New()
			settled, p50, p95, peak := stats.New(), stats.New(), stats.New(), stats.New()
			for _, o := range runSeeds(cfg, n, w) {
				if o.err != nil {
					t.RunError("%s n=%d: %v", cell.name, n, o.err)
					continue
				}
				total := float64(o.res.Total)
				success.Add(float64(o.res.Succeeded) / total)
				rejected.Add(float64(o.res.Rejected) / total)
				dropped.Add(float64(o.res.Dropped) / total)
				settled.Add(o.res.Throughput)
				p50.Add(o.res.LatencyP50Ms)
				p95.Add(o.res.LatencyP95Ms)
				peak.AddInt(int64(o.res.PeakInFlight))
			}
			switch cell.name {
			case "open/ample":
				settlesAll = settlesAll && success.Mean() == 1
			case "burst/starved":
				rejects = rejects && rejected.Mean() > 0
			}
			t.AddRow(cell.name, fmt.Sprint(n), fmt.Sprint(payments),
				fmtPct(success.Mean()), fmtPct(rejected.Mean()), fmtPct(dropped.Mean()),
				fmtF(settled.Mean()), fmtF(p50.Mean()), fmtF(p95.Mean()), fmtF(peak.Mean()))
		}
	}
	t.AddNote("open/ample: Poisson arrivals at 500/s, mixed timelock/weaklive/htlc traffic, liquidity auto-sized so admission never binds")
	t.AddNote("burst/starved: bursts of 25 against liquidity for ~5 concurrent payments; excess is rejected at admission")
	t.AddNote("burst/queued: same starvation with 20s admission-queue patience; refunded capacity recycles into queued payments, while released capacity moves downstream for good (one-directional channels), so successes stay liquidity-bound")
	t.AddNote("every cell audits all traffic ledgers (conservation of value) and runs the same workload bit-identically for any worker count")
	t.Check(settlesAll, "open/ample settles every payment")
	t.Check(rejects, "burst/starved rejects payments at admission")
	return t
}
