package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// RunE11 is the Byzantine-traffic experiment: the E9 workload machinery with
// a traffic.FaultPlan turning a sweep of connector fractions Byzantine, at
// two load points. It quantifies the attack damage the theorems permit —
// lost throughput, latency inflation, griefed liquidity — while the
// aggregate safety oracle pins what they forbid: every cell, at every
// attacker fraction, must report zero safety violations for honest parties
// and a clean conservation audit.
func RunE11(cfg Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Byzantine traffic: measured attack damage vs attacker fraction",
		Columns: []string{"load", "attacker", "byz-conn", "success", "faulted", "drop-fault", "drop-cap", "settled/s", "p95 ms", "peak-held", "safety"},
	}
	// The swept fractions compile to distinct Byzantine cohorts: of the 8
	// connectors of a 9-escrow chain, 1, 2 and 4 (a longer chain's fractions
	// round to larger cohorts, still distinct).
	n := max(cfg.MaxChain, 9)
	payments := trafficPayments(cfg)
	fractions := []float64{0, 0.125, 0.25, 0.5}
	loads := []trafficCell{
		{name: "open", build: func(n, p int) traffic.Workload {
			w := traffic.NewWorkload(p)
			w.Arrival.Rate = 300
			w.RandomSubPaths = true
			return w.WithMix(mixed...).WithQueue(10*sim.Second, 0)
		}},
		{name: "stressed", build: func(n, p int) traffic.Workload {
			w := traffic.NewWorkload(p)
			w.Arrival.Rate = 700
			w.RandomSubPaths = true
			return w.WithMix(mixed...).WithLiquidity(int64(150*(n+1))).WithQueue(2*sim.Second, 0)
		}},
	}
	safetyTotal := 0
	baseline := map[string]float64{}
	quiet, cohorts, growing, damaged := true, true, true, false
	for _, load := range loads {
		lastConn := -1
		for _, frac := range fractions {
			w := load.build(n, payments)
			if frac > 0 {
				// Persistent faults over the whole run (no recovery window):
				// the worst-case damage reading for the sweep.
				w.Faults = traffic.FaultPlan{Fraction: frac}
			}
			success, faulted := stats.New(), stats.New()
			dropF, dropC := stats.New(), stats.New()
			settled, p95, held := stats.New(), stats.New(), stats.New()
			byzConn, safety := 0, 0
			for _, o := range runSeeds(cfg, n, w) {
				if o.err != nil {
					t.RunError("%s attacker=%.0f%%: %v", load.name, 100*frac, o.err)
					continue
				}
				total := float64(o.res.Total)
				success.Add(float64(o.res.Succeeded) / total)
				faulted.Add(float64(o.res.FaultedPayments) / total)
				dropF.Add(float64(o.res.DroppedFaulted) / total)
				dropC.Add(float64(o.res.DroppedCapacity) / total)
				settled.Add(o.res.Throughput)
				p95.Add(o.res.LatencyP95Ms)
				held.AddInt(o.res.PeakByzantineHeld)
				byzConn = o.res.ByzantineConnectors
				safety += o.res.SafetyViolations
			}
			growing = growing && byzConn > lastConn
			lastConn = byzConn
			safetyTotal += safety
			if frac == 0 {
				baseline[load.name] = success.Mean()
				quiet = quiet && faulted.Mean() == 0 && held.Mean() == 0
			}
			if load.name == "open" && frac == 0.25 {
				damaged = faulted.Mean() > 0 && success.Mean() < baseline[load.name]
			}
			t.AddRow(load.name, fmtPct(frac), fmt.Sprint(byzConn),
				fmtPct(success.Mean()), fmtPct(faulted.Mean()),
				fmtPct(dropF.Mean()), fmtPct(dropC.Mean()),
				fmtF(settled.Mean()), fmtF(p95.Mean()), fmtF(held.Mean()),
				fmt.Sprint(safety))
			if frac > 0 {
				cohorts = cohorts && byzConn > 0
				t.AddNote("%s attacker=%s: success delta vs honest baseline %+.1f points",
					load.name, fmtPct(frac), 100*(success.Mean()-baseline[load.name]))
			}
		}
	}
	t.AddNote("fault plan: seed-derived connector cohort is Byzantine for the whole run with behaviours drawn from the adversary catalogue, no recovery")
	t.AddNote("damage columns: faulted = payments whose path crossed a Byzantine connector; drop-fault/drop-cap split queue expiries by cause; peak-held = max liquidity simultaneously locked by Byzantine owners")
	t.AddNote("every cell audits conservation (ledger audit + refund-cascade accounting) besides the per-run property checkers")
	t.Check(safetyTotal == 0, "zero owed safety failures in every cell (Theorems 1 and 3 in aggregate)")
	t.Check(quiet, "the honest baselines show no Byzantine activity (nothing faulted, nothing held)")
	t.Check(cohorts, "every attacked cell has a Byzantine connector")
	t.Check(growing, "byz-conn strictly grows along the attacker sweep at each load (distinct cohorts)")
	t.Check(damaged, "at 25%% attackers open-load payments cross Byzantine connectors and success falls below the honest baseline")
	return t
}
