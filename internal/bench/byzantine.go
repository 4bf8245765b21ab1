package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// byzLoad is one load regime of experiment E11.
type byzLoad struct {
	name  string
	build func(n, payments int) traffic.Workload
}

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
	// Enough connectors that the swept fractions compile to distinct
	// Byzantine cohorts (8+ connectors: 0.05 -> 1, 0.1 -> 1, 0.25 -> 2).
	n := cfg.MaxChain
	if n < 9 {
		n = 9
	}
	payments := trafficPayments(cfg)
	fractions := []float64{0, 0.05, 0.1, 0.25}
	mixed := []traffic.ProtocolShare{
		{Name: "timelock", Weight: 0.4},
		{Name: "weaklive", Weight: 0.3},
		{Name: "htlc", Weight: 0.3},
	}
	loads := []byzLoad{
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
	for _, load := range loads {
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
					t.AddNote("%s attacker=%.0f%%: %v", load.name, 100*frac, o.err)
					continue
				}
				if o.res.AuditErr != nil {
					t.AddNote("%s attacker=%.0f%%: AUDIT FAILED: %v", load.name, 100*frac, o.res.AuditErr)
					continue
				}
				if o.res.CascadeErr != nil {
					t.AddNote("%s attacker=%.0f%%: CASCADE FAILED: %v", load.name, 100*frac, o.res.CascadeErr)
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
			safetyTotal += safety
			if frac == 0 {
				baseline[load.name] = success.Mean()
			}
			t.AddRow(load.name, fmtPct(frac), fmt.Sprint(byzConn),
				fmtPct(success.Mean()), fmtPct(faulted.Mean()),
				fmtPct(dropF.Mean()), fmtPct(dropC.Mean()),
				fmtF(settled.Mean()), fmtF(p95.Mean()), fmtF(held.Mean()),
				fmt.Sprint(safety))
			if frac > 0 {
				t.AddNote("%s attacker=%s: success delta vs honest baseline %+.1f points",
					load.name, fmtPct(frac), 100*(success.Mean()-baseline[load.name]))
			}
		}
	}
	if safetyTotal != 0 {
		t.AddNote("SAFETY ORACLE VIOLATED: %d owed safety-property failures across the sweep (Theorems 1/3 forbid any)", safetyTotal)
	} else {
		t.AddNote("aggregate safety oracle: zero owed safety-property failures at every attacker fraction and load (Theorems 1/3 in aggregate)")
	}
	t.AddNote("fault plan: seed-derived connector cohort is Byzantine for the whole run with behaviours drawn from the adversary catalogue, no recovery")
	t.AddNote("damage columns: faulted = payments whose path crossed a Byzantine connector; drop-fault/drop-cap split queue expiries by cause; peak-held = max liquidity simultaneously locked by Byzantine owners")
	t.AddNote("every cell audits conservation (ledger audit + refund-cascade accounting) besides the per-run property checkers")
	return t
}
