package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/scenariogen"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timelock"
	"repro/internal/weaklive"
)

// RunE1 regenerates the Figure-1/2 artefact: the happy-path protocol flow on
// chains of increasing length, executed by both the process engine and the
// ANTA (Figure-2 automata) engine, which must agree.
func RunE1(cfg Config) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "happy-path flow per chain length (process vs ANTA engine)",
		Columns: []string{"n", "engine", "bob paid", "all terminated", "locks", "releases", "messages", "duration"},
	}
	maxChain := cmp.Or(cfg.MaxChain, 4)
	// One world per engine: the two results are compared after both ran.
	worlds := []*core.World{core.NewWorld(), core.NewWorld()}
	paid, perEscrow, agree := true, true, true
	for n := 1; n <= maxChain; n++ {
		s := core.NewScenario(n, 1)
		var counts [2][3]int // locks, releases, messages
		for i, p := range []core.Protocol{timelock.New(), timelock.NewANTA()} {
			res, err := p.RunIn(worlds[i], s)
			if err != nil {
				t.RunError("n=%d %s: %v", n, p.Name(), err)
				continue
			}
			locks, releases := res.Book.CountOps(ledger.OpLock), res.Book.CountOps(ledger.OpRelease)
			paid = paid && res.BobPaid && res.AllTerminated
			perEscrow = perEscrow && locks == n && releases == n
			counts[i] = [3]int{locks, releases, int(res.NetStats.Sent)}
			t.AddRow(fmt.Sprint(n), p.Name(), yesNo(res.BobPaid), yesNo(res.AllTerminated),
				fmt.Sprint(locks), fmt.Sprint(releases), fmt.Sprint(res.NetStats.Sent), res.Duration.String())
		}
		agree = agree && counts[0] == counts[1]
	}
	t.AddNote("paper artefact: Figure 1 (topology) and Figure 2 (automata)")
	t.Check(paid, "Bob is paid and every customer terminates at every n")
	t.Check(perEscrow, "one lock and one release per escrow")
	t.Check(agree, "the process and ANTA engines agree on locks, releases and messages")
	return t
}

// RunE2 is the Theorem-1 experiment: under synchrony, every Definition-1
// property holds across a sweep of Byzantine single- and pair-fault
// assignments.
func RunE2(cfg Config) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Definition-1 property verdicts under synchrony (time-bounded variant)",
		Columns: []string{"property", "applicable runs", "violations"},
	}
	chains := []int{2, 4}
	if cfg.MaxChain < 4 {
		chains = []int{2}
	}
	seeds := len(cfg.seeds())
	summary := check.NewSummary()
	for _, n := range chains {
		topo := core.NewTopology(n)
		assignments := append(adversary.SingleFaultAssignments(topo), adversary.PairFaultAssignments(topo)...)
		for _, err := range scenariogen.AuditTheorem1(summary, n, assignments, seeds) {
			t.RunError("run error: %v", err)
		}
	}
	for _, p := range core.AllProperties() {
		if summary.Applicable[p] == 0 && summary.Violations[p] == 0 {
			continue
		}
		t.AddRow(string(p), fmt.Sprint(summary.Applicable[p]), fmt.Sprint(summary.Violations[p]))
	}
	t.AddNote("runs: %d (chain lengths %v, every single- and pair-fault Byzantine assignment, %d seeds each)", summary.Total, chains, seeds)
	t.AddNote("paper claim (Theorem 1): a time-bounded cross-chain payment protocol exists under synchrony")
	if !summary.Clean() {
		t.AddNote("VIOLATIONS FOUND: %v — first example: %v", summary.ViolatedProperties(), summary.FailureExamples)
	}
	t.Check(summary.Clean(), "zero violations of every Definition-1 property")
	return t
}

// RunE3 measures termination time against the a-priori bound of Theorem 1 as
// the chain grows.
func RunE3(cfg Config) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "measured termination time vs a-priori bound (happy path)",
		Columns: []string{"n", "bound", "mean termination", "max termination", "max/bound"},
	}
	maxChain := cmp.Or(cfg.MaxChain, 4)
	p := timelock.New()
	w := core.NewWorld()
	within := true
	var bounds []sim.Time
	for n := 1; n <= maxChain; n++ {
		bound := p.ParamsFor(core.NewScenario(n, 1)).Bound
		sample := stats.New()
		for _, seed := range cfg.seeds() {
			res, err := p.RunIn(w, core.NewScenario(n, seed).Muted())
			if err != nil {
				t.RunError("n=%d: %v", n, err)
				continue
			}
			sample.Add(res.Duration.Millis())
		}
		ratio := 0.0
		if bound > 0 {
			ratio = sample.Max() / bound.Millis()
		}
		within = within && ratio < 1
		bounds = append(bounds, bound)
		t.AddRow(fmt.Sprint(n), bound.String(),
			fmt.Sprintf("%.1fms", sample.Mean()), fmt.Sprintf("%.1fms", sample.Max()), fmtF(ratio))
	}
	// Drift compounds the windows hop by hop: later steps are a little longer.
	linear := true
	for i := 1; i < len(bounds); i++ {
		got, want := bounds[i]-bounds[0], sim.Time(i)*(bounds[1]-bounds[0])
		linear = linear && want > 0 && 100*got >= 99*want && 100*got <= 101*want
	}
	t.AddNote("paper claim (Theorem 1): termination within an a-priori known period")
	t.Check(within, "max/bound < 1 for every n")
	t.Check(linear, "the bound is linear in n: each escrow adds the first step, within 1%%")
	return t
}

// RunE4 is the Theorem-2 experiment: the adversarial search over the
// timeout-protocol family under partial synchrony.
func RunE4(cfg Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "impossibility search: Definition-1 failures under partial synchrony",
		Columns: []string{"candidate", "attack", "violated properties", "bob paid", "duration"},
	}
	findings := scenariogen.SearchTheorem2(3, cfg.seeds())
	for _, f := range findings {
		props := make([]string, 0, len(f.Violated))
		for _, p := range f.Violated {
			props = append(props, string(p))
		}
		violated := strings.Join(props, ",")
		if violated == "" {
			violated = "(none)"
		}
		t.AddRow(f.Candidate, f.Attack, violated, yesNo(f.BobPaid), f.Duration.String())
	}
	// loses reports whether some attack makes the candidate violate p.
	loses := func(candidate string, p core.Property) bool {
		return slices.ContainsFunc(findings, func(f scenariogen.Finding) bool {
			return f.Candidate == candidate && slices.Contains(f.Violated, p)
		})
	}
	const infinite = "timelock-infinite"
	finiteLoseL := true
	for _, f := range findings {
		finiteLoseL = finiteLoseL && (f.Candidate == infinite || loses(f.Candidate, core.PropStrongLiveness))
	}
	failed := scenariogen.ControlUnderSynchrony(3, cfg.seeds())
	t.AddNote("paper claim (Theorem 2): no eventually terminating cross-chain payment protocol exists under partial synchrony")
	t.Check(scenariogen.VerifyTheorem2(findings) == nil, "every candidate is broken by some attack")
	t.Check(len(failed) == 0, "control: under synchrony no candidate violates Definition 1")
	t.Check(finiteLoseL, "every finite-timeout candidate loses L under some attack")
	t.Check(loses(infinite, core.PropTermination), "the infinite-timeout candidate loses T")
	return t
}

// e5Case is one row family of the Theorem-3 experiment.
type e5Case struct {
	name   string
	faults adversary.Assignment
	extra  func(s core.Scenario) core.Scenario
}

// RunE5 is the Theorem-3 experiment: Definition-2 properties of the
// weak-liveness protocol under partial synchrony, with and without Byzantine
// participants and notary faults below and above the one-third threshold.
func RunE5(cfg Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Definition-2 property verdicts under partial synchrony",
		Columns: []string{"manager", "case", "runs", "bob paid", "safety violations", "termination violations", "WL violations"},
	}
	n := 3
	gst := 500 * sim.Millisecond
	patience := 30 * sim.Second
	psNet := func() netsim.DelayModel {
		return netsim.PartialSynchrony{GST: gst, Delta: core.DefaultTiming().MaxMsgDelay, MaxPreGST: 400 * sim.Millisecond}
	}
	cases := []e5Case{
		{name: "all honest", faults: adversary.Assignment{}},
		{name: "silent connector", faults: adversary.Assignment{core.CustomerID(1): adversary.Silent}},
		{name: "silent escrow", faults: adversary.Assignment{core.EscrowID(1): adversary.Silent}},
		{name: "impatient connector", faults: adversary.Assignment{}, extra: func(s core.Scenario) core.Scenario {
			return s.SetPatience(core.CustomerID(2), 20*sim.Millisecond)
		}},
		{name: "1 silent notary (f<n/3)", faults: adversary.Assignment{core.NotaryID(0): adversary.Silent}},
		{name: "2 silent notaries (f>=n/3)", faults: adversary.Assignment{
			core.NotaryID(0): adversary.Silent, core.NotaryID(1): adversary.Silent,
		}},
	}
	managers := []struct {
		name     string
		protocol core.Protocol
	}{
		{"trusted", weaklive.New()},
		{"committee-4", weaklive.NewCommittee(4)},
	}
	w := core.NewWorld()
	safe, weak, honestPaid, belowPaid, stalled := true, true, true, false, false
	for _, mgr := range managers {
		for _, tc := range cases {
			if mgr.name == "trusted" && strings.Contains(tc.name, "notar") {
				continue // notary faults only exist for the committee manager
			}
			var paid stats.Counter
			safetyViol, termViol, wlViol := 0, 0, 0
			for _, seed := range cfg.seeds() {
				s := patient(core.NewScenario(n, seed).WithNetwork(psNet()).Muted(), patience)
				s = tc.faults.Apply(s)
				if tc.extra != nil {
					s = tc.extra(s)
				}
				res, err := mgr.protocol.RunIn(w, s)
				if err != nil {
					t.RunError("%s/%s: %v", mgr.name, tc.name, err)
					continue
				}
				paid.Observe(res.BobPaid)
				rep := check.Evaluate(res, check.Def2(patience))
				if !rep.SafetyOK() {
					safetyViol++
				}
				if !rep.Verdict(core.PropTermination).OK() {
					termViol++
				}
				if !rep.Verdict(core.PropWeakLiveness).OK() {
					wlViol++
				}
			}
			safe, weak = safe && safetyViol == 0, weak && wlViol == 0
			switch tc.name {
			case "all honest":
				honestPaid = honestPaid && paid.Hits == paid.Trials
			case "1 silent notary (f<n/3)":
				belowPaid = paid.Hits == paid.Trials
			case "2 silent notaries (f>=n/3)":
				stalled = paid.Hits == 0 && termViol == paid.Trials
			}
			t.AddRow(mgr.name, tc.name, fmt.Sprint(paid.Trials), paid.String(),
				fmt.Sprint(safetyViol), fmt.Sprint(termViol), fmt.Sprint(wlViol))
		}
	}
	t.AddNote("paper claim (Theorem 3): a protocol with weak liveness guarantees exists under partial synchrony with Byzantine failures, if less than one third of the notaries are unreliable")
	t.Check(safe, "zero safety violations in every row")
	t.Check(weak, "zero weak-liveness violations in every row")
	t.Check(honestPaid, "Bob is paid in every all-honest patient run")
	t.Check(belowPaid, "with 1 of 4 notaries silent (f < n/3) Bob is paid in every run")
	t.Check(stalled, "with 2 of 4 notaries silent (f >= n/3) Bob is never paid and no run terminates")
	return t
}
