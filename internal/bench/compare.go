package bench

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/deals"
	"repro/internal/htlc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timelock"
	"repro/internal/weaklive"
)

// RunE6 is the Section-5 experiment: the same linear transfer executed as a
// cross-chain payment (this paper's protocols) and as a cross-chain deal
// (Herlihy et al.'s protocols), comparing the guarantees each formulation
// can even express and the cost of achieving them.
func RunE6(cfg Config) *Table {
	t := &Table{
		ID:    "E6",
		Title: "cross-chain payment vs cross-chain deal on the same 3-hop transfer",
		Columns: []string{
			"protocol", "model", "completed", "proof for Alice", "well-formed deal", "messages", "duration",
		},
	}
	n := 3
	seeds := cfg.seeds()

	// Payments.
	paymentProtocols := []core.Protocol{timelock.New(), weaklive.New()}
	for _, p := range paymentProtocols {
		var paid, proof stats.Counter
		msgs, dur := stats.New(), stats.New()
		var jobs []runJob
		for _, seed := range seeds {
			s := core.NewScenario(n, seed).Muted()
			for _, id := range s.Topology.Customers() {
				s = s.SetPatience(id, 30*sim.Second)
			}
			jobs = append(jobs, runJob{protocol: p, scenario: s})
		}
		runParallel(cfg, jobs, func(idx int, res *core.RunResult, err error) {
			if err != nil {
				t.AddNote("%s: %v", p.Name(), err)
				return
			}
			paid.Observe(res.BobPaid)
			alice := res.Outcome(res.Scenario.Topology.Alice())
			proof.Observe(alice.HoldsChi || alice.HoldsCommitCert)
			msgs.AddInt(int64(res.NetStats.Sent))
			dur.Add(res.Duration.Millis())
		})
		t.AddRow(p.Name(), "payment", paid.String(), proof.String(), "n/a",
			fmtF(msgs.Mean()), fmt.Sprintf("%.1fms", dur.Mean()))
	}

	// Deals: the payment rendered as a deal matrix (a path, hence not
	// well-formed) executed by Herlihy et al.'s two commit protocols.
	topo := core.NewTopology(n)
	spec := core.NewPaymentSpec("e6", topo, 1000, 10)
	deal := deals.PaymentAsDeal(topo, spec)
	dealProtocols := []struct {
		name string
		run  func(cfg deals.Config) (*deals.Result, error)
	}{
		{deals.TimelockCommit{}.Name(), deals.TimelockCommit{}.Run},
		{deals.CertifiedCommit{}.Name(), deals.CertifiedCommit{}.Run},
	}
	for _, dp := range dealProtocols {
		var done stats.Counter
		msgs, dur := stats.New(), stats.New()
		for _, seed := range seeds {
			res, err := dp.run(deals.Config{
				Deal:          deal,
				Timing:        core.DefaultTiming(),
				Seed:          seed,
				PartyPatience: 30 * sim.Second,
				MuteTrace:     true,
			})
			if err != nil {
				t.AddNote("%s: %v", dp.name, err)
				continue
			}
			done.Observe(res.Outcome.AllTransferred())
			msgs.AddInt(int64(res.Stats.Sent))
			dur.Add(res.Duration.Millis())
		}
		t.AddRow(dp.name, "deal", done.String(), "no (no chi in the deal model)", yesNo(deal.WellFormed()),
			fmtF(msgs.Mean()), fmt.Sprintf("%.1fms", dur.Mean()))
	}
	t.AddNote("paper claim (Section 5): a cross-chain payment is not a special kind of cross-chain deal nor vice versa")
	t.AddNote("expected shape: the payment-as-deal digraph is a path, hence not well-formed (outside Herlihy et al.'s correctness theorems); the deal model completes the transfers but has no counterpart of Bob's certificate chi, so Alice never obtains proof of payment")
	return t
}

// RunE7 compares the hashed-timelock baseline against the Figure-2 protocol
// across the scenarios the paper's introduction motivates.
func RunE7(cfg Config) *Table {
	t := &Table{
		ID:    "E7",
		Title: "HTLC baseline vs time-bounded protocol (n = 3)",
		Columns: []string{
			"protocol", "scenario", "bob paid", "honest losses", "proof for Alice", "messages", "settle time",
		},
	}
	n := 3
	scenarios := []struct {
		name   string
		faults adversary.Assignment
	}{
		{"all honest", adversary.Assignment{}},
		{"Bob withholds", adversary.Assignment{core.CustomerID(n): adversary.Withhold}},
		{"connector refuses", adversary.Assignment{core.CustomerID(1): adversary.RefusePayment}},
		{"connector crashes", adversary.Assignment{core.CustomerID(2): adversary.Crash}},
	}
	protocols := []core.Protocol{htlc.New(), timelock.New()}
	for _, p := range protocols {
		for _, sc := range scenarios {
			var paid, losses, proof stats.Counter
			msgs, dur := stats.New(), stats.New()
			var jobs []runJob
			for _, seed := range cfg.seeds() {
				jobs = append(jobs, runJob{protocol: p, scenario: sc.faults.Apply(core.NewScenario(n, seed)).Muted()})
			}
			runParallel(cfg, jobs, func(idx int, res *core.RunResult, err error) {
				if err != nil {
					t.AddNote("%s/%s: %v", p.Name(), sc.name, err)
					return
				}
				paid.Observe(res.BobPaid)
				lost := false
				for _, id := range res.HonestCustomers() {
					if res.Outcome(id).NetWealthChange() < 0 && !res.BobPaid {
						lost = true
					}
				}
				losses.Observe(lost)
				alice := res.Outcome(res.Scenario.Topology.Alice())
				proof.Observe(alice.HoldsChi)
				msgs.AddInt(int64(res.NetStats.Sent))
				dur.Add(res.Duration.Millis())
			})
			t.AddRow(p.Name(), sc.name, paid.String(), losses.String(), proof.String(),
				fmtF(msgs.Mean()), fmt.Sprintf("%.1fms", dur.Mean()))
		}
	}
	t.AddNote("paper positioning (Section 1): prior cross-chain payment protocols offer neither success guarantees nor a certificate of payment")
	t.AddNote("expected shape: both protocols keep honest parties whole when a participant misbehaves, but only the time-bounded protocol hands Alice the certificate chi on success, and the HTLC settle time after a withholding Bob is dominated by the full (chain-length-dependent) timelock, several times the Figure-2 refund time")
	return t
}

// RunE8 reports the protocols' cost scaling with chain length.
func RunE8(cfg Config) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "cost scaling with chain length (happy path, all honest)",
		Columns: []string{"protocol", "n", "messages", "ledger ops", "duration", "events"},
	}
	maxChain := cfg.MaxChain
	if maxChain < 2 {
		maxChain = 4
	}
	protocols := []func() core.Protocol{
		func() core.Protocol { return timelock.New() },
		func() core.Protocol { return weaklive.New() },
		func() core.Protocol { return weaklive.NewCommittee(4) },
		func() core.Protocol { return htlc.New() },
	}
	for _, build := range protocols {
		name := build().Name()
		for n := 1; n <= maxChain; n++ {
			msgs, ops, dur, events := stats.New(), stats.New(), stats.New(), stats.New()
			var jobs []runJob
			for _, seed := range cfg.seeds() {
				s := core.NewScenario(n, seed).Muted()
				for _, id := range s.Topology.Customers() {
					s = s.SetPatience(id, 60*sim.Second)
				}
				jobs = append(jobs, runJob{protocol: build(), scenario: s})
			}
			runParallel(cfg, jobs, func(idx int, res *core.RunResult, err error) {
				if err != nil {
					t.AddNote("%s n=%d: %v", name, n, err)
					return
				}
				msgs.AddInt(int64(res.NetStats.Sent))
				ops.AddInt(int64(res.Book.TotalOps()))
				dur.Add(res.Duration.Millis())
				events.AddInt(int64(res.EventsFired))
			})
			t.AddRow(name, fmt.Sprint(n), fmtF(msgs.Mean()), fmtF(ops.Mean()),
				fmt.Sprintf("%.1fms", dur.Mean()), fmtF(events.Mean()))
		}
	}
	t.AddNote("expected shape: message count linear in n for the timelock and HTLC chains; the committee manager adds a constant (committee-size-dependent) consensus overhead per payment; settle time grows linearly in n for all chain protocols")
	return t
}

// RunA1 is the clock-drift ablation: the paper's fine-tuned timeout
// derivation versus the naive (plain Interledger universal) derivation under
// aggressive clock drift and worst-case message delays.
func RunA1(cfg Config) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "clock-drift fine-tuning ablation (n = 5, drift up to 15%, worst-case delays)",
		Columns: []string{"derivation", "runs", "bob paid", "safety violations", "termination violations"},
	}
	n := 5
	timing := core.DefaultTiming()
	timing.Clock.MaxRho = 0.15
	// Worst-case synchronous network: every message takes exactly Delta, and
	// Bob takes his time signing — legal behaviour that pushes the
	// certificate to the edge of every window.
	worstNet := netsim.Synchronous{Min: timing.MaxMsgDelay, Max: timing.MaxMsgDelay}
	runs := cfg.Runs * 5
	if runs < 20 {
		runs = 20
	}
	for _, p := range []*timelock.Protocol{timelock.New(), timelock.NewNaive()} {
		var paid stats.Counter
		safety, termination := 0, 0
		var jobs []runJob
		for seed := int64(1); seed <= int64(runs); seed++ {
			s := core.NewScenario(n, seed).WithTiming(timing).WithNetwork(worstNet).Muted()
			s = s.SetFault(core.CustomerID(n), core.FaultSpec{DelayActions: 2 * timing.MaxProcessing})
			jobs = append(jobs, runJob{protocol: p, scenario: s})
		}
		runParallel(cfg, jobs, func(idx int, res *core.RunResult, err error) {
			if err != nil {
				t.AddNote("%s: %v", p.Name(), err)
				return
			}
			paid.Observe(res.BobPaid)
			rep := check.Evaluate(res, check.Def1Eventual())
			if !rep.SafetyOK() {
				safety++
			}
			if v := rep.Verdict(core.PropTermination); !v.OK() {
				termination++
			}
		})
		t.AddRow(p.Name(), fmt.Sprint(paid.Trials), paid.String(), fmt.Sprint(safety), fmt.Sprint(termination))
	}
	t.AddNote("Bob is configured with a legal-but-slow signing delay so the certificate reaches each escrow near the end of its window; drift then decides whether the windows still nest in real time")
	t.AddNote("expected shape: the drift-aware derivation keeps every guarantee and pays Bob in (almost) every run; the naive derivation loses roughly half the payments to spurious refunds, and in the runs where an upstream window closes while a downstream escrow has already paid out, an honest connector is left waiting forever for money that will never come (a termination violation, and a wealth loss the moment she walks away) — the reason the paper fine-tunes the universal protocol for clock drift")
	return t
}

// RunA2 is the notary-committee ablation: committee size and fault threshold.
func RunA2(cfg Config) *Table {
	t := &Table{
		ID:      "A2",
		Title:   "notary committee size vs silent notaries (n = 2 escrows, partial synchrony)",
		Columns: []string{"committee size", "silent notaries", "decided", "bob paid", "CC violations", "messages"},
	}
	gstNet := func() netsim.DelayModel {
		return netsim.PartialSynchrony{GST: 200 * sim.Millisecond, Delta: core.DefaultTiming().MaxMsgDelay, MaxPreGST: 200 * sim.Millisecond}
	}
	for _, size := range []int{1, 4, 7} {
		maxFaulty := (size - 1) / 3
		for faulty := 0; faulty <= maxFaulty+1 && faulty < size; faulty++ {
			var decided, paid stats.Counter
			ccViol := 0
			msgs := stats.New()
			var jobs []runJob
			for _, seed := range cfg.seeds() {
				s := core.NewScenario(2, seed).WithNetwork(gstNet()).Muted()
				for _, id := range s.Topology.Customers() {
					s = s.SetPatience(id, 2*sim.Second)
				}
				for j := 0; j < faulty; j++ {
					s = s.SetFault(core.NotaryID(j), core.FaultSpec{Silent: true})
				}
				jobs = append(jobs, runJob{protocol: weaklive.NewCommittee(size), scenario: s})
			}
			runParallel(cfg, jobs, func(idx int, res *core.RunResult, err error) {
				if err != nil {
					t.AddNote("size=%d faulty=%d: %v", size, faulty, err)
					return
				}
				decided.Observe(res.CommitIssued || res.AbortIssued)
				paid.Observe(res.BobPaid)
				if res.CommitIssued && res.AbortIssued {
					ccViol++
				}
				msgs.AddInt(int64(res.NetStats.Sent))
			})
			t.AddRow(fmt.Sprint(size), fmt.Sprint(faulty), decided.String(), paid.String(),
				fmt.Sprint(ccViol), fmtF(msgs.Mean()))
		}
	}
	t.AddNote("expected shape: with at most floor((size-1)/3) silent notaries the committee always decides and Bob is paid; one notary beyond the threshold stalls the decision (liveness lost) yet certificate consistency never breaks; message cost grows quadratically with committee size")
	return t
}

// RunA3 is the patience-sensitivity ablation of the weak-liveness protocol.
func RunA3(cfg Config) *Table {
	t := &Table{
		ID:      "A3",
		Title:   "patience sensitivity under partial synchrony (n = 3, GST = 1s)",
		Columns: []string{"patience", "bob paid", "aborted runs", "safety violations"},
	}
	gst := 1 * sim.Second
	net := func() netsim.DelayModel {
		return netsim.PartialSynchrony{GST: gst, Delta: core.DefaultTiming().MaxMsgDelay, MaxPreGST: 800 * sim.Millisecond}
	}
	patienceLevels := []sim.Time{
		50 * sim.Millisecond, 200 * sim.Millisecond, 500 * sim.Millisecond,
		2 * sim.Second, 10 * sim.Second,
	}
	for _, patience := range patienceLevels {
		var paid, aborted stats.Counter
		safety := 0
		var jobs []runJob
		for _, seed := range cfg.seeds() {
			s := core.NewScenario(3, seed).WithNetwork(net()).Muted()
			for _, id := range s.Topology.Customers() {
				s = s.SetPatience(id, patience)
			}
			jobs = append(jobs, runJob{protocol: weaklive.New(), scenario: s})
		}
		runParallel(cfg, jobs, func(idx int, res *core.RunResult, err error) {
			if err != nil {
				t.AddNote("patience=%v: %v", patience, err)
				return
			}
			paid.Observe(res.BobPaid)
			aborted.Observe(res.AbortIssued)
			if rep := check.Evaluate(res, check.Def2(patience)); !rep.SafetyOK() {
				safety++
			}
		})
		t.AddRow(patience.String(), paid.String(), aborted.String(), fmt.Sprint(safety))
	}
	t.AddNote("expected shape: the paper's weak liveness — Bob is paid exactly when the customers wait long enough (patience comfortably above GST plus a few message delays); impatient customers abort instead, and safety holds at every patience level")
	return t
}
