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
	w := core.NewWorld()

	// Payments.
	proved, completed := true, true
	paymentProtocols := []core.Protocol{timelock.New(), weaklive.New()}
	for _, p := range paymentProtocols {
		var paid, proof stats.Counter
		msgs, dur := stats.New(), stats.New()
		for _, seed := range seeds {
			s := patient(core.NewScenario(n, seed).Muted(), 30*sim.Second)
			res, err := p.RunIn(w, s)
			if err != nil {
				t.RunError("%s: %v", p.Name(), err)
				continue
			}
			paid.Observe(res.BobPaid)
			alice := res.Outcome(res.Scenario.Topology.Alice())
			proof.Observe(alice.HoldsChi || alice.HoldsCommitCert)
			msgs.AddInt(int64(res.NetStats.Sent))
			dur.Add(res.Duration.Millis())
		}
		proved = proved && proof.Hits == proof.Trials
		t.AddRow(p.Name(), "payment", paid.String(), proof.String(), "n/a",
			fmtF(msgs.Mean()), fmt.Sprintf("%.1fms", dur.Mean()))
	}

	// Deals: the payment rendered as a deal matrix (a path, hence not
	// well-formed) executed by Herlihy et al.'s two commit protocols.
	topo := core.NewTopology(n)
	spec := core.NewPaymentSpec("e6", topo, 1000, 10)
	deal := deals.PaymentAsDeal(topo, spec)
	dealProtocols := []interface {
		Name() string
		RunIn(w *core.World, cfg deals.Config) (*deals.Result, error)
	}{deals.TimelockCommit{}, deals.CertifiedCommit{}}
	for _, dp := range dealProtocols {
		var done stats.Counter
		msgs, dur := stats.New(), stats.New()
		for _, seed := range seeds {
			res, err := dp.RunIn(w, deals.Config{
				Deal:          deal,
				Timing:        core.DefaultTiming(),
				Seed:          seed,
				PartyPatience: 30 * sim.Second,
				MuteTrace:     true,
			})
			if err != nil {
				t.RunError("%s: %v", dp.Name(), err)
				continue
			}
			done.Observe(res.Outcome.AllTransferred())
			msgs.AddInt(int64(res.Stats.Sent))
			dur.Add(res.Duration.Millis())
		}
		completed = completed && done.Hits == done.Trials
		t.AddRow(dp.Name(), "deal", done.String(), "no (no chi in the deal model)", yesNo(deal.WellFormed()),
			fmtF(msgs.Mean()), fmt.Sprintf("%.1fms", dur.Mean()))
	}
	t.AddNote("paper claim (Section 5): a cross-chain payment is not a special kind of cross-chain deal nor vice versa")
	t.AddNote("the deal model has no counterpart of Bob's certificate chi, so Alice never obtains proof of payment from a deal")
	t.Check(proved, "Alice obtains proof of payment in every payment run")
	t.Check(!deal.WellFormed(), "the payment-as-deal digraph is a path, hence not well-formed (outside Herlihy et al.'s correctness theorems)")
	t.Check(completed, "the deal protocols complete every transfer")
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
	w := core.NewWorld()
	honestPaid, whole, chi := true, true, true
	var withheldSettle [2]float64 // per protocol
	for i, p := range protocols {
		for _, sc := range scenarios {
			var paid, losses, proof stats.Counter
			msgs, dur := stats.New(), stats.New()
			for _, seed := range cfg.seeds() {
				res, err := p.RunIn(w, sc.faults.Apply(core.NewScenario(n, seed)).Muted())
				if err != nil {
					t.RunError("%s/%s: %v", p.Name(), sc.name, err)
					continue
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
			}
			whole = whole && losses.Hits == 0
			chi = chi && (i > 0 || proof.Hits == 0) // HTLC never hands Alice chi
			switch sc.name {
			case "all honest":
				honestPaid = honestPaid && paid.Hits == paid.Trials
				chi = chi && (i == 0 || proof.Hits == proof.Trials)
			case "Bob withholds":
				withheldSettle[i] = dur.Mean()
			}
			t.AddRow(p.Name(), sc.name, paid.String(), losses.String(), proof.String(),
				fmtF(msgs.Mean()), fmt.Sprintf("%.1fms", dur.Mean()))
		}
	}
	t.AddNote("paper positioning (Section 1): prior cross-chain payment protocols offer neither success guarantees nor a certificate of payment")
	t.Check(honestPaid, "both protocols pay Bob in every all-honest run")
	t.Check(whole, "both protocols keep honest customers whole in every row")
	t.Check(chi, "the time-bounded protocol hands Alice chi in every all-honest run, HTLC in none")
	t.Check(withheldSettle[0] > withheldSettle[1], "after a withholding Bob, HTLC settles later than the time-bounded protocol refunds")
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
	// A chain protocol sends a·n+b messages on the happy path; a committee, no such number (a = 0).
	protocols := []struct {
		core.Protocol
		a, b int
	}{{timelock.New(), 6, 0}, {weaklive.New(), 5, 1}, {weaklive.NewCommittee(4), 0, 0}, {htlc.New(), 5, 0}}
	w := core.NewWorld()
	linear, ops4n := true, true
	for _, p := range protocols {
		name := p.Name()
		for n := 1; n <= maxChain; n++ {
			msgs, ops, dur, events := stats.New(), stats.New(), stats.New(), stats.New()
			for _, seed := range cfg.seeds() {
				s := patient(core.NewScenario(n, seed).Muted(), 60*sim.Second)
				res, err := p.RunIn(w, s)
				if err != nil {
					t.RunError("%s n=%d: %v", name, n, err)
					continue
				}
				msgs.AddInt(int64(res.NetStats.Sent))
				ops.AddInt(int64(res.Book.TotalOps()))
				dur.Add(res.Duration.Millis())
				events.AddInt(int64(res.EventsFired))
			}
			linear = linear && (p.a == 0 || msgs.Mean() == float64(p.a*n+p.b))
			ops4n = ops4n && ops.Mean() == float64(4*n)
			t.AddRow(name, fmt.Sprint(n), fmtF(msgs.Mean()), fmtF(ops.Mean()),
				fmt.Sprintf("%.1fms", dur.Mean()), fmtF(events.Mean()))
		}
	}
	t.Check(linear, "messages are 6n for timelock, 5n+1 for weaklive-trusted and 5n for htlc")
	t.Check(ops4n, "every protocol makes 4n ledger operations")
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
	runs := max(5*cfg.Runs, 20)
	w := core.NewWorld()
	var paid [2]stats.Counter // drift-aware, naive
	var safety, termination [2]int
	for i, p := range []*timelock.Protocol{timelock.New(), timelock.NewNaive()} {
		for seed := int64(1); seed <= int64(runs); seed++ {
			s := core.NewScenario(n, seed).WithTiming(timing).WithNetwork(worstNet).Muted()
			s = s.SetFault(core.CustomerID(n), core.FaultSpec{DelayActions: 2 * timing.MaxProcessing})
			res, err := p.RunIn(w, s)
			if err != nil {
				t.RunError("%s: %v", p.Name(), err)
				continue
			}
			paid[i].Observe(res.BobPaid)
			rep := check.Evaluate(res, check.Def1Eventual())
			if !rep.SafetyOK() {
				safety[i]++
			}
			if v := rep.Verdict(core.PropTermination); !v.OK() {
				termination[i]++
			}
		}
		t.AddRow(p.Name(), fmt.Sprint(paid[i].Trials), paid[i].String(), fmt.Sprint(safety[i]), fmt.Sprint(termination[i]))
	}
	t.AddNote("Bob is configured with a legal-but-slow signing delay so the certificate reaches each escrow near the end of its window; drift then decides whether the windows still nest in real time")
	t.AddNote("where an upstream window closes while a downstream escrow has already paid out, an honest connector waits forever for money that never comes — the reason the paper fine-tunes the universal protocol for clock drift")
	t.Check(safety[0] == 0 && termination[0] == 0, "the drift-aware derivation keeps every guarantee")
	t.Check(paid[1].Hits < paid[0].Hits, "the naive derivation pays Bob in fewer runs (spurious refunds)")
	t.Check(termination[1] > 0, "the naive derivation strands an honest connector (a termination violation)")
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
	w := core.NewWorld()
	decides, stalls, consistent, growing := true, true, true, true
	prevMsgs := 0.0 // at no silent notary, for the previous size
	for _, size := range []int{1, 4, 7} {
		p := weaklive.NewCommittee(size)
		maxFaulty := (size - 1) / 3
		for faulty := 0; faulty <= maxFaulty+1 && faulty < size; faulty++ {
			var decided, paid stats.Counter
			ccViol := 0
			msgs := stats.New()
			for _, seed := range cfg.seeds() {
				s := patient(core.NewScenario(2, seed).WithNetwork(gstNet()).Muted(), 2*sim.Second)
				for j := 0; j < faulty; j++ {
					s = s.SetFault(core.NotaryID(j), core.FaultSpec{Silent: true})
				}
				res, err := p.RunIn(w, s)
				if err != nil {
					t.RunError("size=%d faulty=%d: %v", size, faulty, err)
					continue
				}
				decided.Observe(res.CommitIssued || res.AbortIssued)
				paid.Observe(res.BobPaid)
				if res.CommitIssued && res.AbortIssued {
					ccViol++
				}
				msgs.AddInt(int64(res.NetStats.Sent))
			}
			if faulty <= maxFaulty {
				decides = decides && decided.Hits == decided.Trials && paid.Hits == paid.Trials
			} else {
				stalls = stalls && decided.Hits == 0
			}
			if faulty == 0 {
				growing, prevMsgs = growing && msgs.Mean() > prevMsgs, msgs.Mean()
			}
			consistent = consistent && ccViol == 0
			t.AddRow(fmt.Sprint(size), fmt.Sprint(faulty), decided.String(), paid.String(),
				fmt.Sprint(ccViol), fmtF(msgs.Mean()))
		}
	}
	t.Check(decides, "with at most floor((size-1)/3) silent notaries the committee decides and Bob is paid in every run")
	t.Check(stalls, "one silent notary beyond that threshold stalls every decision (liveness lost)")
	t.Check(consistent, "certificate consistency never breaks")
	t.Check(growing, "message cost grows with committee size")
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
	p := weaklive.New()
	w := core.NewWorld()
	safe, decided, monotone := true, true, true
	var lastPaid stats.Counter
	for _, patience := range patienceLevels {
		var paid, aborted stats.Counter
		safety := 0
		for _, seed := range cfg.seeds() {
			s := patient(core.NewScenario(3, seed).WithNetwork(net()).Muted(), patience)
			res, err := p.RunIn(w, s)
			if err != nil {
				t.RunError("patience=%v: %v", patience, err)
				continue
			}
			paid.Observe(res.BobPaid)
			aborted.Observe(res.AbortIssued)
			if rep := check.Evaluate(res, check.Def2(patience)); !rep.SafetyOK() {
				safety++
			}
		}
		safe = safe && safety == 0
		decided = decided && paid.Hits+aborted.Hits == paid.Trials
		monotone, lastPaid = monotone && paid.Rate() >= lastPaid.Rate(), paid
		t.AddRow(patience.String(), paid.String(), aborted.String(), fmt.Sprint(safety))
	}
	t.AddNote("the paper's weak liveness: Bob is paid when the customers wait long enough (patience comfortably above GST plus a few message delays)")
	t.Check(safe, "zero safety violations at every patience level")
	t.Check(decided, "every run either pays Bob or aborts")
	t.Check(monotone && lastPaid.Hits == lastPaid.Trials, "Bob's paid share never falls as patience grows, and the most patient customers pay him in every run")
	return t
}
