package scenariogen

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/deals"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/timelock"
)

// reuseCase is one run of the equivalence test: run executes it on w and
// renders everything it produced, at once — on a reused world the result is
// only valid until the next reset.
type reuseCase struct {
	name string
	run  func(w *core.World) (string, error)
}

// renderRun renders everything a payment run produced — outcome, every
// customer and escrow, the network counters, each ledger's accounts, locks
// and operation log, the whole trace and the property verdicts — so that two
// runs compare byte for byte.
func renderRun(res *core.RunResult, opts check.Options) string {
	var b strings.Builder
	topo := res.Scenario.Topology
	fmt.Fprintf(&b, "%s paid=%v commit=%v abort=%v dur=%v allTerm=%v events=%d err=%v net=%+v\n",
		res.Protocol, res.BobPaid, res.CommitIssued, res.AbortIssued, res.Duration, res.AllTerminated,
		res.EventsFired, res.Err, res.NetStats)
	fmt.Fprintf(&b, "%d customers, %d escrows\n", len(res.Customers), len(res.Escrows))
	for _, id := range topo.Customers() {
		fmt.Fprintf(&b, "%+v\n", res.Customers[id])
	}
	for _, id := range topo.Escrows() {
		fmt.Fprintf(&b, "%+v\n", res.Escrows[id])
	}
	renderBook(&b, res.Book)
	b.WriteString(res.Trace.String())
	b.WriteString(check.Evaluate(res, opts).String())
	return b.String()
}

// renderDeal is renderRun for a deal run: the result, which arcs moved, the
// ledgers and the whole trace.
func renderDeal(res *deals.Result) string {
	var b strings.Builder
	o := res.Outcome
	fmt.Fprintf(&b, "%s dur=%v net=%+v forever=%v safety=%v termination=%v\n",
		res.Protocol, res.Duration, res.Stats, o.EscrowedForever, o.SafetyHolds(), o.TerminationHolds())
	for _, arc := range o.Deal.Arcs() {
		fmt.Fprintf(&b, "%+v transferred=%v\n", arc, o.Transferred[arc])
	}
	for _, p := range o.Deal.Parties {
		fmt.Fprintf(&b, "%s compliant=%v\n", p, o.Compliant[p])
	}
	renderBook(&b, res.Book)
	b.WriteString(res.Trace.String())
	return b.String()
}

func renderBook(b *strings.Builder, book *ledger.Book) {
	for _, name := range book.Names() {
		led := book.MustGet(name)
		fmt.Fprintf(b, "%v compact=%v ops=%d\n", led, led.Compact(), led.OpCount())
		for _, owner := range led.Accounts() {
			fmt.Fprintf(b, "  %s=%d\n", owner, led.Balance(owner))
		}
		for _, lk := range led.Locks() {
			fmt.Fprintf(b, "  %+v\n", *lk)
		}
		for _, op := range led.Ops() {
			fmt.Fprintf(b, "  %+v\n", op)
		}
	}
}

// reuseCases builds the test's population: the specs among the first seeds
// of every family that runs on a world (the three timelock renderings, htlc,
// weaklive with a trusted manager and with a committee, and the two deal
// protocols, which share only a world's substrate; generated faults include
// crashes, silence, withholding, theft and impatience), each once traced and
// once muted, on alternating crypto backends — plus, woven in every few
// cases, runs built to leave a world in a bad state: cut off by MaxEvents
// with events, messages and timers still pending, a mid-run crash, a
// withholding Bob, a manager outage. Then comes, per family, the same spec on
// a chain of two and on a chain of six; pairs holds those cases' indices,
// short chain first. Last come the runs that leave the standing transaction
// manager in a bad state, each followed by one that would show it (see
// managerCases); the committees of different sizes among them are pairs too.
func reuseCases(t *testing.T, seeds int) (cases []reuseCase, pairs [][2]int) {
	t.Helper()
	add := func(name string, p core.Protocol, s core.Scenario, opts check.Options) {
		for _, muted := range []bool{false, true} {
			s := s
			s.MuteTrace = muted
			cases = append(cases, reuseCase{name: fmt.Sprintf("%s muted=%v", name, muted), run: func(w *core.World) (string, error) {
				res, err := p.RunIn(w, s)
				if err != nil {
					return "", err
				}
				return renderRun(res, opts), nil
			}})
		}
	}
	// addDealRun adds the configuration's run under one of the two deal
	// protocols, traced and muted, and returns the index of the first.
	addDealRun := func(name string, cfg deals.Config, certified bool) int {
		run := deals.TimelockCommit{}.RunIn
		if certified {
			run = deals.CertifiedCommit{}.RunIn
		}
		first := len(cases)
		for _, muted := range []bool{false, true} {
			cfg := cfg
			cfg.MuteTrace = muted
			cases = append(cases, reuseCase{name: fmt.Sprintf("%s muted=%v", name, muted), run: func(w *core.World) (string, error) {
				res, err := run(w, cfg)
				if err != nil {
					return "", err
				}
				return renderDeal(res), nil
			}})
		}
		return first
	}
	addDeal := func(name string, sp Spec) {
		cfg, err := sp.DealConfig()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addDealRun(name, cfg, sp.Family == FamDealCertified)
	}
	// addSpec adds sp's runs — every rendering of a payment family, the one
	// protocol of a deal family — and, when disturbed, the runs built to
	// leave a world in a bad state.
	addSpec := func(name string, sp Spec, disturbed bool) {
		if sp.isDeal() {
			addDeal(fmt.Sprintf("%s %s", name, sp.Family), sp)
			return
		}
		s, err := sp.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protos, err := sp.Protocols()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := sp.checkOptions(sp.Class(), protos[0], s)
		for _, p := range protos {
			add(fmt.Sprintf("%s %s", name, p.Name()), p, s, opts)
			if !disturbed {
				continue
			}
			cut := s
			cut.MaxEvents = uint64(3 + sp.Seed%11)
			add(fmt.Sprintf("%s %s cut at %d events", name, p.Name(), cut.MaxEvents), p, cut, opts)
			add(fmt.Sprintf("%s %s c1 crashes", name, p.Name()), p,
				s.SetFault(core.CustomerID(1), adversary.Spec(adversary.Crash, s.Timing)), opts)
			add(fmt.Sprintf("%s %s bob withholds", name, p.Name()), p,
				s.SetFault(s.Topology.Bob(), adversary.Spec(adversary.Withhold, s.Timing)), opts)
			if sp.isWeaklive() {
				add(fmt.Sprintf("%s %s manager out", name, p.Name()), p,
					s.SetFault(core.ManagerID, adversary.Spec(adversary.Silent, s.Timing)).
						SetFault(core.NotaryID(1), adversary.Spec(adversary.CrashAtStart, s.Timing)), opts)
			}
		}
	}
	families := map[Family]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sp := Generate(seed)
		if sp.Family == FamTraffic {
			continue
		}
		sp.Crypto = []string{"hmac", "ed25519"}[seed%2]
		families[sp.Family]++
		addSpec(fmt.Sprintf("seed %d", seed), sp, seed%5 == 0)
	}
	for k, f := range AllFamilies() {
		if f == FamTraffic {
			continue
		}
		if families[f] == 0 {
			t.Fatalf("no %s spec among the first %d seeds", f, seeds)
		}
		sp := baseSpec(f)
		sp.Crypto = []string{"hmac", "ed25519"}[k%2]
		short := len(cases)
		sp.N = 2
		addSpec("chain of 2", sp, false)
		long := len(cases)
		sp.N = 6
		addSpec("chain of 6", sp, false)
		for i := 0; short+i < long; i++ {
			pairs = append(pairs, [2]int{short + i, long + i})
		}
	}

	// addRun adds sp's primary protocol, cut off after maxEvents events if
	// that is not 0, and returns the index of its first case.
	addRun := func(name string, sp Spec, maxEvents uint64) int {
		s, err := sp.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protos, err := sp.Protocols()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.MaxEvents = maxEvents
		first := len(cases)
		add(fmt.Sprintf("%s %s", name, protos[0].Name()), protos[0], s, sp.checkOptions(sp.Class(), protos[0], s))
		return first
	}
	managerCases(t, addRun, &pairs)
	dealCases(t, addDealRun, &pairs)
	timelockCases(t, func(name string, p core.Protocol, s core.Scenario) int {
		first := len(cases)
		add(name, p, s, check.OptionsFor(p.Guarantee(), 0, 0))
		return first
	}, &pairs)
	return cases, pairs
}

// timelockCases adds the runs that leave Figure 2's processes, and the ANTA
// engine's adapters, in every state a run can leave them in — under both
// engines, each followed by an honest run on a chain of the same length,
// which a field their in-place reset forgot would show. Both disturbing runs
// are chains of four whose c1 crashes after paying. In the first e2 steals
// the escrow, and it is cut off once e2 has: e0 and e1 hold locks and wait
// with timeouts armed, e2 and e3 are settled and done, c0 to c3 have their
// guarantees, promises and payments out, c3 holds chi, and Bob is paid for
// the chi he signed. In the second c3 withholds chi, and it runs to its end:
// e0 to e2 time out and refund, and c0 and c2 are refunded. Last come an
// honest chain of eight and one of two (as a pair), so a result's outcome
// maps lose six customers and six escrows from one run to the next.
func timelockCases(t *testing.T, add func(name string, p core.Protocol, s core.Scenario) int, pairs *[][2]int) {
	t.Helper()
	honest := core.NewScenario(4, 3).WithCrypto("hmac")
	crashes := honest.SetFault(core.CustomerID(1), core.FaultSpec{Crash: true, CrashAt: 250 * sim.Millisecond})
	steals := crashes.SetFault(core.EscrowID(2), core.FaultSpec{StealEscrow: true})
	withholds := crashes.SetFault(core.CustomerID(3), core.FaultSpec{WithholdCertificate: true})
	for _, p := range []core.Protocol{timelock.New(), timelock.NewANTA()} {
		cut := steals
		for cut.MaxEvents = 10; ; cut.MaxEvents++ {
			res, err := p.Run(cut)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace.String()
			if res.EventsFired < cut.MaxEvents || strings.Contains(tr, "expired") || strings.Contains(tr, "now>=u+a_i") {
				t.Fatalf("%s: no cut lands after e2's theft and before the first timeout:\n%s", p.Name(), tr)
			}
			if strings.Contains(tr, "steal-escrow") {
				break
			}
		}
		res, err := p.Run(withholds)
		if err != nil {
			t.Fatal(err)
		}
		refunded := false
		for _, op := range res.Book.MustGet(core.EscrowID(2)).Ops() {
			refunded = refunded || op.Kind == ledger.OpRefund
		}
		if !refunded {
			t.Fatalf("%s: c3 withholding chi did not make e2 refund", p.Name())
		}
		add(fmt.Sprintf("%s chain of 4, e2 steals, c1 crashes, cut at %d events", p.Name(), cut.MaxEvents), p, cut)
		add(fmt.Sprintf("%s honest chain of 4 after the cut", p.Name()), p, honest)
		add(fmt.Sprintf("%s chain of 4, c3 withholds chi, c1 crashes", p.Name()), p, withholds)
		add(fmt.Sprintf("%s honest chain of 4 after it", p.Name()), p, honest)
	}
	long := add("timelock honest chain of 8", timelock.New(), core.NewScenario(8, 4).WithCrypto("hmac"))
	short := add("timelock honest chain of 2 after it", timelock.New(), core.NewScenario(2, 5).WithCrypto("hmac"))
	*pairs = append(*pairs, [2]int{short, long}, [2]int{short + 1, long + 1})
}

// dealCases adds the runs that disturb what internal/deals keeps on a world,
// in the order that would show it: a certified ring of five with a deviator
// and parties that never lose patience, which ends with locks pending and
// the certifier undecided; after it a ring of two and a ring of five under
// timelocks (as pairs, for the short-long-short order); a deal that is no
// ring, with two arcs of each asset type, under timelocks, then certified,
// then under timelocks again; and a certified deal whose parties lose
// patience before GST. Every run is added traced and muted.
func dealCases(t *testing.T, addDealRun func(name string, cfg deals.Config, certified bool) int, pairs *[][2]int) {
	t.Helper()
	ringOf := func(n int, family Family) deals.Config {
		sp := baseSpec(family)
		sp.N, sp.Crypto = n, "hmac"
		cfg, err := sp.DealConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	stuck := ringOf(5, FamDealCertified)
	stuck.NonCompliant, stuck.PartyPatience = map[string]bool{dealPartyID(3): true}, 0
	addDealRun("a certified ring of 5 that stays escrowed", stuck, true)
	short := addDealRun("a timelock ring of 2", ringOf(2, FamDealTimelock), false)
	long := addDealRun("a timelock ring of 5", ringOf(5, FamDealTimelock), false)
	*pairs = append(*pairs, [2]int{short, long}, [2]int{short + 1, long + 1})

	twoEach := ringOf(3, FamDealTimelock)
	twoEach.Deal = deals.NewDeal("z", "a", "m").
		Transfer("z", "a", deals.Asset{Type: "x", Amount: 4}).
		Transfer("a", "m", deals.Asset{Type: "x", Amount: 3}).
		Transfer("m", "z", deals.Asset{Type: "y", Amount: 2}).
		Transfer("z", "m", deals.Asset{Type: "y", Amount: 1})
	addDealRun("two arcs of each asset type under timelocks", twoEach, false)
	deviant := twoEach
	deviant.NonCompliant = map[string]bool{"a": true}
	addDealRun("the same, certified, with a deviator nobody outwaits", deviant, true)
	addDealRun("and under timelocks again", twoEach, false)
	impatient := ringOf(4, FamDealCertified)
	impatient.PartyPatience = 40 * sim.Millisecond
	impatient.Network = netsim.PartialSynchrony{GST: 2 * sim.Second, Delta: impatient.Timing.MaxMsgDelay, MaxPreGST: sim.Second}
	addDealRun("a certified ring of 4 that loses patience before GST", impatient, true)
}

// managerCases adds the runs that disturb what internal/notary keeps on a
// world, in the order that would show it: a committee of four after a
// committee of one and back (as pairs); a committee cut off in the middle of
// a view change — view timers armed, ballots in flight — and one that went
// through dozens of views, each followed by a run that decides in view 0; a
// crashed, a silent, an equivocating and a withholding notary, each followed
// by an honest committee; and the trusted manager after a committee. Every
// run is added traced and muted, so two cases apart.
func managerCases(t *testing.T, addRun func(name string, sp Spec, maxEvents uint64) int, pairs *[][2]int) {
	t.Helper()
	calm := baseSpec(FamCommittee)
	calm.Crypto = "hmac"
	for _, sizes := range [][2]int{{1, 4}, {4, 7}} {
		small, large := calm, calm
		small.CommitteeSize, large.CommitteeSize = sizes[0], sizes[1]
		a := addRun(fmt.Sprintf("committee of %d", sizes[0]), small, 0)
		b := addRun(fmt.Sprintf("committee of %d", sizes[1]), large, 0)
		*pairs = append(*pairs, [2]int{a, b}, [2]int{a + 1, b + 1})
	}

	// The shrunk seed 252644: a committee of four under partial synchrony that
	// walks through view after view (and ends in the CC violation it pins).
	r, err := LoadReplay(filepath.Join("testdata", "known-bugs", "weaklive-committee-cc-seed252644-shrunk.json"))
	if err != nil {
		t.Fatal(err)
	}
	stalls := r.Spec
	tr, err := Trace(stalls)
	if err != nil {
		t.Fatal(err)
	}
	if full := tr.String(); !strings.Contains(full, "view-change to 3") || !strings.Contains(full, "-cert(") {
		t.Fatalf("the stalling run no longer changes views and decides:\n%s", full)
	}
	// Cut it where some notary has changed views twice and nobody has decided.
	s, err := stalls.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	protos, err := stalls.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	cut := uint64(0)
	for events := uint64(40); cut == 0; events += 10 {
		s.MaxEvents = events
		res, err := protos[0].Run(s)
		if err != nil {
			t.Fatal(err)
		}
		switch seen := res.Trace.String(); {
		case strings.Contains(seen, "-cert("):
			t.Fatalf("no cut of the stalling run lands between its second view change and its decision")
		case strings.Contains(seen, "view-change to 2") && strings.Contains(seen, "prepare("):
			cut = events
		}
	}
	addRun("cut in a view change", stalls, cut)
	addRun("after the cut", calm, 0)
	addRun("through many views", stalls, 0)
	addRun("after many views", calm, 0)

	for _, behaviour := range []adversary.Behaviour{adversary.Crash, adversary.Silent, adversary.Equivocation, adversary.Withhold} {
		for _, sp := range []Spec{calm, stalls} {
			// notary0 leads view 0, where an equivocator's two proposals go out.
			sp.Faults = map[string]string{core.NotaryID(0): string(behaviour)}
			addRun(fmt.Sprintf("notary0 %s, %s", behaviour, sp.Net.Kind), sp, 0)
			addRun("an honest committee after it", calm, 0)
		}
	}
	addRun("a committee", calm, 0)
	addRun("the trusted manager after it", baseSpec(FamWeaklive), 0)
}

// TestWorldReuseEquivalence is the oracle of world reuse: a run on a world
// that has run anything before — in generation order and in a shuffled
// order, so every kind of run follows every other; each run straight after
// itself, so a protocol's standing state meets exactly what it left; a long
// chain after a short one and a short one after a long one, per protocol —
// renders byte-equal to the same run on a new world, and moves the
// process-wide sig counters by exactly as much. Reuse is an execution
// strategy, never an input.
func TestWorldReuseEquivalence(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 120
	}
	cases, pairs := reuseCases(t, seeds)

	type observed struct {
		render string
		sig    sig.Stats
	}
	observe := func(c reuseCase, w *core.World) observed {
		before := sig.GlobalStats()
		render, err := c.run(w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := sig.GlobalStats()
		return observed{render: render, sig: sig.Stats{
			KeygenHits:    after.KeygenHits - before.KeygenHits,
			KeygenMisses:  after.KeygenMisses - before.KeygenMisses,
			MemoHits:      after.MemoHits - before.MemoHits,
			MemoMisses:    after.MemoMisses - before.MemoMisses,
			MemoEvictions: after.MemoEvictions - before.MemoEvictions,
		}}
	}

	// A first pass derives every key, so that the passes compared below all
	// find the process-wide key cache in the same (warm) state.
	for _, c := range cases {
		observe(c, core.NewWorld())
	}
	want := make([]observed, len(cases))
	for i, c := range cases {
		want[i] = observe(c, core.NewWorld())
	}

	compare := func(pass string, order []int) {
		w := core.NewWorld()
		for k, i := range order {
			got := observe(cases[i], w)
			after := "a new world"
			if k > 0 {
				after = cases[order[k-1]].name
			}
			if got.sig != want[i].sig {
				t.Fatalf("%s: %s, run after %s, moved the sig counters by %+v; on a new world by %+v",
					pass, cases[i].name, after, got.sig, want[i].sig)
			}
			if got.render != want[i].render {
				t.Fatalf("%s: %s, run after %s, differs from its run on a new world:\n--- reused\n%s--- new\n%s",
					pass, cases[i].name, after, got.render, want[i].render)
			}
		}
	}
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	compare("in order", order)
	twice := make([]int, 0, 2*len(cases))
	for i := range cases {
		twice = append(twice, i, i)
	}
	compare("twice back to back", twice)
	var chains []int
	for _, p := range pairs {
		chains = append(chains, p[0], p[1], p[0])
	}
	compare("short, long, short chain", chains)
	rand.New(rand.NewSource(12)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	compare("shuffled", order)
	t.Logf("%d runs compared in four orders, %d chain pairs among them", len(cases), len(pairs))
}
