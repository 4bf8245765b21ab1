package deals

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
)

// ring returns the ring deal among n parties r0..r<n-1>, one asset per arc.
func ring(n int) *Deal {
	parties := make([]string, n)
	for i := range parties {
		parties[i] = fmt.Sprintf("r%d", i)
	}
	d := NewDeal(parties...)
	for i := range parties {
		d.Transfer(parties[i], parties[(i+1)%n], Asset{Type: fmt.Sprintf("t%d", i), Amount: int64(10 + i)})
	}
	return d
}

// render renders everything a deal run produced — the result, the whole
// outcome maps, every ledger's accounts, locks and log, the whole trace — so
// that two runs compare byte for byte.
func render(res *Result) string {
	var b strings.Builder
	o := res.Outcome
	fmt.Fprintf(&b, "%s dur=%v events=%d net=%+v\n", res.Protocol, res.Duration, res.EventsFired, res.Stats)
	fmt.Fprintf(&b, "parties=%v transferred=%v compliant=%v forever=%v (nil %v)\n",
		o.Deal.Parties, o.Transferred, o.Compliant, o.EscrowedForever, o.EscrowedForever == nil)
	fmt.Fprintf(&b, "safety=%v termination=%v liveness=%v\n", o.SafetyHolds(), o.TerminationHolds(), o.StrongLivenessHolds())
	for _, name := range res.Book.Names() {
		led := res.Book.MustGet(name)
		fmt.Fprintf(&b, "%v ops=%d\n", led, led.OpCount())
		for _, owner := range led.Accounts() {
			fmt.Fprintf(&b, "  %s=%d\n", owner, led.Balance(owner))
		}
		for _, lk := range led.Locks() {
			fmt.Fprintf(&b, "  %+v\n", *lk)
		}
		for _, op := range led.Ops() {
			fmt.Fprintf(&b, "  %+v\n", op)
		}
	}
	b.WriteString(res.Trace.String())
	return b.String()
}

// TestResetMakesANewDealRun is the oracle of the standing deal run: whatever
// a world's dealRun was left holding, the next run on it is, event for event
// and Result for Result, the run on a new world — and so is that run once
// more, straight after itself.
func TestResetMakesANewDealRun(t *testing.T) {
	// What is left behind: a certified run among five with a deviator, cut
	// off while locks are pending, the compliant parties' patience timers are
	// armed, messages are in flight and the certifier has not decided.
	w := core.NewWorld()
	left := dealConfig(ring(5), 3)
	left.NonCompliant = map[string]bool{"r2": true}
	left.PartyPatience = 2 * sim.Second
	left.Crypto = "hmac"
	r := core.Standing[dealRun](w)
	if err := r.reset(w, left, false); err != nil {
		t.Fatal(err)
	}
	for i := range r.parties {
		r.parties[i].start()
	}
	w.Eng.Run(20)
	pending := 0
	for i := range r.arcs {
		if lk, ok := r.arcs[i].chain.led.Lock(r.arcs[i].lockID); ok && lk.State == ledger.LockPending {
			pending++
		}
	}
	if pending == 0 || r.certifier.decided || w.Eng.Live() == 0 || r.parties[0].seen == 0 {
		t.Fatalf("the run left behind has %d pending locks, decided=%v, %d live events, p0 saw %d escrows",
			pending, r.certifier.decided, w.Eng.Live(), r.parties[0].seen)
	}

	// Two arcs of each of two asset types, and no ring.
	twoAssets := NewDeal("a", "b", "c").
		Transfer("a", "b", Asset{Type: "x", Amount: 4}).
		Transfer("b", "c", Asset{Type: "x", Amount: 3}).
		Transfer("c", "a", Asset{Type: "y", Amount: 2}).
		Transfer("a", "c", Asset{Type: "y", Amount: 1})
	deviator := dealConfig(ring(5), 11)
	deviator.NonCompliant = map[string]bool{"r4": true}
	impatient := dealConfig(ring(5), 12)
	impatient.PartyPatience = 40 * sim.Millisecond
	impatient.Network = netsim.PartialSynchrony{GST: 2 * sim.Second, Delta: 50 * sim.Millisecond, MaxPreGST: sim.Second}
	stuck := dealConfig(twoAssets, 13) // nobody loses patience: what the compliant escrowed stays escrowed
	stuck.NonCompliant = map[string]bool{"b": true}
	type step struct {
		name     string
		cfg      Config
		timelock bool
	}
	steps := []step{
		{"a two-party timelock deal", dealConfig(swapDeal(), 5), true},
		{"a five-party timelock deal", dealConfig(ring(5), 6), true},
		{"two arcs of one asset type", dealConfig(twoAssets, 7), true},
		{"the same, certified", dealConfig(twoAssets, 7), false},
		{"and timelock again", dealConfig(twoAssets, 8), true},
		{"a deviator under timelock", deviator, true},
		{"a deviator, certified", deviator, false},
		{"impatient parties before GST", impatient, false},
		{"a deviator nobody outwaits", stuck, false},
		{"the swap, certified", dealConfig(swapDeal(), 9), false},
	}
	for i := range steps {
		steps[i].cfg.Crypto = []string{"hmac", "ed25519"}[i%2]
	}
	run := func(w *core.World, s step) string {
		name := CertifiedCommit{}.Name()
		if s.timelock {
			name = TimelockCommit{}.Name()
		}
		res, err := runIn(w, s.cfg, s.timelock, name)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		return render(res)
	}
	sawForever := false
	for i, s := range steps {
		want := run(core.NewWorld(), s)
		sawForever = sawForever || strings.Contains(want, "termination=false")
		for _, again := range []string{"", ", run again"} {
			if got := run(w, s); got != want {
				after := "the run that was cut off"
				if i > 0 {
					after = steps[i-1].name
				}
				t.Fatalf("%s%s after %s differs from its run on a new world:\n--- reused\n%s--- new\n%s", s.name, again, after, got, want)
			}
		}
	}
	if !sawForever {
		t.Error("no step left a compliant party's asset escrowed: the EscrowedForever order went unchecked")
	}
}

// TestMutedDealRunDoesNotAllocate: a muted run of either protocol on a
// standing world allocates nothing while the deal's names are the last
// run's, and when they are not, the two strings it renders its names into —
// the chains' and locks' IDs, and a certified deal's own ID.
func TestMutedDealRunDoesNotAllocate(t *testing.T) {
	muted := func(d *Deal, seed int64) Config {
		cfg := dealConfig(d, seed)
		cfg.MuteTrace, cfg.Crypto, cfg.PartyPatience = true, "hmac", 5*sim.Second
		cfg.KeySeed = "campaign" // as a fuzz campaign's deals: the certifier keeps its key
		cfg.Network = netsim.Synchronous{Min: sim.Millisecond, Max: cfg.Timing.MaxMsgDelay}
		return cfg
	}
	for _, p := range []interface {
		Name() string
		RunIn(*core.World, Config) (*Result, error)
	}{TimelockCommit{}, CertifiedCommit{}} {
		w := core.NewWorld()
		run := func(cfg Config) {
			res, err := p.RunIn(w, cfg)
			if err != nil || !res.Outcome.AllTransferred() {
				t.Fatalf("%s: err %v, outcome %+v", p.Name(), err, res.Outcome)
			}
		}
		ringCfg, swapCfg, otherSwap := muted(ring(4), 1), muted(swapDeal(), 2), muted(swapDeal(), 3)
		run(ringCfg)
		run(swapCfg) // the world has now seen the larger deal and both key sets
		if n := testing.AllocsPerRun(20, func() { run(swapCfg) }); n != 0 {
			t.Errorf("%s: a muted run of the deal the world ran last allocates %.0f times, want 0", p.Name(), n)
		}
		if n := testing.AllocsPerRun(20, func() { run(ringCfg); run(otherSwap); run(swapCfg) }); n > 3*2 {
			t.Errorf("%s: muted runs of alternating deals allocate %.1f times each, want at most 2", p.Name(), n/3)
		}
	}
}

// TestMessageHeads: every deal message's description starts with its head,
// which is what an attack schedule classifies it by (netsim.HeadOf).
func TestMessageHeads(t *testing.T) {
	arc := &arcState{Arc: swapDeal().Arcs()[0]}
	party := &partyProc{id: "alice"}
	for _, m := range []netsim.Message{
		&msgEscrow{arc: arc}, &msgEscrowed{arc: arc}, &msgCommitVote{from: party},
		&msgAllEscrowed{Party: "alice"}, &msgAbortAsk{Party: "alice"},
		&msgCertified{Commit: true, Cert: sig.Receipt{}}, &msgCertified{},
		&msgSettled{Arc: arc.Arc}, &msgSettled{Arc: arc.Arc, Transferred: true},
	} {
		if head := netsim.HeadOf(m); head == "" || !strings.HasPrefix(m.Describe(), head) {
			t.Errorf("%T: description %q does not start with head %q", m, m.Describe(), head)
		}
		if _, ok := m.(interface{ Head() string }); !ok {
			t.Errorf("%T has no Head method", m)
		}
	}
}
