package scenariogen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sig"
)

// worldRunner is what every chain protocol offers besides Run.
type worldRunner interface {
	core.Protocol
	RunIn(w *core.World, s core.Scenario) (*core.RunResult, error)
}

// reuseCase is one run of the equivalence test.
type reuseCase struct {
	name  string
	proto worldRunner
	scn   core.Scenario
	opts  check.Options
}

// renderRun renders everything a run produced — outcome, every customer and
// escrow, the network counters, each ledger's accounts, locks and operation
// log, the whole trace and the property verdicts — so that two runs compare
// byte for byte. It reads the result at once: on a reused world the result
// is only valid until the next Reset.
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
	for _, name := range res.Book.Names() {
		led := res.Book.MustGet(name)
		fmt.Fprintf(&b, "%v compact=%v ops=%d\n", led, led.Compact(), led.OpCount())
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
	b.WriteString(check.Evaluate(res, opts).String())
	return b.String()
}

// reuseCases builds the test's population: the payment-family specs among
// the first seeds (every family with RunIn: the three timelock renderings,
// htlc, weaklive with a trusted manager and with a committee; generated
// faults include crashes, silence, withholding, theft and impatience), each
// once traced and once muted, on alternating crypto backends — plus, woven
// in every few cases, runs built to leave a world in a bad state: cut off
// by MaxEvents with events, messages and timers still pending, a mid-run
// crash, a withholding Bob, a manager outage.
func reuseCases(t *testing.T, seeds int) []reuseCase {
	t.Helper()
	var cases []reuseCase
	add := func(name string, p core.Protocol, s core.Scenario, opts check.Options) {
		wr, ok := p.(worldRunner)
		if !ok {
			t.Fatalf("%s: protocol %s has no RunIn", name, p.Name())
		}
		cases = append(cases, reuseCase{name: name, proto: wr, scn: s, opts: opts})
		muted := s
		muted.MuteTrace = true
		cases = append(cases, reuseCase{name: name + " muted", proto: wr, scn: muted, opts: opts})
	}
	families := map[Family]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sp := Generate(seed)
		if sp.isDeal() || sp.Family == FamTraffic {
			continue
		}
		sp.Crypto = []string{"hmac", "ed25519"}[seed%2]
		s, err := sp.Scenario()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		protos, err := sp.Protocols()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := sp.checkOptions(sp.Class())
		for _, p := range protos {
			families[sp.Family]++
			add(fmt.Sprintf("seed %d %s", seed, p.Name()), p, s, opts)
			if seed%5 != 0 {
				continue
			}
			cut := s
			cut.MaxEvents = uint64(3 + seed%11)
			add(fmt.Sprintf("seed %d %s cut at %d events", seed, p.Name(), cut.MaxEvents), p, cut, opts)
			add(fmt.Sprintf("seed %d %s c1 crashes", seed, p.Name()), p,
				s.SetFault(core.CustomerID(1), adversary.Spec(adversary.Crash, s.Timing)), opts)
			add(fmt.Sprintf("seed %d %s bob withholds", seed, p.Name()), p,
				s.SetFault(s.Topology.Bob(), adversary.Spec(adversary.Withhold, s.Timing)), opts)
			if sp.isWeaklive() {
				add(fmt.Sprintf("seed %d %s manager out", seed, p.Name()), p,
					s.SetFault(core.ManagerID, adversary.Spec(adversary.Silent, s.Timing)).
						SetFault(core.NotaryID(1), adversary.Spec(adversary.CrashAtStart, s.Timing)), opts)
			}
		}
	}
	for _, f := range []Family{FamTimelock, FamANTA, FamNaive, FamHTLC, FamWeaklive, FamCommittee, FamDifferential} {
		if families[f] == 0 {
			t.Fatalf("no %s spec among the first %d seeds", f, seeds)
		}
	}
	return cases
}

// TestWorldReuseEquivalence is the oracle of world reuse: a run on a world
// that has run anything before — in generation order and in a shuffled
// order, so every kind of run follows every other — renders byte-equal to
// the same run on a new world, and moves the process-wide sig counters by
// exactly as much. Reuse is an execution strategy, never an input.
func TestWorldReuseEquivalence(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 120
	}
	cases := reuseCases(t, seeds)

	type observed struct {
		render string
		sig    sig.Stats
	}
	observe := func(c reuseCase, w *core.World) observed {
		before := sig.GlobalStats()
		res, err := c.proto.RunIn(w, c.scn)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := sig.GlobalStats()
		return observed{render: renderRun(res, c.opts), sig: sig.Stats{
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
	rand.New(rand.NewSource(12)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	compare("shuffled", order)
	t.Logf("%d runs compared twice", len(cases))
}
