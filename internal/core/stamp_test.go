package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/deals"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/weaklive"
)

// stampStep is one run of TestStampedWorldMatchesFresh: a payment protocol
// on a scenario, or (deal set) a deal run through ResetSubstrate and
// KeyringFor, optionally after emptying the key cache.
type stampStep struct {
	name  string
	p     core.Protocol
	s     core.Scenario
	deal  bool
	flush bool
}

// stampRun is what a step's run shows: the result's outcomes, wealth and
// settlement, every ledger's log and audit, the keyring's Stats, and how far
// the run moved the registry's protocol-book op counter.
type stampRun struct {
	Customers []core.CustomerOutcome
	Escrows   []core.EscrowOutcome
	BobPaid   bool
	Duration  sim.Time
	Events    uint64
	Ops       [][]ledger.Op
	Audits    []string
	Keys      sig.Stats
	OpsMetric uint64
	Deal      string
}

// TestStampedWorldMatchesFresh runs one standing world through chain-length
// switches (n=2, 5, 2, 5), a deal, another initial balance, non-empty fault
// and patience maps, n=1, a key-cache flush and two registries taken in
// turn, and expects every run to show what the same run shows on a new
// world: the stamp restores exactly the state setup builds, the keys' first
// reads count as a new keyring's do, and the restored mints count in the
// run's registry as they did when logged.
func TestStampedWorldMatchesFresh(t *testing.T) {
	scn := func(n int, seed int64) core.Scenario {
		s := core.NewScenario(n, seed).WithCrypto(sig.BackendHMAC)
		s.KeySeed = "stamp-keys"
		return s
	}
	timing := core.DefaultTiming()
	forged := scn(2, 4).SetFault("c2", adversary.Spec(adversary.Forge, timing)).SetPatience("c1", 300*sim.Millisecond)
	richer := scn(2, 5)
	richer.InitialBalance *= 3
	steps := []stampStep{
		{name: "n=2", p: timelock.New(), s: scn(2, 1)},
		{name: "n=5", p: timelock.New(), s: scn(5, 2)},
		{name: "n=2 again", p: timelock.New(), s: scn(2, 3)},
		{name: "n=5 again", p: timelock.New(), s: scn(5, 13)},
		{name: "a deal", deal: true},
		{name: "n=2 after the deal", p: timelock.New(), s: scn(2, 6)},
		{name: "n=5 after the deal", p: weaklive.New(), s: scn(5, 14)},
		{name: "another initial balance", p: timelock.New(), s: richer},
		{name: "faults and patience", p: timelock.New(), s: forged},
		{name: "a faulted manager and patience", p: weaklive.New(), s: scn(2, 7).SetFault(core.ManagerID, adversary.Spec(adversary.Equivocation, timing)).SetPatience("c0", 200*sim.Millisecond)},
		{name: "n=2 honest after faults", p: weaklive.New(), s: scn(2, 8)},
		{name: "n=1", p: timelock.New(), s: scn(1, 9)},
		{name: "forged before a flush", p: timelock.New(), s: forged.WithSeed(10)},
		{name: "forged after a flush", p: timelock.New(), s: forged.WithSeed(11), flush: true},
		{name: "n=2 after the flush", p: timelock.New(), s: scn(2, 12)},
	}
	standing, freshReg := core.NewWorld(), metrics.NewRegistry()
	standingRegs := [2]*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}
	var hits, misses uint64
	for i, st := range steps {
		// Both runs meet the key cache in the same state: emptied, or
		// already holding every key the step reads.
		if st.flush {
			sig.ResetKeyCache()
		} else {
			runStep(t, core.NewWorld(), st, nil)
		}
		want := runStep(t, core.NewWorld(), st, freshReg)
		if st.flush {
			sig.ResetKeyCache()
		}
		got := runStep(t, standing, st, standingRegs[i/2%2])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the standing world shows\n%+v\na new one\n%+v", st.name, got, want)
		}
		if !st.deal && got.OpsMetric == 0 {
			t.Fatalf("%s: the run counted no ledger operation", st.name)
		}
		hits, misses = hits+got.Keys.KeygenHits, misses+got.Keys.KeygenMisses
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("the forged runs read %d keys from the cache and %d past it, want both", hits, misses)
	}
}

// runStep runs st on w, under reg for a payment, and reads the run.
func runStep(t *testing.T, w *core.World, st stampStep, reg *metrics.Registry) stampRun {
	t.Helper()
	ops := reg.Counter(ledger.MetricOps, "Ledger operations logged.", "book", "protocol")
	before := ops.Value()
	var got stampRun
	var book *ledger.Book
	if st.deal {
		d := deals.NewDeal("alice", "bob").
			Transfer("alice", "bob", deals.Asset{Type: "coin", Amount: 5}).
			Transfer("bob", "alice", deals.Asset{Type: "token", Amount: 1})
		res, err := deals.CertifiedCommit{}.RunIn(w, deals.Config{Deal: d, Timing: core.DefaultTiming(), Seed: 3, Crypto: sig.BackendHMAC, KeySeed: "stamp-keys"})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got.Deal, book = fmt.Sprintf("%+v", *res.Outcome), res.Book
	} else {
		s := st.s
		s.Metrics = reg
		res, err := st.p.RunIn(w, s)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got.Customers = append(got.Customers, res.Customers...)
		got.Escrows = append(got.Escrows, res.Escrows...)
		got.BobPaid, got.Duration, got.Events, book = res.BobPaid, res.Duration, res.EventsFired, res.Book
		got.Keys = w.Keyring().Stats()
	}
	for _, led := range book.Ledgers() {
		got.Ops = append(got.Ops, append([]ledger.Op(nil), led.Ops()...))
		got.Audits = append(got.Audits, fmt.Sprint(led.Audit()))
	}
	got.OpsMetric = ops.Value() - before
	return got
}
