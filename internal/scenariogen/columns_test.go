package scenariogen

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
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
	"repro/internal/trace"
)

// The package's equivalence oracles are columns over one population. Every
// row — a generated seed, a run built to leave a world in a bad state, a
// mute variant, a replay — is generated and run once, recording, on new
// worlds: its reference. Each column reruns the rows it applies to its own
// way and compares what it sees with the reference.

// column is one oracle, named after the test that runs it.
type column uint8

const (
	colMuted    column = 1 << iota // TestMuteEquivalence
	colReuse                       // TestWorldReuseEquivalence
	colStanding                    // TestFuzzStandingWorldEquivalence
	colTapped                      // TestMessagesImmutableInFlight
	colEngine                      // TestEngineDifferential100Scenarios
	colBackend                     // TestBackendDifferential120Scenarios

	colsWorld = colMuted | colReuse | colStanding | colTapped
)

// row is one input of the population. The kernel runs sp, unless the row is
// built by hand: hand, or sp's unit-th protocol on its own, cut off after cut
// events unless that is 0 (a hand-built row keeps the spec it came from, or
// one naming its family).
type row struct {
	name string
	sp   Spec
	hand *hand
	cut  uint64
	unit int
	cols column
	busy bool // a mute variant: its reference keeps a trace and sees events

	once sync.Once
	ref  observed
	out  *Outcome // the reference's
}

// reference runs the row once, recording, on new worlds, for what its
// columns compare with, and returns the row. The reused-world column's rows
// are referenced as the population is built, nothing else signing, since
// that column compares sig counter deltas; the others on first use, by the
// columns that run in parallel. A run that derived a key runs again: every
// reference finds the key cache warm, as every later run of the row does.
func (r *row) reference(t *testing.T) *row {
	r.once.Do(func() {
		ref := r.observe(t, &worlds{}, true)
		if ref.sig.KeygenMisses > 0 {
			ref = r.observe(t, &worlds{}, true)
		}
		r.ref, r.out = ref.observed, ref.out
	})
	return r
}

// hand is a run no spec expresses: one protocol on a materialised scenario,
// judged with opts, or one deal protocol on its configuration. engine names
// the protocol engine.
type hand struct {
	engine string
	p      core.Protocol
	s      core.Scenario
	opts   check.Options
	deal   func(*core.World, deals.Config) (*deals.Result, error)
	cfg    deals.Config
}

// handBuilt returns what a hand-built row runs, nil for a spec row.
func (r *row) handBuilt(t *testing.T) *hand {
	if r.cut == 0 && r.unit == 0 {
		return r.hand
	}
	u := units(t, new(materialiser), r.sp)[r.unit]
	if r.cut > 0 {
		u.s.MaxEvents = r.cut
	}
	return u
}

// run runs h on w, recording or muted, its delay model wrapped by tap unless
// that is nil.
func (h *hand) run(t *testing.T, w *core.World, record bool, tap func(netsim.DelayModel) netsim.DelayModel) primary {
	t.Helper()
	if h.deal != nil {
		cfg := h.cfg
		cfg.MuteTrace = !record
		if tap != nil {
			cfg.Network = tap(cfg.Network)
		}
		res, err := h.deal(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return primary{deal: res}
	}
	s := h.s
	s.MuteTrace = !record
	if tap != nil {
		s = s.WithNetwork(tap(s.Network))
	}
	res, err := h.p.RunIn(w, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Evaluate(res, h.opts)
	return primary{res: res, report: &rep}
}

// units materialises a spec on m as hand-built runs, valid until m
// materialises again: every protocol of a payment spec on its scenario, or
// its deal protocol on its configuration.
func units(t *testing.T, m *materialiser, sp Spec) []*hand {
	t.Helper()
	if sp.isDeal() {
		cfg, err := m.dealConfig(sp)
		if err != nil {
			t.Fatal(err)
		}
		return []*hand{{engine: string(sp.Family), deal: sp.dealProtocol(), cfg: cfg}}
	}
	s, err := m.scenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	protos, err := m.protocols(sp)
	if err != nil {
		t.Fatal(err)
	}
	var out []*hand
	for _, p := range protos {
		out = append(out, &hand{engine: engineOf(p.Name()), p: p, s: s, opts: sp.checkOptions(sp.Class(), protos[0], s)})
	}
	return out
}

// engineOf names the engine a protocol runs on: the naive rendering runs the
// timelock processes, and a committee's name carries its size.
func engineOf(protocol string) string {
	name := strings.Replace(protocol, "timelock-naive", "timelock", 1)
	if strings.HasPrefix(name, "weaklive-committee") {
		return "weaklive-committee"
	}
	return name
}

// observed is what the columns compare of one run: a digest of the Outcome
// as JSON (a spec row's), the fingerprint, the trace's length, how far the
// run moved the process-wide sig counters, and digests of everything the
// primary run produced but its trace, and of its trace.
type observed struct {
	outcome     uint64
	fp          Fingerprint
	traced      int
	sig         sig.Stats
	body, trace uint64
}

// seen is one observed run with what it returned, valid until the worlds it
// ran on run again.
type seen struct {
	observed
	out *Outcome
	p   primary
}

var renderSeed = maphash.MakeSeed()

// observe runs the row on ws, recording or muted, and reads the run.
func (r *row) observe(t *testing.T, ws *worlds, record bool) seen {
	t.Helper()
	var s seen
	before := sig.GlobalStats()
	if h := r.handBuilt(t); h != nil {
		s.p = h.run(t, ws.world(0), record, nil)
	} else {
		s.out, s.p = kernel(r.sp, ws, record)
	}
	after := sig.GlobalStats()
	s.sig = sig.Stats{
		KeygenHits:    after.KeygenHits - before.KeygenHits,
		KeygenMisses:  after.KeygenMisses - before.KeygenMisses,
		MemoHits:      after.MemoHits - before.MemoHits,
		MemoMisses:    after.MemoMisses - before.MemoMisses,
		MemoEvictions: after.MemoEvictions - before.MemoEvictions,
		Rendered:      after.Rendered - before.Rendered,
	}
	if s.out != nil {
		js, err := json.Marshal(s.out)
		if err != nil {
			t.Fatal(err)
		}
		s.outcome = maphash.Bytes(renderSeed, js)
	}
	if d := s.p.deal; d != nil {
		s.fp, s.traced = fingerprint(d.EventsFired, d.Stats, d.Book), d.Trace.Len()
	} else if res := s.p.res; res != nil {
		s.fp, s.traced = fingerprint(res.EventsFired, res.NetStats, res.Book), res.Trace.Len()
	}
	b, split := render(nil, s.p)
	s.body, s.trace = maphash.Bytes(renderSeed, b[:split]), maphash.Bytes(renderSeed, b[split:])
	return s
}

// check fails the test unless a run of the row in pass saw what its
// reference saw: the same Outcome, fingerprint and result, and — recorded —
// the same trace, or — muted — no trace. With sigs, it also moved the sig
// counters by as much (only a column that runs alone can tell).
func (r *row) check(t *testing.T, pass string, got seen, record, sigs bool) {
	t.Helper()
	r.reference(t)
	var what string
	switch {
	case got.outcome != r.ref.outcome:
		what = "outcome"
	case got.fp != r.ref.fp:
		what = "fingerprint"
	case got.body != r.ref.body:
		what = "result"
	case record && got.trace != r.ref.trace:
		what = "trace"
	case sigs && got.sig != r.ref.sig:
		what = fmt.Sprintf("sig counter deltas (%+v, reference %+v)", got.sig, r.ref.sig)
	case !record && got.traced != 0:
		what = fmt.Sprintf("trace: a muted run kept %d events", got.traced)
	default:
		return
	}
	text := func(s seen) string {
		js, _ := json.Marshal(s.out)
		b, _ := render(append(js, '\n'), s.p)
		return string(b)
	}
	t.Fatalf("%s: %s: %s differs from the reference\n--- got\n%s\n--- reference\n%s",
		pass, r.name, what, text(got), text(r.observe(t, &worlds{}, true)))
}

// render appends everything a primary run produced — result, every customer
// and escrow or every arc and party, the network counters, each ledger's
// accounts, locks and operation log, the verdicts — to b, and then every
// field of every trace event; it returns b and where the trace starts.
func render(b []byte, p primary) ([]byte, int) {
	var book *ledger.Book
	var tr *trace.Trace
	switch res, d := p.res, p.deal; {
	case res != nil:
		b = fmt.Appendf(b, "%s paid=%v commit=%v abort=%v dur=%v allTerm=%v events=%d err=%v net=%+v violation=%+v detection=%+v\n",
			res.Protocol, res.BobPaid, res.CommitIssued, res.AbortIssued, res.Duration, res.AllTerminated,
			res.EventsFired, res.Err, res.NetStats, res.Violation, res.Detection)
		b = fmt.Appendf(b, "%d customers, %d escrows\n", len(res.Customers), len(res.Escrows))
		for _, id := range res.Scenario.Topology.Customers() {
			b = fmt.Appendf(b, "%+v\n", res.Customers[id])
		}
		for _, id := range res.Scenario.Topology.Escrows() {
			b = fmt.Appendf(b, "%+v\n", res.Escrows[id])
		}
		b = append(b, p.report.String()...)
		book, tr = res.Book, res.Trace
	case d != nil:
		o := d.Outcome
		b = fmt.Appendf(b, "%s dur=%v events=%d net=%+v forever=%v safety=%v termination=%v\n",
			d.Protocol, d.Duration, d.EventsFired, d.Stats, o.EscrowedForever, o.SafetyHolds(), o.TerminationHolds())
		for _, arc := range o.Deal.Arcs() {
			b = fmt.Appendf(b, "%+v transferred=%v\n", arc, o.Transferred[arc])
		}
		for _, party := range o.Deal.Parties {
			b = fmt.Appendf(b, "%s compliant=%v\n", party, o.Compliant[party])
		}
		book, tr = d.Book, d.Trace
	default:
		return b, len(b)
	}
	str := func(vs ...string) {
		for _, v := range vs {
			b = append(append(b, v...), ' ')
		}
	}
	num := func(vs ...int64) {
		for _, v := range vs {
			b = append(strconv.AppendInt(b, v, 10), ' ')
		}
	}
	for _, name := range book.Names() {
		led := book.MustGet(name)
		b = fmt.Appendf(b, "%v compact=%v ops=%d\n", led, led.Compact(), led.OpCount())
		for _, owner := range led.Accounts() {
			str(owner)
			num(led.Balance(led.PID(owner)))
		}
		b = append(b, '\n')
		for _, lk := range led.Locks() {
			b = fmt.Appendf(b, "%+v\n", lk)
		}
		for _, op := range led.Ops() {
			num(int64(op.Seq), int64(op.At), op.Amount)
			str(string(op.Kind), op.From, op.To, op.LockID, "\n")
		}
	}
	split := len(b)
	for _, ev := range tr.Events() {
		num(int64(ev.Seq), int64(ev.At), int64(ev.Local), ev.Value)
		str(string(ev.Kind), ev.Actor, ev.Peer, ev.Label, ev.Extra, "\n")
	}
	return b, split
}

// populationT is the population and the short/long chain pairs among its
// rows (indices, short chain first).
type populationT struct {
	rows  []*row
	pairs [][2]int
}

// rowsIn returns the indices of the rows a column applies to, in population
// order.
func (p *populationT) rowsIn(c column) []int {
	var out []int
	for i, r := range p.rows {
		if r.cols&c != 0 {
			out = append(out, i)
		}
	}
	return out
}

var pop struct {
	once  sync.Once
	built *populationT
}

// population builds the population once per test binary, with the
// references of the reused-world column, which count the process-wide sig
// counters: nothing may sign beside the build, so a column calls it before
// t.Parallel, and only the columns that compare no sig counters run in
// parallel.
func population(t *testing.T) *populationT {
	t.Helper()
	pop.once.Do(func() { pop.built = buildPopulation(t) })
	if pop.built == nil {
		t.Fatal("the population failed to build")
	}
	return pop.built
}

// builder adds rows to a population.
type builder struct {
	t   *testing.T
	mat materialiser
	populationT
}

func (b *builder) add(r *row) int {
	if r.hand != nil || r.cut > 0 || r.unit > 0 {
		r.cols &^= colStanding // the standing pair judges specs
	}
	b.rows = append(b.rows, r)
	return len(b.rows) - 1
}

// spec adds sp's row and returns its index. A spec that runs more than one
// protocol (the ANTA side of a differential spec) has, in the muted and the
// reused-world columns, a row for each of the others, which its Outcome only
// judges.
func (b *builder) spec(name string, sp Spec, cols column) int {
	i := b.add(&row{name: name, sp: sp, cols: cols})
	if cols&colReuse != 0 && !sp.isDeal() {
		for k, u := range units(b.t, &b.mat, sp)[1:] {
			b.add(&row{name: name + " " + u.engine, sp: sp, unit: k + 1, cols: cols & (colMuted | colReuse)})
		}
	}
	return i
}

// cut adds sp's runs cut off after maxEvents events, one row per protocol.
func (b *builder) cut(name string, sp Spec, maxEvents uint64, cols column) {
	for i, u := range units(b.t, &b.mat, sp) {
		b.add(&row{name: fmt.Sprintf("%s %s cut at %d events", name, u.engine, maxEvents), sp: sp, cut: maxEvents, unit: i, cols: cols})
	}
}

// payment and deal add hand-built rows.
func (b *builder) payment(name string, p core.Protocol, s core.Scenario) int {
	h := &hand{engine: p.Name(), p: p, s: s, opts: check.OptionsFor(p.Guarantee(), 0, 0)}
	return b.add(&row{name: name, sp: Spec{Family: Family(p.Name())}, hand: h, cols: colsWorld})
}

func (b *builder) deal(name string, cfg deals.Config, family Family) int {
	sp := Spec{Family: family}
	h := &hand{engine: string(family), deal: sp.dealProtocol(), cfg: cfg}
	return b.add(&row{name: name, sp: sp, hand: h, cols: colsWorld})
}

// buildPopulation generates the rows:
//   - the generated seeds from 0 on, until every process engine and both
//     deal protocols have had their share of the tapped column, every third
//     one (deals aside) also cut short; the seeds below standingSeeds join
//     the standing-pair column, every other one on ed25519 rather than hmac;
//     those below mixedSeeds the muted and the reused-world columns, and
//     every fifth brings its spec with a crashing c1, with a withholding Bob
//     and with the transaction manager out; the first 120 seeds, traffic
//     populations included, are the backend column's;
//   - per family, the same spec on a chain of two and on a chain of six;
//   - the runs built to leave a transaction manager, a deal run or Figure 2's
//     processes in a bad state (managerRows, dealRows, timelockRows);
//   - the replay corpus, the mute variants (muteRows) and the engine
//     differential's specs.
func buildPopulation(t *testing.T) *populationT {
	perEngine, mixedSeeds := 300, int64(400)
	if testing.Short() {
		perEngine, mixedSeeds = 60, 120
	}
	b := &builder{t: t}
	runs := map[string]int{}
	short := func() bool {
		for _, e := range []string{"timelock", "htlc", "weaklive-trusted", "weaklive-committee", string(FamDealTimelock), string(FamDealCertified)} {
			if runs[e] < perEngine {
				return true
			}
		}
		return false
	}
	for seed := int64(0); seed < mixedSeeds || seed < 120 || short(); seed++ {
		sp := Generate(seed)
		name := fmt.Sprintf("seed %d %s", seed, sp.Family)
		if sp.Family == FamTraffic {
			if seed < 120 && !testing.Short() {
				b.spec(name, sp, colBackend)
			}
			continue
		}
		cols := colTapped
		sp.Crypto = "hmac"
		if seed < int64(standingSeeds()) {
			cols |= colStanding
			sp.Crypto = []string{"hmac", "ed25519"}[seed%2]
		}
		if seed < mixedSeeds {
			cols |= colMuted | colReuse
		}
		if seed < 120 {
			cols |= colBackend
		}
		b.spec(name, sp, cols)
		engine := units(t, &b.mat, sp)[0].engine
		runs[engine]++
		if seed%3 == 0 && !sp.isDeal() {
			b.cut(name, sp, uint64(3+seed%40), cols&^colBackend)
			runs[engine]++
		}
		if seed%5 == 0 && seed < mixedSeeds && !sp.isDeal() {
			for _, faults := range []map[string]adversary.Behaviour{
				{core.CustomerID(1): adversary.Crash},
				{core.CustomerID(sp.N): adversary.Withhold},
				{core.ManagerID: adversary.Silent, core.NotaryID(1): adversary.CrashAtStart},
			} {
				if _, manager := faults[core.ManagerID]; manager && !sp.isWeaklive() {
					continue
				}
				d := sp.clone()
				for id, behaviour := range faults {
					d.Faults = setFault(d.Faults, id, behaviour)
				}
				b.spec(fmt.Sprintf("%s with %v", name, faults), d, colsWorld)
			}
		}
		if seed > 100_000 {
			t.Fatalf("100000 seeds did not give every engine %d runs", perEngine)
		}
	}
	for k, f := range nonTraffic() {
		sp := baseSpec(f)
		sp.Crypto, sp.N = []string{"hmac", "ed25519"}[k%2], 2
		short := len(b.rows)
		b.spec(fmt.Sprintf("%s chain of 2", f), sp, colsWorld)
		sp.N = 6
		long := len(b.rows)
		b.spec(fmt.Sprintf("%s chain of 6", f), sp, colsWorld)
		for j := 0; short+j < long; j++ {
			b.pairs = append(b.pairs, [2]int{short + j, long + j})
		}
	}
	managerRows(b)
	dealRows(b)
	timelockRows(b)
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("replay corpus: %d files, err %v", len(files), err)
	}
	for _, path := range files {
		if r, err := LoadReplay(path); err != nil {
			t.Fatal(err)
		} else if r.Spec.Family != FamTraffic {
			b.spec(filepath.Base(path), r.Spec, colsWorld)
		}
	}
	muteRows(b)
	for seed := int64(1); seed <= 100; seed++ {
		b.spec(fmt.Sprintf("engine differential seed %d", seed), differentialSpec(seed), colEngine)
	}

	families := map[Family]bool{}
	for _, r := range b.rows {
		if r.cols&colReuse != 0 {
			families[r.sp.Family] = true
			r.reference(t)
		}
	}
	for _, f := range nonTraffic() {
		if !families[f] {
			t.Fatalf("no %s row in the reused-world column", f)
		}
	}
	return &b.populationT
}

// muteRows adds, for every payment family, the same spec on an honest chain,
// under partial synchrony, and with every adversary behaviour on connector
// c1, on escrow e0 and on Bob (whose forgery is what makes an escrow report
// a detection); for both deal protocols, compliant and deviating parties
// with and without synchrony — all on both crypto backends.
func muteRows(b *builder) {
	type variant struct {
		name   string
		faults map[string]string
		net    NetworkSpec
	}
	partial := NetworkSpec{Kind: NetPartial, GST: 2 * sim.Second, MaxPreGST: 3 * sim.Second}
	payments := []variant{{name: "honest"}, {name: "partial synchrony", net: partial}}
	for _, behaviour := range adversary.AllBehaviours()[1:] { // all but Honest
		for _, id := range []string{core.CustomerID(1), core.EscrowID(0), core.CustomerID(3)} {
			payments = append(payments, variant{name: fmt.Sprintf("%s=%s", id, behaviour), faults: map[string]string{id: string(behaviour)}})
		}
	}
	silent := string(adversary.Silent)
	dealVariants := []variant{
		{name: "all compliant"},
		{name: "partial synchrony", net: partial},
		{name: "p1 deviates", faults: map[string]string{dealPartyID(1): silent}},
		{name: "p0 and p2 deviate under partial synchrony", faults: map[string]string{dealPartyID(0): silent, dealPartyID(2): silent},
			net: NetworkSpec{Kind: NetPartial, GST: sim.Second, MaxPreGST: 2 * sim.Second}},
	}
	for _, crypto := range []string{"hmac", "ed25519"} {
		for _, fam := range []Family{FamTimelock, FamANTA, FamNaive, FamHTLC, FamWeaklive, FamCommittee, FamDealTimelock, FamDealCertified} {
			variants := payments
			if fam == FamDealTimelock || fam == FamDealCertified {
				variants = dealVariants
			}
			for _, v := range variants {
				sp := baseSpec(fam)
				sp.N, sp.Commission, sp.Faults, sp.Crypto = 3, 10, v.faults, crypto
				if v.net.Kind != "" {
					sp.Net = v.net
				}
				b.rows[b.spec(fmt.Sprintf("%s %s %s", fam, crypto, v.name), sp, colMuted|colTapped)].busy = true
			}
		}
	}
}

// timelockRows adds the runs that leave Figure 2's processes, and the ANTA
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
func timelockRows(b *builder) {
	t := b.t
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
		b.payment(fmt.Sprintf("%s chain of 4, e2 steals, c1 crashes, cut at %d events", p.Name(), cut.MaxEvents), p, cut)
		b.payment(fmt.Sprintf("%s honest chain of 4 after the cut", p.Name()), p, honest)
		b.payment(fmt.Sprintf("%s chain of 4, c3 withholds chi, c1 crashes", p.Name()), p, withholds)
		b.payment(fmt.Sprintf("%s honest chain of 4 after it", p.Name()), p, honest)
	}
	long := b.payment("timelock honest chain of 8", timelock.New(), core.NewScenario(8, 4).WithCrypto("hmac"))
	short := b.payment("timelock honest chain of 2 after it", timelock.New(), core.NewScenario(2, 5).WithCrypto("hmac"))
	b.pairs = append(b.pairs, [2]int{short, long})
}

// dealRows adds the runs that disturb what internal/deals keeps on a world,
// in the order that would show it: a certified ring of five with a deviator
// and parties that never lose patience, which ends with locks pending and
// the certifier undecided; after it a ring of two and a ring of five under
// timelocks (as a pair, for the short-long-short order); a deal that is no
// ring, with two arcs of each asset type, under timelocks, then certified,
// then under timelocks again; and a certified deal whose parties lose
// patience before GST.
func dealRows(b *builder) {
	ringOf := func(n int, family Family) deals.Config {
		sp := baseSpec(family)
		sp.N, sp.Crypto = n, "hmac"
		cfg, err := sp.DealConfig()
		if err != nil {
			b.t.Fatal(err)
		}
		return cfg
	}
	stuck := ringOf(5, FamDealCertified)
	stuck.NonCompliant, stuck.PartyPatience = map[string]bool{dealPartyID(3): true}, 0
	b.deal("a certified ring of 5 that stays escrowed", stuck, FamDealCertified)
	short := b.deal("a timelock ring of 2", ringOf(2, FamDealTimelock), FamDealTimelock)
	b.pairs = append(b.pairs, [2]int{short, b.deal("a timelock ring of 5", ringOf(5, FamDealTimelock), FamDealTimelock)})

	twoEach := ringOf(3, FamDealTimelock)
	twoEach.Deal = deals.NewDeal("z", "a", "m").
		Transfer("z", "a", deals.Asset{Type: "x", Amount: 4}).
		Transfer("a", "m", deals.Asset{Type: "x", Amount: 3}).
		Transfer("m", "z", deals.Asset{Type: "y", Amount: 2}).
		Transfer("z", "m", deals.Asset{Type: "y", Amount: 1})
	b.deal("two arcs of each asset type under timelocks", twoEach, FamDealTimelock)
	deviant := twoEach
	deviant.NonCompliant = map[string]bool{"a": true}
	b.deal("the same, certified, with a deviator nobody outwaits", deviant, FamDealCertified)
	b.deal("and under timelocks again", twoEach, FamDealTimelock)
	impatient := ringOf(4, FamDealCertified)
	impatient.PartyPatience = 40 * sim.Millisecond
	impatient.Network = netsim.PartialSynchrony{GST: 2 * sim.Second, Delta: impatient.Timing.MaxMsgDelay, MaxPreGST: sim.Second}
	b.deal("a certified ring of 4 that loses patience before GST", impatient, FamDealCertified)
}

// managerRows adds the runs that disturb what internal/notary keeps on a
// world, in the order that would show it: a committee of four after a
// committee of one, and of seven after four (as pairs); a committee cut off
// in the middle of a view change — view timers armed, ballots in flight —
// and one that went through dozens of views, each followed by a run that
// decides in view 0; a crashed, a silent, an equivocating and a withholding
// notary, each followed by an honest committee; and the trusted manager
// after a committee.
func managerRows(b *builder) {
	t := b.t
	calm := baseSpec(FamCommittee)
	calm.Crypto = "hmac"
	for _, sizes := range [][2]int{{1, 4}, {4, 7}} {
		small, large := calm, calm
		small.CommitteeSize, large.CommitteeSize = sizes[0], sizes[1]
		a := b.spec(fmt.Sprintf("committee of %d", sizes[0]), small, colsWorld)
		b.pairs = append(b.pairs, [2]int{a, b.spec(fmt.Sprintf("committee of %d", sizes[1]), large, colsWorld)})
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
	u := units(t, new(materialiser), stalls)[0]
	cut := uint64(0)
	for events := uint64(40); cut == 0; events += 10 {
		s := u.s
		s.MaxEvents = events
		res, err := u.p.Run(s)
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
	b.cut("committee", stalls, cut, colsWorld)
	b.spec("committee after the cut", calm, colsWorld)
	b.spec("committee through many views", stalls, colsWorld)
	b.spec("committee after many views", calm, colsWorld)
	for _, behaviour := range []adversary.Behaviour{adversary.Crash, adversary.Silent, adversary.Equivocation, adversary.Withhold} {
		for _, sp := range []Spec{calm, stalls} {
			// notary0 leads view 0, where an equivocator's two proposals go out.
			sp.Faults = map[string]string{core.NotaryID(0): string(behaviour)}
			b.spec(fmt.Sprintf("notary0 %s, %s", behaviour, sp.Net.Kind), sp, colsWorld)
			b.spec("an honest committee after it", calm, colsWorld)
		}
	}
	b.spec("a committee", calm, colsWorld)
	b.spec("the trusted manager after it", baseSpec(FamWeaklive), colsWorld)
}

// TestMuteEquivalence is the muted column: a row run muted, on new worlds,
// computes what its recording reference computed — the same result in every
// field but the trace, the same verdicts down to their Detail, the same
// Outcome and the same Fingerprint, which saw events for a mute variant —
// and keeps no trace. Muting is a retention choice, never an input; C in
// particular is judged from the run's own record, not from trace events.
// Families run in parallel.
func TestMuteEquivalence(t *testing.T) {
	p := population(t)
	t.Parallel()
	byFamily := map[Family][]*row{}
	for _, i := range p.rowsIn(colMuted) {
		byFamily[p.rows[i].sp.Family] = append(byFamily[p.rows[i].sp.Family], p.rows[i])
	}
	for _, fam := range nonTraffic() {
		t.Run(string(fam), func(t *testing.T) {
			t.Parallel()
			for _, r := range byFamily[fam] {
				got := r.observe(t, &worlds{}, false)
				if r.busy && (r.reference(t).ref.traced == 0 || got.fp.Events == 0) {
					t.Fatalf("%s: the reference kept %d trace events, the muted run's fingerprint is %+v", r.name, r.ref.traced, got.fp)
				}
				r.check(t, "muted", got, false, false)
			}
		})
	}
}

// TestWorldReuseEquivalence is the reused-world column: a row run on worlds
// that have run anything before, recording or muted — in population order,
// each row recording and then muted, and in a shuffled order, so every kind
// of run follows every other in either mode; each run straight after itself,
// so a protocol's standing state meets exactly what it left; a long chain
// after a short one and a short one after a long one, per protocol — renders
// byte-equal to its reference, trace included when recording, none kept
// when muted, and moves the process-wide sig counters by exactly as much.
// Reuse is an execution strategy, never an input.
func TestWorldReuseEquivalence(t *testing.T) {
	p := population(t)
	type step struct {
		row    int
		record bool
	}
	compare := func(pass string, order []step) {
		ws := &worlds{}
		for k, s := range order {
			after := "new worlds"
			if k > 0 {
				prev := order[k-1]
				after = fmt.Sprintf("%s (recording %v)", p.rows[prev.row].name, prev.record)
			}
			r := p.rows[s.row]
			r.check(t, fmt.Sprintf("%s, recording %v, after %s", pass, s.record, after), r.observe(t, ws, s.record), s.record, true)
		}
	}
	var order, twice, chains []step
	for _, i := range p.rowsIn(colReuse) {
		order = append(order, step{i, true}, step{i, false})
	}
	compare("in order", order)
	for _, s := range order {
		twice = append(twice, s, s)
	}
	compare("twice back to back", twice)
	for _, pair := range p.pairs {
		for _, record := range []bool{true, false} {
			chains = append(chains, step{pair[0], record}, step{pair[1], record}, step{pair[0], record})
		}
	}
	compare("short, long, short chain", chains)
	rand.New(rand.NewSource(12)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	compare("shuffled", order)
	t.Logf("%d runs compared in four orders, %d chain pairs among them", len(order), len(p.pairs))
}

// TestBackendDifferential120Scenarios is the other-backend column over the
// first 120 generated seeds, every family and both classes: the
// authentication backend realises a primitive the paper's model assumes, so
// a seed run under the other backend than its reference's (ed25519 against
// hmac) must have the same Outcome and, for a payment or a deal, the same
// result — verdicts, settlements, audits, every ledger operation. A
// divergence means a protocol smuggled backend-specific bytes into a
// decision — a bug by construction.
func TestBackendDifferential120Scenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("backend differential sweep is not short")
	}
	p := population(t)
	t.Parallel()
	for _, i := range p.rowsIn(colBackend) {
		r := p.rows[i]
		t.Run(fmt.Sprintf("seed%d_%s", r.sp.Seed, r.sp.Family), func(t *testing.T) {
			other := &row{sp: r.sp}
			other.sp.Crypto = map[string]string{"hmac": "ed25519", "ed25519": "hmac"}[r.sp.Crypto]
			got := other.observe(t, &worlds{}, false)
			a, b := *r.reference(t).out, *got.out
			a.Spec.Crypto, b.Spec.Crypto = "", ""
			if !reflect.DeepEqual(a, b) || got.body != r.ref.body {
				t.Fatalf("%s and %s diverge:\n%+v\n%+v", r.sp.Crypto, other.sp.Crypto, a, b)
			}
		})
	}
}
