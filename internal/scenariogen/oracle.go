package scenariogen

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/deals"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// ViolationKind classifies how a run broke its oracle.
type ViolationKind string

// Violation kinds.
const (
	// KindProperty: a property owed under the spec's class failed.
	KindProperty ViolationKind = "property"
	// KindDifferential: the process and ANTA engines disagreed on a verdict
	// or on the settlements (the value-moving ledger operations) of the same
	// scenario.
	KindDifferential ViolationKind = "differential"
	// KindDeterminism: two runs of the same spec diverged.
	KindDeterminism ViolationKind = "determinism"
	// KindEngine: the engine returned an error on a valid scenario.
	KindEngine ViolationKind = "engine"
	// KindDeal: a deal-protocol guarantee (safety, termination, strong
	// liveness, conservation) failed when owed.
	KindDeal ViolationKind = "deal"
	// KindTraffic: the aggregate traffic oracle failed — a safety-property
	// violation for an honest party, a ledger audit or refund-cascade
	// accounting error, an unsettled lock, or dropped payments in a
	// conforming run whose liquidity was auto-sized to make drops impossible.
	KindTraffic ViolationKind = "traffic"
)

// Violation is one oracle failure: an invariant the paper (or the engine
// contract) promises that the run did not honour. Any Violation found by the
// fuzzer is a bug in the repository, never an expected outcome.
type Violation struct {
	Kind     ViolationKind `json:"kind"`
	Property core.Property `json:"property,omitempty"`
	Detail   string        `json:"detail"`
}

// String renders the violation.
func (v Violation) String() string {
	if v.Property != "" {
		return fmt.Sprintf("%s[%s]: %s", v.Kind, v.Property, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// Outcome is the oracle's evaluation of one generated scenario.
type Outcome struct {
	Spec     Spec   `json:"spec"`
	Class    Class  `json:"class"`
	Protocol string `json:"protocol"`
	// Violations are owed invariants that failed — bugs.
	Violations []Violation `json:"violations,omitempty"`
	// ExpectedFailures are properties that failed where the theorem
	// structure permits (or predicts) failure: liveness and termination
	// under envelope-violating schedules (Theorem 2's content), CS1 for the
	// HTLC baseline (its documented gap).
	ExpectedFailures []core.Property `json:"expectedFailures,omitempty"`
	// Theorem2 marks a violating-class timeout-family run in which the
	// adversarial schedule defeated Definition 1 (a property Theorem 1 owes
	// only in the envelope failed): a rediscovery of the impossibility result
	// by random search.
	Theorem2 bool     `json:"theorem2,omitempty"`
	BobPaid  bool     `json:"bobPaid,omitempty"`
	Duration sim.Time `json:"duration,omitempty"`
	Fingerprint
	// TrafficPayments, TrafficFaulted and TrafficFailed summarise a traffic
	// run: the population size, and its attack footprint — payments whose
	// sub-scenario contained a Byzantine participant, and payments that were
	// admitted but failed. A griefing counterexample is a run with the last
	// two positive and zero Violations.
	TrafficPayments int `json:"trafficPayments,omitempty"`
	TrafficFaulted  int `json:"trafficFaulted,omitempty"`
	TrafficFailed   int `json:"trafficFailed,omitempty"`
}

// Fingerprint is what two runs of one spec must agree on besides duration and
// outcome, so determinism comparisons catch drift that leaves those
// unchanged. It is made of what a muted run keeps: the simulation events
// fired (for a traffic run, over the sub-runs and the timeline), the messages
// sent and delivered, and a digest of the ledgers' operation logs (a traffic
// run, which compares its reruns' whole Results, leaves the last three zero).
type Fingerprint struct {
	Events    uint64 `json:"events,omitempty"`
	Sent      uint64 `json:"sent,omitempty"`
	Delivered uint64 `json:"delivered,omitempty"`
	Ledger    uint64 `json:"ledger,omitempty"`
}

func fingerprint(events uint64, net netsim.Stats, book *ledger.Book) Fingerprint {
	return Fingerprint{Events: events, Sent: net.Sent, Delivered: net.Delivered, Ledger: ledgerDigest(book)}
}

// ledgerDigest folds every ledger's operation log — kind, from, to, amount
// and time of each operation, ledger by ledger in the book's order — into 64
// bits. The ledgers keep their logs muted or not, and every lock, release and
// refund a trace would show is one of these operations.
//
// The fold takes a word a step, an FNV-1a multiply and a rotation: a
// bijection of the running value, so two logs whose words differ in one
// place always digest apart. Each log is prefixed by its operation count and
// each string by its length. A string shorter than eight bytes is one word,
// its length in the top byte over its bytes; a longer one is its length (top
// byte zero), its bytes eight at a time, and the rest, if any, as a shorter
// string. The encoding is injective, so "ab","c" and "a","bc" fold different
// words. The digest is compared only within one process (sameRun): nothing
// persists it.
func ledgerDigest(book *ledger.Book) uint64 {
	h := uint64(digestBasis)
	for _, l := range book.Ledgers() {
		h = foldLog(h, l.Ops())
	}
	return h
}

// digestBasis is where ledgerDigest's fold starts: FNV-1a's offset basis.
const digestBasis = 14695981039346656037

// foldLog folds one ledger's log as ledgerDigest encodes it.
func foldLog(h uint64, ops []ledger.Op) uint64 {
	h = foldWord(h, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		h = foldString(foldString(foldString(h, string(op.Kind)), op.From), op.To)
		h = foldWord(foldWord(h, uint64(op.Amount)), uint64(op.At))
	}
	return h
}

// foldWord is one step of ledgerDigest's fold.
func foldWord(h, v uint64) uint64 { return bits.RotateLeft64((h^v)*1099511628211, 29) }

// foldString folds s as ledgerDigest encodes a string.
func foldString(h uint64, s string) uint64 {
	if len(s) >= 8 {
		h = foldWord(h, uint64(len(s)))
		for ; len(s) >= 8; s = s[8:] {
			h = foldWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		}
		if len(s) == 0 {
			return h
		}
	}
	var v uint64
	for i := len(s) - 1; i >= 0; i-- {
		v = v<<8 | uint64(s[i])
	}
	return foldWord(h, uint64(len(s))<<56|v)
}

// OK reports whether the run honoured every owed invariant.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// guarantee is the Guarantee of the protocol a payment-family spec runs, as
// that protocol states it (TestGuaranteeMatchesEngines holds the two
// together), and the zero Guarantee for the other families.
func (sp *Spec) guarantee() core.Guarantee {
	switch {
	case sp.isTimelockFamily():
		return core.Guarantee{Theorem: core.Theorem1}
	case sp.Family == FamHTLC:
		return core.Guarantee{Theorem: core.Baseline}
	case sp.Family == FamWeaklive:
		return core.Guarantee{Theorem: core.Theorem3}
	case sp.Family == FamCommittee:
		return core.Guarantee{Theorem: core.Theorem3, Notaries: sp.committeeSize()}
	}
	return core.Guarantee{}
}

// checkOptions returns the property-evaluation options for a run of the
// spec's protocol p on its scenario s. The a-priori bound exists for a
// conforming timeout-family spec only: it runs derived windows (TimeoutScale
// 0/1), and the bound is the one p derived them with.
func (sp *Spec) checkOptions(class Class, p core.Protocol, s core.Scenario) check.Options {
	var bound sim.Time
	if tl, ok := p.(*timelock.Protocol); ok && class == ClassConforming {
		bound = tl.ParamsFor(s).Bound
	}
	return check.OptionsFor(p.Guarantee(), bound, sp.PatienceFloor)
}

// managerTrusted applies Theorem 3's trust assumption to the spec's fault
// assignment.
func (sp *Spec) managerTrusted(g core.Guarantee) bool {
	return check.ManagerTrusted(g, func(id string) bool {
		_, faulty := sp.Faults[id]
		return faulty
	})
}

// allPatienceFinite reports whether every customer has finite patience.
func (sp *Spec) allPatienceFinite() bool {
	for i := 0; i <= sp.N; i++ {
		if sp.Patience[core.CustomerID(i)] == 0 {
			return false
		}
	}
	return true
}

// worlds is what one goroutine judges scenarios on: a pair of standing
// worlds, the verdicts of the runs on them, and the materialiser that turns
// each spec into what runs on them. A spec's primary run executes on the
// first world; what is compared against it — the ANTA side of a differential
// spec, the determinism rerun — on the second, so the primary result is
// still valid while it is compared (core.World's lifetime rule). Each world
// is built on first use, and nothing of either, or of the materialiser,
// outlives the next run: an Outcome holds copies only.
type worlds struct {
	w       [2]*core.World
	reports [2]check.Report
	mat     materialiser
}

func (ws *worlds) world(i int) *core.World {
	if ws.w[i] == nil {
		ws.w[i] = core.NewWorld()
	}
	return ws.w[i]
}

// primary is the run a kernel run judges its spec by, as its protocol
// returned it: the payment run with its verdicts, or the deal run. Like the
// worlds it ran on it is valid until they run the next spec; a traffic
// population, or a spec that could not run, has none.
type primary struct {
	res    *core.RunResult
	report *check.Report
	deal   *deals.Result
}

// observe records the primary run's protocol, payment, duration and
// fingerprint on o.
func (o *Outcome) observe(p primary) {
	if d := p.deal; d != nil {
		o.Protocol, o.BobPaid, o.Duration = d.Protocol, d.Outcome.AllTransferred(), d.Duration
		o.Fingerprint = fingerprint(d.EventsFired, d.Stats, d.Book)
		return
	}
	o.Protocol, o.BobPaid, o.Duration = p.res.Protocol, p.res.BobPaid, p.res.Duration
	o.Fingerprint = fingerprint(p.res.EventsFired, p.res.NetStats, p.res.Book)
}

// kernel is the one run every driver makes — Fuzz, Shrink, Replay.Verify,
// Trace and the package tests' equivalence columns: it materialises the spec
// on ws, runs it, recording or muted, judges it into out, and returns the
// primary run. What ws or out held before never reaches either; out's slices
// are written over, so a caller that judges spec after spec keeps one
// Outcome (a Fuzz worker does, and copies only what Stats keeps).
func kernel(sp *Spec, ws *worlds, record bool, out *Outcome) primary {
	out.reset(sp)
	var p primary
	switch {
	case sp.isDeal():
		p.deal = runDeal(sp, out, ws, record)
	case sp.Family == FamTraffic:
		runTraffic(sp, out)
	default:
		p.res, p.report = runPayment(sp, out, ws, record)
	}
	return p
}

// reset makes o the outcome of sp before it ran, keeping o's slices.
func (o *Outcome) reset(sp *Spec) {
	*o = Outcome{Spec: *sp, Class: sp.class(), Violations: o.Violations[:0], ExpectedFailures: o.ExpectedFailures[:0]}
}

// clone returns a copy of o that shares no storage with it, nor with the
// generator that drew its spec.
func (o *Outcome) clone() *Outcome {
	c := *o
	c.Spec = o.Spec.clone()
	c.Violations = own(o.Violations)
	c.ExpectedFailures = own(o.ExpectedFailures)
	return &c
}

// own is a copy of s, nil if s is empty.
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// judge is the kernel as the drivers that keep only the verdict run it:
// muted, no oracle reads a trace.
func judge(sp Spec, ws *worlds, out *Outcome) { kernel(&sp, ws, false, out) }

// verdict is judge into an Outcome of the caller's own.
func verdict(sp Spec, ws *worlds) *Outcome {
	out := new(Outcome)
	judge(sp, ws, out)
	return out
}

// Run executes the spec and evaluates its oracle. Scenario errors are
// reported as violations (the generator never produces invalid specs, and a
// replay file that stopped validating is itself a regression).
func Run(sp Spec) *Outcome { return verdict(sp, &worlds{}) }

// Trace runs the spec once more on worlds of its own, recording, and returns
// the trace of its primary protocol (the process engine of a differential
// pair). Run judges muted; a run is a pure function of its spec, so this is
// the run Run judged, with the transcript a human debugging it wants. A
// traffic population has no one trace, and a scenario whose primary run
// cannot be made has none either: both are errors. What the kernel does
// beside the primary run — the ANTA side, judging, the determinism rerun —
// costs the trace only by panicking: then Trace returns the panic as an
// error.
func Trace(sp Spec) (tr *trace.Trace, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr, err = nil, fmt.Errorf("scenariogen: seed %d panicked: %v", sp.Seed, r)
		}
	}()
	if sp.Family == FamTraffic {
		return nil, fmt.Errorf("scenariogen: a traffic population has no single trace")
	}
	var out Outcome
	p := kernel(&sp, &worlds{}, true, &out)
	switch {
	case p.res != nil:
		return p.res.Trace, nil
	case p.deal != nil:
		return p.deal.Trace, nil
	}
	return nil, errors.New(out.Violations[0].Detail)
}

// runDiff is the first observable on which two runs of one spec differ, by
// its JSON name, with its two values; the zero runDiff means they agree.
type runDiff struct {
	field string
	a, b  any
}

func (d runDiff) String() string { return fmt.Sprintf("%s %v vs %v", d.field, d.a, d.b) }

// sameRun compares two runs of one spec on everything a rerun must
// reproduce: duration, Bob's payment, each fingerprint word and the traffic
// population. It returns the first difference, and builds nothing while the
// runs agree.
func sameRun(a, b *Outcome) runDiff {
	switch {
	case a.Duration != b.Duration:
		return runDiff{"duration", a.Duration, b.Duration}
	case a.BobPaid != b.BobPaid:
		return runDiff{"bobPaid", a.BobPaid, b.BobPaid}
	case a.Events != b.Events:
		return runDiff{"events", a.Events, b.Events}
	case a.Sent != b.Sent:
		return runDiff{"sent", a.Sent, b.Sent}
	case a.Delivered != b.Delivered:
		return runDiff{"delivered", a.Delivered, b.Delivered}
	case a.Ledger != b.Ledger:
		return runDiff{"ledger", a.Ledger, b.Ledger}
	case a.TrafficPayments != b.TrafficPayments:
		return runDiff{"trafficPayments", a.TrafficPayments, b.TrafficPayments}
	}
	return runDiff{}
}

// judgeRerun is the determinism oracle: the spec's primary protocol, run
// once more on the second world, must reproduce the primary run (sameRun).
func judgeRerun(out *Outcome, again primary, err error) {
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindDeterminism, Detail: "rerun errored: " + err.Error()})
		return
	}
	var o Outcome
	o.observe(again)
	if d := sameRun(out, &o); d.field != "" {
		out.Violations = append(out.Violations, Violation{Kind: KindDeterminism, Detail: "rerun diverged: " + d.String()})
	}
}

// runTraffic executes and judges a traffic-family spec: a whole payment
// population on one chain, under the spec's Byzantine fault plan. The oracle
// is the aggregate form of the theorems — zero safety-property failures for
// honest parties at any load and any attacker fraction, every ledger audit
// and the refund-cascade accounting clean, no lock left unsettled — plus the
// engine's own determinism contract: a four-worker rerun must be
// byte-identical to the one-worker run (scheduling never reaches a Result).
func runTraffic(sp *Spec, out *Outcome) {
	s, err := sp.Scenario()
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return
	}
	w, err := sp.TrafficWorkload()
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return
	}
	res, err := traffic.RunWith(s, w, traffic.Config{Workers: 1})
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return
	}
	out.Protocol = "traffic"
	out.BobPaid = res.Succeeded > 0
	out.Duration = res.Makespan
	out.Events = res.SubEventsFired + res.TimelineEvents
	out.TrafficPayments = res.Total
	out.TrafficFaulted = res.FaultedPayments
	out.TrafficFailed = res.Failed + res.Dropped + res.Rejected + res.Errored

	if res.SafetyViolations > 0 {
		detail := fmt.Sprintf("%d safety-property failures for honest parties", res.SafetyViolations)
		if len(res.SafetySample) > 0 {
			detail += ": " + res.SafetySample[0]
		}
		out.Violations = append(out.Violations, Violation{Kind: KindTraffic, Detail: detail})
	}
	if res.AuditErr != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindTraffic, Detail: "ledger audit: " + res.AuditErr.Error()})
	}
	if res.CascadeErr != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindTraffic, Detail: "refund cascade: " + res.CascadeErr.Error()})
	}
	if res.PendingLocks != 0 {
		out.Violations = append(out.Violations, Violation{Kind: KindTraffic, Detail: fmt.Sprintf("%d locks never settled", res.PendingLocks)})
	}
	if out.Class == ClassConforming && sp.Traffic.Liquidity == 0 && res.Succeeded != res.Total {
		out.Violations = append(out.Violations, Violation{
			Kind:   KindTraffic,
			Detail: fmt.Sprintf("honest traffic with auto-sized liquidity settled %d of %d payments", res.Succeeded, res.Total),
		})
	}
	pooled, err := traffic.RunWith(s, w, traffic.Config{Workers: 4})
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindDeterminism, Detail: "4-worker rerun errored: " + err.Error()})
		return
	}
	if res.String() != pooled.String() {
		out.Violations = append(out.Violations, Violation{
			Kind:   KindDeterminism,
			Detail: "4-worker run diverged from the 1-worker run",
		})
	}
	if at := sp.Traffic.CheckpointAt; at > 0 && at < w.Payments {
		checkCheckpoint(s, w, res.String(), at, out)
	}
}

// checkCheckpoint is the checkpoint arm of the determinism oracle: interrupt
// the run at payment `at`, snapshot it to disk, resume the snapshot in a new
// engine, and demand the stitched Result be byte-identical to the
// uninterrupted serial run.
func checkCheckpoint(s core.Scenario, w traffic.Workload, want string, at int, out *Outcome) {
	dir, err := os.MkdirTemp("", "scenariogen-ckpt-*")
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: "checkpoint dir: " + err.Error()})
		return
	}
	defer os.RemoveAll(dir) //nolint:errcheck // temp dir
	path := filepath.Join(dir, "run.ckpt")
	cfg := traffic.Config{Workers: 2, Stream: true, KeepPayments: true, CheckpointPath: path, InterruptAt: at}
	if _, err := traffic.RunWith(s, w, cfg); !errors.Is(err, traffic.ErrInterrupted) {
		out.Violations = append(out.Violations, Violation{
			Kind:   KindDeterminism,
			Detail: fmt.Sprintf("interrupting at payment %d did not stop the run: %v", at, err),
		})
		return
	}
	sn, err := traffic.LoadSnapshot(path)
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindDeterminism, Detail: "checkpoint unloadable: " + err.Error()})
		return
	}
	cfg.InterruptAt = 0
	cfg.Resume = sn
	res, err := traffic.RunWith(s, w, cfg)
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindDeterminism, Detail: "resumed run errored: " + err.Error()})
		return
	}
	if res.String() != want {
		out.Violations = append(out.Violations, Violation{
			Kind:   KindDeterminism,
			Detail: fmt.Sprintf("run resumed from a payment-%d checkpoint diverged from the uninterrupted run", at),
		})
	}
}

// runPayment executes and judges a payment-family spec: protocol i runs on
// world i (a differential spec has two, every other family one), recording
// or muted as the kernel was asked. It returns the primary run and its
// verdicts, nil if that run could not be made; an error on the ANTA side is
// a violation, but leaves the primary run to be returned.
func runPayment(sp *Spec, out *Outcome, ws *worlds, record bool) (*core.RunResult, *check.Report) {
	s, err := ws.mat.scenario(sp)
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return nil, nil
	}
	if !record {
		s = s.Muted()
	}
	protos, err := ws.mat.protocols(sp)
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return nil, nil
	}
	opts := sp.checkOptions(out.Class, protos[0], s)
	var results [len(ws.w)]*core.RunResult
	for i, p := range protos {
		res, err := p.RunIn(ws.world(i), s)
		if err != nil {
			out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: p.Name() + ": " + err.Error()})
			if i == 0 {
				return nil, nil
			}
			return results[0], &ws.reports[0]
		}
		results[i] = res
		ws.reports[i] = check.Evaluate(res, opts)
	}
	first := results[0]
	out.observe(primary{res: first})

	judgeReport(sp, out, protos[0].Guarantee(), &ws.reports[0], first.Duration)
	if sp.Family == FamDifferential {
		var pl, al [core.MaxChain][]ledger.Op
		judgeDifferential(out, &ws.reports, opLogs(pl[:0], results[0].Book), opLogs(al[:0], results[1].Book))
	}
	if sp.wantDeterminism() {
		// The ANTA side, if there was one, has been judged: its world is free.
		q, err := protos[0].RunIn(ws.world(1), s)
		judgeRerun(out, primary{res: q}, err)
	}
	return first, &ws.reports[0]
}

// judgeReport folds one property report into the outcome: owed failures
// become violations, the rest are recorded as expected. The horizon rule
// upgrades slow envelope-violating runs to termination failures.
func judgeReport(sp *Spec, out *Outcome, g core.Guarantee, rep *check.Report, duration sim.Time) {
	// The facts decide only what a failure means: they are observed at the
	// first one.
	var facts check.Facts
	observed := false
	beyondHorizon := out.Class == ClassViolating && duration > Horizon
	for _, p := range core.AllProperties() {
		v, _ := rep.Lookup(p)
		failed := !v.OK()
		if !failed && !(p == core.PropTermination && beyondHorizon) {
			continue
		}
		if !observed {
			facts = check.Facts{
				InEnvelope:     out.Class == ClassConforming,
				ManagerTrusted: sp.managerTrusted(g),
				PatienceFinite: sp.allPatienceFinite(),
			}
			observed = true
		}
		if !check.Owed(g, p, facts) {
			out.ExpectedFailures = append(out.ExpectedFailures, p)
			continue
		}
		detail := v.Detail
		if !failed {
			detail = fmt.Sprintf("run lasted %v, beyond the %v horizon", duration, Horizon)
		}
		out.Violations = append(out.Violations, Violation{Kind: KindProperty, Property: p, Detail: detail})
	}
	// Outside the envelope everything Theorem 1 still owes is a violation, so
	// an expected failure there is one of Theorem 2's defeatable properties.
	out.Theorem2 = out.Class == ClassViolating && g.Theorem == core.Theorem1 && len(out.ExpectedFailures) > 0
}

// judgeDifferential compares the process-engine and ANTA-engine runs of the
// same scenario, by their reports and their ledgers' operation logs: every
// Definition-1 verdict and the settlements must be identical. Divergence
// means one engine drifted from Figure 2.
func judgeDifferential(out *Outcome, reports *[2]check.Report, procLogs, antaLogs [][]ledger.Op) {
	proc, anta := &reports[0], &reports[1]
	for _, p := range core.AllProperties() {
		vp, okP := proc.Lookup(p)
		va, okA := anta.Lookup(p)
		if okP != okA || vp.Applicable != va.Applicable || vp.Holds != va.Holds {
			out.Violations = append(out.Violations, Violation{
				Kind:     KindDifferential,
				Property: p,
				Detail: fmt.Sprintf("process(applicable=%v holds=%v %s) vs anta(applicable=%v holds=%v %s)",
					vp.Applicable, vp.Holds, vp.Detail, va.Applicable, va.Holds, va.Detail),
			})
		}
	}
	if d := settlementDivergence(procLogs, antaLogs); d != "" {
		out.Violations = append(out.Violations, Violation{Kind: KindDifferential, Detail: "process vs anta: " + d})
	}
}

// opLogs appends the operation log of each of the book's ledgers, in the
// book's order, to logs.
func opLogs(logs [][]ledger.Op, book *ledger.Book) [][]ledger.Op {
	for _, l := range book.Ledgers() {
		logs = append(logs, l.Ops())
	}
	return logs
}

// settlementWalk yields the value-moving operations (lock, release, refund,
// transfer — everything but the endowments' mints) of one run's ledger logs,
// merged across ledgers by time, then ledger index, then sequence number.
// Every lock, release or refund event of a recorded trace is the echo of
// exactly one of them.
type settlementWalk struct {
	logs [][]ledger.Op
	next [core.MaxChain]int // next[i] indexes logs[i]; Spec.Validate bounds the chain
}

// step returns the next operation and the index of its ledger, nil at the
// end. A log is in time order, so the merge only compares the logs' heads,
// and a strict comparison leaves equal times to the lower ledger index.
func (w *settlementWalk) step() (*ledger.Op, int) {
	best := -1
	for i, log := range w.logs {
		p := w.next[i]
		for p < len(log) && log[p].Kind == ledger.OpMint {
			p++
		}
		w.next[i] = p
		if p < len(log) && (best < 0 || log[p].At < w.logs[best][w.next[best]].At) {
			best = i
		}
	}
	if best < 0 {
		return nil, -1
	}
	op := &w.logs[best][w.next[best]]
	w.next[best]++
	return op, best
}

// settlementDivergence compares two runs of one scenario by their ledgers'
// operation logs: the engines differ in internal state bookkeeping by design,
// but they must settle the same money between the same parties on the same
// ledgers in the same order. It returns "" when they do and describes the
// first step at which they do not; nothing is built while the runs agree.
func settlementDivergence(a, b [][]ledger.Op) string {
	wa, wb := settlementWalk{logs: a}, settlementWalk{logs: b}
	for i := 0; ; i++ {
		oa, la := wa.step()
		ob, lb := wb.step()
		if oa == nil && ob == nil {
			return ""
		}
		if oa == nil || ob == nil || la != lb || oa.Kind != ob.Kind || oa.From != ob.From || oa.To != ob.To || oa.Amount != ob.Amount {
			return fmt.Sprintf("settlements diverge at step %d: %s vs %s", i, describeSettlement(oa, la), describeSettlement(ob, lb))
		}
	}
}

func describeSettlement(op *ledger.Op, led int) string {
	if op == nil {
		return "nothing"
	}
	return fmt.Sprintf("%s|ledger %d|%s|%s|%d", op.Kind, led, op.From, op.To, op.Amount)
}

// dealProtocol returns the RunIn of the deal protocol a deal-family spec runs.
func (sp *Spec) dealProtocol() func(*core.World, deals.Config) (*deals.Result, error) {
	if sp.Family == FamDealCertified {
		return deals.CertifiedCommit{}.RunIn
	}
	return deals.TimelockCommit{}.RunIn
}

// runDeal executes and judges a deal-family spec against Herlihy et al.'s
// properties: safety and termination unconditionally, strong liveness when
// every party complies under a conforming schedule, plus the ledger audit. It
// returns the deal run, nil if the spec could not run.
func runDeal(sp *Spec, out *Outcome, ws *worlds, record bool) *deals.Result {
	cfg, err := ws.mat.dealConfig(sp)
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return nil
	}
	cfg.MuteTrace = !record
	run := sp.dealProtocol()
	res, err := run(ws.world(0), cfg)
	if err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindEngine, Detail: err.Error()})
		return nil
	}
	out.observe(primary{deal: res})
	o := res.Outcome
	if !o.SafetyHolds() {
		out.Violations = append(out.Violations, Violation{Kind: KindDeal, Detail: "a compliant party ended with an unacceptable payoff"})
	}
	if !o.TerminationHolds() {
		out.Violations = append(out.Violations, Violation{Kind: KindDeal, Detail: "a compliant party's asset stayed escrowed forever"})
	}
	if !o.StrongLivenessHolds() {
		if out.Class == ClassConforming {
			out.Violations = append(out.Violations, Violation{Kind: KindDeal, Detail: "all parties complied under synchrony but the deal did not complete"})
		} else {
			out.ExpectedFailures = append(out.ExpectedFailures, core.PropStrongLiveness)
		}
	}
	if err := res.Book.AuditAll(); err != nil {
		out.Violations = append(out.Violations, Violation{Kind: KindDeal, Detail: "ledger audit: " + err.Error()})
	}
	if sp.wantDeterminism() {
		q, err := run(ws.world(1), cfg)
		judgeRerun(out, primary{deal: q}, err)
	}
	return res
}

// wantDeterminism samples a sixteenth of the seed space for the double-run
// determinism oracle; committee runs are exempt (they are the costliest, and
// internal/weaklive's own tests already pin their determinism).
func (sp *Spec) wantDeterminism() bool {
	return sp.Seed%16 == 0 && sp.Family != FamCommittee
}
