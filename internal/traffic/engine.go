package traffic

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/timelock"
	"repro/internal/weaklive"
)

// Config tunes how a traffic run is scheduled, what it retains and what
// observes it; it never changes what the run computes or how it executes
// (aggregates are identical for every worker count and retention policy).
type Config struct {
	// Workers bounds the goroutines simulating individual payments. Zero
	// means runtime.NumCPU(). 1 is one simulating worker, not serial
	// execution: the producer generating the population and the timeline
	// admitting it (the caller's goroutine) run beside it, up to two of the
	// three runnable at a time — what the benchmark's single-worker
	// workloads size themselves by.
	Workers int
	// Deprecated: ignored; there is one timeline.
	Shards int
	// Stream selects aggregate-only retention: per-payment records are
	// dropped as they settle, so peak memory is independent of
	// Workload.Payments (it scales with the worker count and the number of
	// payments simultaneously in flight) and the latency percentiles come
	// from a log-bucketed histogram. It decides what is retained, never how
	// the run executes.
	Stream bool
	// KeepPayments overrides Stream's retention: Result.Payments holds every
	// per-payment record (as it always does without Stream) and percentiles
	// are exact order statistics, at the cost of one PaymentResult per
	// payment.
	KeepPayments bool
	// Exemplars, in a run that drops per-payment records, retains a
	// deterministic reservoir sample of this many payments in
	// Result.Exemplars so the CLI can still show concrete payments.
	Exemplars int
	// Crypto names the signature backend every payment's protocol run uses
	// ("" keeps the scenario's selection; see sig.BackendNames). The backend
	// realises the model's assumed authentication primitive, so it changes
	// wall-clock cost only — success counts, rates, latencies and audits are
	// identical across backends.
	Crypto string
	// Metrics, if non-nil, receives live run counters: pipeline progress,
	// payment outcomes, latency, queue depth, liquidity and the kernel
	// counters of every engine the run spins up (it overrides the
	// scenario's registry). Observation only: the Result is byte-identical
	// with or without it — TestExecutionLattice's metrics columns enforce
	// this.
	Metrics *metrics.Registry

	// CheckpointEvery, when > 0, writes a resumable snapshot to
	// CheckpointPath after every CheckpointEvery-th admitted payment
	// (atomically: temp file + rename, so a crash mid-write keeps the
	// previous snapshot). A periodic write that fails is counted in
	// MetricCheckpointWriteErrors and skipped — the run carries on over the
	// previous snapshot; only the final snapshot of an interrupted run fails
	// the run when it cannot be written. Like Resume, InterruptAt and Control
	// it never changes what the run computes.
	CheckpointEvery int
	// CheckpointPath is the snapshot file. Required when CheckpointEvery is
	// set; also used for the final snapshot written when the run is
	// interrupted.
	CheckpointPath string
	// Resume, when non-nil, resumes the run from the snapshot instead of
	// starting at payment 0. The snapshot's configuration fingerprint must
	// match this run's (scenario, workload, retention) exactly — RunWith
	// returns a *ConfigMismatchError otherwise. The resumed run's Result is
	// byte-identical to an uninterrupted run (TestExecutionLattice's resume
	// cells).
	Resume *RunSnapshot
	// InterruptAt, when > 0, stops the run just before admitting payment
	// InterruptAt (writing a snapshot when CheckpointPath is set) and makes
	// RunWith return ErrInterrupted. A deterministic test/oracle hook.
	InterruptAt int
	// Control, when non-nil, lets another goroutine interrupt the run at
	// its next arrival boundary (graceful shutdown in xchain-serve).
	Control *Control
}

// workers resolves the worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// keep reports whether per-payment records are retained.
func (c Config) keep() bool { return !c.Stream || c.KeepPayments }

// checkpointing reports whether any checkpoint/resume/interrupt knob is in
// use; only such runs fingerprint their configuration.
func (c Config) checkpointing() bool {
	return c.CheckpointEvery > 0 || c.CheckpointPath != "" || c.Resume != nil ||
		c.InterruptAt > 0 || c.Control != nil
}

// DefaultProtocols returns the built-in protocol registry for workload
// mixes: the names a Workload.Mix may use and the protocol each runs. Each
// instance is stateless across runs and safe to share between worker
// goroutines (a run derives all per-run state from the scenario).
func DefaultProtocols() map[string]core.Protocol {
	return map[string]core.Protocol{
		"timelock":           timelock.New(),
		"timelock-naive":     timelock.NewNaive(),
		"weaklive":           weaklive.New(),
		"weaklive-committee": weaklive.NewCommittee(4),
		"htlc":               htlc.New(),
	}
}

// subOutcome is the precomputed result of one payment's own protocol run.
type subOutcome struct {
	duration sim.Time
	events   uint64
	// fail holds what a run rarely has: nil unless it returned an error or
	// owes safety failures.
	fail *subFailure
	paid bool
	// byz reports whether the payment's sub-scenario contained any Byzantine
	// participant (static fault, injected plan fault, or manager outage).
	byz bool
}

// subFailure is the rare part of a sub-outcome.
type subFailure struct {
	err error
	// safety lists the owed consistency and safety-property failures of the
	// sub-run, already formatted for Result.SafetySample. Theorems 1 and 3
	// owe these to honest parties in every execution, so any entry here is
	// an aggregate oracle violation — liveness failures under faults are
	// expected damage and are never listed.
	safety []string
}

// err returns the error the sub-run returned, or nil.
func (o *subOutcome) err() error {
	if o.fail == nil {
		return nil
	}
	return o.fail.err
}

// safety returns the owed safety failures of the sub-run.
func (o *subOutcome) safety() []string {
	if o.fail == nil {
		return nil
	}
	return o.fail.safety
}

// protocols is a run's protocol mix resolved against a registry: entry i of
// the workload's mix (Workload.mix) is named names[i] and runs runs[i], and a
// payment's proto indexes both.
type protocols struct {
	names []string
	runs  []core.Protocol
}

// resolveProtocols resolves w's mix against registry. Every generated
// payment's protocol comes from the mix, so resolving it validates the
// population without generating it.
func resolveProtocols(w Workload, registry map[string]core.Protocol) (protocols, error) {
	var ps protocols
	for _, m := range w.mix() {
		proto, ok := registry[m.Name]
		if !ok {
			return protocols{}, fmt.Errorf("traffic: workload mixes unknown protocol %q", m.Name)
		}
		ps.names = append(ps.names, m.Name)
		ps.runs = append(ps.runs, proto)
	}
	return ps, nil
}

// simulator is one simulating worker's standing state: the world its
// payments run on, the scenario each payment's sub-run is written into
// (subScenario) with the hop amounts and the fault and patience maps it
// points at, and the report and the list its safety failures are judged
// from. Like the world, it is confined to its worker.
type simulator struct {
	w          *core.World
	commission int64 // the workload's: a hop's amount is derived from it
	sub        core.Scenario
	amounts    []int64
	faults     map[string]core.FaultSpec
	patience   map[string]sim.Time
	rep        check.Report
	failed     []core.Property
}

func newSimulator(commission int64) *simulator {
	return &simulator{w: core.NewWorld(), commission: commission}
}

// setFault gives participant id fault f in the worker's fault map.
func (sm *simulator) setFault(id string, f core.FaultSpec) {
	if sm.faults == nil {
		sm.faults = map[string]core.FaultSpec{}
	}
	sm.faults[id] = f
}

// simulateOne runs one payment's protocol simulation and evaluates the
// theorem-shaped safety checkers on its result; a pure function of
// (base scenario, compiled plan, payment). The run executes in the worker's
// standing world; the result is consumed here, before the world's next
// Reset, and nothing of it escapes.
func (sm *simulator) simulateOne(base *core.Scenario, plan *compiledPlan, p *payment, ps *protocols) subOutcome {
	sub := sm.subScenario(base, plan, p)
	proto := ps.runs[p.proto]
	g := proto.Guarantee()
	if plan != nil && g.Theorem == core.Theorem3 && plan.managerActive(p.Arrival) {
		if !sub.FaultOf(core.ManagerID).IsByzantine() {
			sm.setFault(core.ManagerID, plan.manager.spec)
			sub.Faults = sm.faults
		}
	}
	byz := len(sub.Faults) > 0
	r, err := proto.RunIn(sm.w, *sub)
	if err != nil {
		return subOutcome{byz: byz, fail: &subFailure{err: err}}
	}
	out := subOutcome{paid: r.BobPaid, duration: r.Duration, events: r.EventsFired, byz: byz}
	// Aggregate safety oracle: every sub-run — honest or faulted — must
	// satisfy consistency and the safety half of Definition 1/2 (escrow
	// security, the customer-safety triple, certificate consistency for
	// manager-based protocols, conservation) wherever check.Owed says the
	// covering theorem owes it. A faulted sub-run is outside the envelope;
	// patience plays no part, as none of these is conditional on it.
	rep := &sm.rep
	rep.Evaluate(r, check.OptionsFor(g, 0, 0))
	failed := sm.failed[:0]
	if rep.Failed(core.PropConsistency) {
		failed = append(failed, core.PropConsistency)
	}
	failed = rep.AppendSafetyFailures(failed)
	sm.failed = failed
	for _, prop := range failed {
		facts := check.Facts{
			InEnvelope:     !byz,
			ManagerTrusted: check.ManagerTrusted(g, func(id string) bool { return sub.FaultOf(id).IsByzantine() }),
		}
		if !check.Owed(g, prop, facts) {
			continue
		}
		if out.fail == nil {
			out.fail = &subFailure{}
		}
		out.fail.safety = append(out.fail.safety,
			fmt.Sprintf("%s %s (%s): %s", p.ID, prop, ps.names[p.proto], rep.Verdict(prop).Detail()))
	}
	return out
}

// Run executes the workload against the scenario's chain with the default
// configuration (one worker per CPU, every per-payment record kept).
func Run(s core.Scenario, w Workload) (*Result, error) {
	return RunWith(s, w, Config{})
}

// RunWith executes the workload against the scenario's chain.
//
// The execution has three deterministic stages, run as one bounded pipeline:
//
//  1. Generation: the payment population (arrivals, routes, sizes,
//     protocols, private seeds) is derived from (Scenario.Seed, Workload),
//     in fixed-size chunks.
//  2. Simulation: every payment's protocol run executes on the existing
//     single-run sim engine, in its worker's standing world. Each run is a
//     pure function of its sub-scenario, so the worker pool simulates chunks
//     as they appear without affecting results.
//  3. Admission timeline: a discrete-event simulation consumes the
//     sub-outcomes in arrival order with bounded lookahead, against the
//     shared escrow chain. Admission first reads each hop's payer balance
//     and, only when every hop fits, reserves each hop's amount as an escrow
//     lock on the traffic ledger of that hop (a payment with an exhausted
//     hop queues on that hop's account or fails, touching no ledger), and
//     settlement — at the virtual time the payment's own run finished —
//     releases the locks downstream on success or refunds them on failure,
//     re-trying the waiters of exactly the accounts a refund credited; each
//     payment's fate is aggregated the moment it settles.
//
// Every run executes this way; Config.Stream and Config.KeepPayments only
// decide whether the per-payment records are kept once aggregated. For the
// same inputs every aggregate — counts, rates, exact latency mean and max,
// volume, ledger audits — is byte-identical across worker counts and
// retention policies; only the latency percentiles differ when per-payment
// records are dropped (log-bucketed histogram estimates, ≤1% relative
// error, see stats.Histogram).
//
// The returned Result's liquidity Book always passes ledger.Audit: locks
// only move value between reservation and settlement, so no value is
// conjured or lost no matter how heavy the contention.
func RunWith(s core.Scenario, w Workload, cfg Config) (*Result, error) {
	if s.Topology.N < 1 {
		return nil, fmt.Errorf("traffic: scenario topology has no escrows")
	}
	if s.Network == nil {
		return nil, fmt.Errorf("traffic: scenario has no network model")
	}
	if cfg.Crypto != "" {
		s.Crypto = cfg.Crypto
	}
	if _, ok := sig.BackendByName(s.Crypto); !ok {
		return nil, fmt.Errorf("traffic: unknown crypto backend %q (have %v)", s.Crypto, sig.BackendNames())
	}
	if err := w.Validate(s.Topology); err != nil {
		return nil, err
	}
	ps, err := resolveProtocols(w, DefaultProtocols())
	if err != nil {
		return nil, err
	}

	// Config.Metrics overrides the scenario's registry; either way the
	// scenario carries it so every payment's sub-run inherits the shared
	// counters through subScenario.
	if cfg.Metrics != nil {
		s.Metrics = cfg.Metrics
	}
	rm := NewRunMetrics(s.Metrics)

	// The fault plan compiles once, up front, into an immutable schedule all
	// workers read: which connectors are Byzantine, with which behaviour,
	// over which windows. A nil plan is the honest fast path.
	plan := w.Faults.compile(s)

	res := &Result{
		Chain:               s.Topology.N,
		Seed:                s.Seed,
		Workload:            w,
		ByzantineConnectors: plan.connectors(),
	}

	// Checkpoint/resume wiring: fingerprint the run, reject a foreign
	// snapshot, and build the boundary driver.
	if cfg.CheckpointEvery < 0 || cfg.InterruptAt < 0 {
		return nil, fmt.Errorf("traffic: negative CheckpointEvery or InterruptAt")
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("traffic: CheckpointEvery requires CheckpointPath")
	}
	exemplars := 0
	if !cfg.keep() {
		exemplars = cfg.Exemplars
	}
	var ck *checkpointer
	resume := cfg.Resume
	skip := 0
	if cfg.checkpointing() {
		hash, doc, err := fingerprintOf(s, w, cfg.keep(), exemplars).canonical()
		if err != nil {
			return nil, err
		}
		if resume != nil {
			if resume.ConfigHash != hash {
				return nil, &ConfigMismatchError{SnapshotHash: resume.ConfigHash, RunHash: hash, Config: resume.Config}
			}
			if err := resume.validate(s.Topology.N, w, &ps, cfg.keep(), exemplars); err != nil {
				return nil, err
			}
			skip = resume.NextIndex
		}
		ck = &checkpointer{
			every:       cfg.CheckpointEvery,
			path:        cfg.CheckpointPath,
			hash:        hash,
			config:      doc,
			interruptAt: cfg.InterruptAt,
			ctl:         cfg.Control,
			total:       w.Payments,
		}
	}

	// Every payment runs under the base scenario's key seed (subScenario):
	// derive it here, once — after the fingerprint, which records the seed as
	// the caller gave it.
	s.KeySeed = s.DerivedKeySeed()

	if cfg.keep() {
		res.Payments = make([]PaymentResult, w.Payments)
	}
	// Workers beyond the number of chunks would idle; the cap also keeps a
	// caller-chosen count from sizing the pipeline's channels. Only the
	// timeline needs the book, so the pipeline starts first: its workers
	// simulate the first chunks while the book is built.
	src := newStreamSource(s, w, plan, &ps, min(cfg.workers(), w.Payments/chunkSize+1), rm, skip)
	// An interrupted run leaves the pipeline mid-stream; closing it releases
	// the producer and worker goroutines.
	defer src.close()
	if resume != nil {
		res.Book = restoreBook(s, resume)
	} else {
		var demand []int64
		if w.Liquidity <= 0 {
			// Auto-sizing needs the whole population's worst-case demand; a
			// generator pass of its own computes it in O(topology) memory.
			demand = w.demand(s)
		}
		res.Book = newLiquidityBook(s, w, demand)
	}
	if err := executeTimeline(res, src, w, &ps, plan, cfg.keep(), exemplars, s.Metrics, rm, ck, resume); err != nil {
		return nil, err
	}
	return res, nil
}

// executeTimeline drives the admission timeline over the payment source and
// finalises every aggregate of res.
func executeTimeline(res *Result, src paymentSource, w Workload, ps *protocols, plan *compiledPlan, keep bool, exemplars int, reg *metrics.Registry, rm RunMetrics, ck *checkpointer, snap *RunSnapshot) error {
	return newTimeline(res, w, ps, plan, keep, exemplars, reg, rm, snap).execute(src, ck, snap)
}

// newTimeline builds the admission timeline of one run over res.Book, its
// aggregator fresh or restored from snap. The timeline's queue is the run's
// authoritative virtual clock, so it (and only it) carries the virtual-time
// watermark gauge.
func newTimeline(res *Result, w Workload, ps *protocols, plan *compiledPlan, keep bool, exemplars int, reg *metrics.Registry, rm RunMetrics, snap *RunSnapshot) *timeline {
	var agg *aggregator
	if snap != nil {
		agg = restoredAggregator(res, keep, exemplars, snap)
	} else {
		agg = newAggregator(res, keep, exemplars)
	}
	agg.m = rm
	tl := &timeline{
		res:     res,
		agg:     agg,
		w:       w,
		ps:      ps,
		plan:    plan,
		m:       rm,
		waiters: make([][]*flight, res.Chain),
	}
	for i := 0; i < res.Chain; i++ {
		l := res.Book.MustGet(core.EscrowID(i))
		tl.ledgers = append(tl.ledgers, l)
		tl.payers = append(tl.payers, l.PID(core.CustomerID(i)))
		tl.payees = append(tl.payees, l.PID(core.CustomerID(i+1)))
	}
	m := sim.MetricsFrom(reg)
	if reg != nil {
		m.Watermark = reg.Gauge(sim.MetricVirtualTimeMs, "Virtual time of the traffic admission timeline in milliseconds.")
	}
	tl.q.SetMetrics(m)
	return tl
}

// execute runs the timeline to the end of src — from snap's state when
// resuming — and finalises every aggregate of the run's Result.
func (t *timeline) execute(src paymentSource, ck *checkpointer, snap *RunSnapshot) error {
	if snap != nil {
		t.restore(snap)
	} else {
		t.scheduleMarks()
	}
	if err := t.run(src, ck); err != nil {
		return err
	}
	t.drain()
	res := t.res
	// The timeline's own events: what its queue fired, and every arrival.
	_, _, fired := t.q.Clock()
	res.TimelineEvents = fired + uint64(t.w.Payments)
	// Refund-cascade accounting: every unit the timeline ever locked must
	// have been released or refunded exactly once by the end of the run.
	if res.CascadeErr == nil && t.lockedNow != 0 {
		res.CascadeErr = fmt.Errorf("traffic: %d units still locked after the last settlement", t.lockedNow)
	}
	t.agg.finalize(res)
	return nil
}

// paymentSource yields the payment population in arrival (= index) order,
// each paired with its precomputed protocol sub-outcome: the pipeline in
// every run, a slice in the tests' serial reference.
type paymentSource interface {
	next() (*payment, subOutcome, bool)
}

// chunkSize is the number of payments a pipeline chunk carries. Large
// enough to amortise channel traffic, small enough that the bounded number
// of in-flight chunks keeps peak memory flat.
const chunkSize = 512

// chunk is one unit of pipeline work: a run of consecutive payments and
// their sub-outcomes. done receives once the chunk is fully simulated. Once
// the consumer has moved past a chunk — a flight copies what it reads of its
// payment — it goes back to the producer through free, and the next
// payments are written over it.
type chunk struct {
	pays []payment
	subs []subOutcome
	done chan struct{}
	free chan<- *chunk
}

// streamSource is the bounded three-stage pipeline every run executes. A
// producer goroutine generates chunks serially (the RNG stream is inherently
// sequential) and hands each to the worker pool and, in order, to the
// consumer; workers simulate whole chunks; the consumer blocks until the
// next in-order chunk is simulated. The ordered channel's capacity bounds
// how many chunks exist at once, so memory is O(workers·chunkSize) plus
// whatever is in flight in the timeline — independent of the population
// size.
type streamSource struct {
	ordered <-chan *chunk
	cur     *chunk
	i       int
	m       RunMetrics

	// stop releases the producer when the consumer abandons the pipeline
	// mid-stream (an interrupted run); close is idempotent.
	stop     chan struct{}
	stopOnce sync.Once
}

func newStreamSource(s core.Scenario, w Workload, plan *compiledPlan, ps *protocols, workers int, rm RunMetrics, skip int) *streamSource {
	depth := workers + 2
	ordered := make(chan *chunk, depth)
	work := make(chan *chunk, depth)
	// free holds chunks for reuse: about as many as the queues and the
	// workers hold at once. A chunk that finds it full is left to the
	// garbage collector.
	free := make(chan *chunk, 2*depth+workers)
	stop := make(chan struct{})
	go func() {
		defer close(ordered)
		defer close(work)
		g := w.newGenerator(s)
		g.skip(skip)
		for {
			var c *chunk
			select {
			case c = <-free:
			default:
				// Sized once for what is left to generate: a chunk is never
				// regrown, and a short run's last one is no longer than its tail.
				c = &chunk{pays: make([]payment, 0, min(chunkSize, g.left())), done: make(chan struct{}, 1), free: free}
			}
			pays, n := c.pays[:cap(c.pays)], 0
			for ; n < chunkSize && g.left() > 0; n++ {
				if n == len(pays) {
					pays = append(pays, payment{})
				}
				g.next(&pays[n])
			}
			if n == 0 {
				break
			}
			c.pays = pays[:n]
			cutIDs(c.pays)
			c.subs = slices.Grow(c.subs[:0], n)[:n]
			rm.Generated.Add(uint64(len(c.pays)))
			rm.ChunksGenerated.Inc()
			select {
			case work <- c:
			case <-stop:
				return
			}
			select {
			case ordered <- c:
			case <-stop:
				return
			}
		}
	}()
	for i := 0; i < workers; i++ {
		go func() {
			var sm *simulator // built on the first chunk: short runs use few
			// The worker's own shards of the counters it bumps.
			simulated, chunks := rm.Simulated.Shard(), rm.ChunksSimulated.Shard()
			for c := range work {
				if sm == nil {
					sm = newSimulator(w.Commission)
				}
				for j := range c.pays {
					c.subs[j] = sm.simulateOne(&s, plan, &c.pays[j], ps)
					simulated.Inc()
				}
				chunks.Inc()
				c.done <- struct{}{}
			}
		}()
	}
	return &streamSource{ordered: ordered, m: rm, stop: stop}
}

// close releases the pipeline's producer goroutine. Harmless after normal
// exhaustion; required when an interrupted run abandons the stream early.
func (s *streamSource) close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// next returns the next payment, valid until the following call: the chunk
// is recycled once the consumer has moved past it. A full free queue drops
// it for the garbage collector.
func (s *streamSource) next() (*payment, subOutcome, bool) {
	for s.cur == nil || s.i == len(s.cur.pays) {
		if s.cur != nil {
			select {
			case s.cur.free <- s.cur:
			default:
			}
			s.cur = nil
		}
		c, ok := <-s.ordered
		if !ok {
			return nil, subOutcome{}, false
		}
		<-c.done
		s.m.ChunksConsumed.Inc()
		s.cur, s.i = c, 0
	}
	p, sub := &s.cur.pays[s.i], s.cur.subs[s.i]
	s.i++
	return p, sub, true
}

// newLiquidityBook builds the traffic-level escrow book: one ledger per
// escrow of the chain, with both adjacent customers holding accounts. With
// Workload.Liquidity set, each account is endowed with exactly that much;
// otherwise c_e is endowed on e_e with demand[e], the worst-case demand of
// the locks it pays there (Workload.demand), so liquidity never binds, and
// c_{e+1}, which only collects on e_e, with nothing. Traffic ledgers run
// compacted: settled locks and op-log entries are dropped as they settle,
// keeping ledger memory proportional to pending locks rather than to the
// payment count.
func newLiquidityBook(s core.Scenario, w Workload, demand []int64) *ledger.Book {
	book := ledger.NewBook()
	lm := ledger.MetricsFrom(s.Metrics, "traffic")
	for i := 0; i < s.Topology.N; i++ {
		l := ledger.New(core.EscrowID(i))
		l.SetCompact(true)
		wireLiquidityGauges(s, lm, l)
		endow := [2]int64{w.Liquidity, w.Liquidity}
		if w.Liquidity <= 0 {
			endow = [2]int64{demand[i], 0}
		}
		for j, owner := range [2]string{core.CustomerID(i), core.CustomerID(i + 1)} {
			if endow[j] > 0 {
				l.Mint(0, owner, endow[j]) //nolint:errcheck // amount > 0 by construction
			} else {
				l.CreateAccount(owner) //nolint:errcheck // fresh ledger, no duplicates
			}
		}
		book.Add(l)
	}
	return book
}

// wireLiquidityGauges attaches the per-ledger liquidity gauges (traffic
// ledgers are only touched by the timeline goroutine, so the gauges stay
// consistent) and syncs them to the ledger's current totals — zero for a
// fresh ledger, the restored split for a checkpoint-restored one.
func wireLiquidityGauges(s core.Scenario, lm ledger.Metrics, l *ledger.Ledger) {
	if s.Metrics == nil {
		return
	}
	m := lm
	m.Available = s.Metrics.Gauge(ledger.MetricLiquidityAvailable,
		"Available (unescrowed) traffic liquidity.", "ledger", l.Name())
	m.Escrowed = s.Metrics.Gauge(ledger.MetricLiquidityEscrowed,
		"Traffic liquidity held in pending locks.", "ledger", l.Name())
	m.ByzantineEscrowed = s.Metrics.Gauge(ledger.MetricLiquidityByzantine,
		"Traffic liquidity held in locks owned by Byzantine parties.", "ledger", l.Name())
	l.SetMetrics(m)
	m.Available.Set(float64(l.AccountsTotal()))
	m.Escrowed.Set(float64(l.EscrowedTotal()))
	m.ByzantineEscrowed.Set(float64(l.ByzantineEscrowed()))
}

// flight is the per-payment runtime state the timeline tracks between
// arrival and settlement: what it reads of the payment and its sub-outcome,
// copied out of its chunk at arrival; how and when it was admitted, which is
// what its locks are — the ledgers hold them (ledger.Hold) and the flight
// keeps their record; its pending event; and, while waiting for liquidity,
// where it is filed among the waiters. It holds no pointer, so the garbage
// collector never scans a flight. Finished flights are reused, so the
// timeline's memory tracks the number of in-flight and queued payments, not
// the population size.
//
// A settlement reads the first 64 bytes alone, unless the run keeps or
// samples records or the payment's sub-run errored; the fields are in that
// order.
type flight struct {
	// The payment's route c_sender -> c_receiver, what c_receiver collects
	// (each hop's amount derives from it: amountVia) and its arrival.
	sender, receiver int32
	base             int64
	arrival          sim.Time
	// start is when the payment was admitted.
	start sim.Time
	// The sub-outcome (see subOutcome): the events the payment's own run
	// fired, how long it took, whether it paid, whether it was faulted and
	// whether it returned an error (timeline.errs keeps which).
	events             uint64
	duration           sim.Time
	paid, byz, errored bool
	// queued says an admitted payment waited first; inQueue that the payment
	// waits now; finished that the flight is free for newFlight (recycle),
	// which capture skips.
	queued, inQueue, finished bool
	// ix is the flight's index among the timeline's (flightAt): what its
	// events name. next links a finished flight to the next one newFlight
	// reuses (timeline.free), as its ix plus one.
	next, ix int32

	// index and proto are the payment's index and protocol (an index into the
	// run's protocols); its ID is rendered from index and route when read.
	index int
	proto int32
	// attempts is the number of admission attempts the payment had made when
	// it was admitted: its locks are attempt attempts-1's. A queued flight's
	// count runs with the timeline's pass counter instead: passes-passBase.
	attempts int32
	// While queued: refused is the escrow whose payer account could not cover
	// the last attempt, slot the flight's position among that account's
	// waiters (expiry removes it in O(1)).
	refused, slot int32
	passBase      int
	// seq is the seq of the flight's pending event: the queue expiry while
	// queued, the settlement while in flight. An expiry whose seq it no longer
	// is was cancelled.
	seq uint64
}

// hops returns the number of escrows the payment crosses.
func (f *flight) hops() int { return int(f.receiver - f.sender) }

// amountVia returns the amount locked on escrow e_{sender+k} (see
// payment.amountVia).
//
//xchain:hotpath
func (f *flight) amountVia(k int, commission int64) int64 {
	return hopAmount(f.base, f.hops(), k, commission)
}

// id renders the payment's ID (payment.appendID).
func (f *flight) id() string {
	p := payment{Index: f.index, Sender: int(f.sender), Receiver: int(f.receiver)}
	return string(p.appendID(nil))
}

// lockID renders the ID of the payment's lock on every hop of its route:
// "<id>#<attempt>", of the attempt that admitted it.
func (f *flight) lockID() string {
	return f.id() + "#" + strconv.Itoa(int(f.attempts)-1)
}

// timeline replays arrivals, admission, queuing and settlement on its
// event queue, feeding each payment's terminal record to the aggregator
// (and, when retained, to res.Payments). An entry of q is a flight's
// settlement or queue expiry, or a Byzantine-status mark, naming its flight
// (flightAt) or mark (marks) by ref: neither an entry nor a flight holds a
// pointer, so the garbage collector never scans the thousands a run has in
// flight.
type timeline struct {
	q    sim.Queue
	res  *Result
	agg  *aggregator
	w    Workload
	ps   *protocols // the run's, which a payment's proto indexes
	plan *compiledPlan
	m    RunMetrics

	// ledgers[e] is escrow e_e's traffic ledger, and payers[e] and payees[e]
	// are c_e's and c_{e+1}'s PIDs on it, resolved once. Every lock on e_e is
	// paid by c_e, so one balance per escrow — Balance(c_e) on e_e — decides
	// admission there.
	ledgers        []*ledger.Ledger
	payers, payees []sim.PID

	// waiters[e] holds the queued flights whose last attempt was refused by
	// c_e's balance on e_e, in no particular order; woken is the scratch list
	// of one drain pass. passes counts settlements: a queued payment's
	// attempt number is the number of passes it has sat through, which is
	// what walking the whole queue on every settlement used to make it.
	waiters  [][]*flight
	woken    []*flight
	passes   int
	qlen     int
	inFlight int

	// lockedNow is the refund-cascade accounting counter: units currently
	// held in traffic-level locks, incremented at admission and decremented
	// at settlement (release or refund). It must never go negative and must
	// return to zero by the end of the run — the instant-by-instant form of
	// the conservation audit.
	lockedNow int64
	// byzHeld is the value held in locks whose payer is marked Byzantine,
	// summed over the ledgers: moved by each admission's, settlement's and
	// mark's change to its ledgers' ByzantineEscrowed.
	byzHeld int64
	// byzConn counts connectors currently inside a fault window (drives the
	// live gauge).
	byzConn int

	// errs holds, by payment index, the error of each live flight whose
	// sub-run returned one (flight.errored): what capture writes.
	errs map[int]error
	// marks are the plan's Byzantine-status transitions after t=0, in the
	// order they were scheduled; a mark event names its index.
	marks []mark

	// blocks hold the flights (flightAt), made is how many there are, and
	// free links the finished ones newFlight reuses, as the first one's ix
	// plus one (0: none); pr is where finish writes a record the run does not
	// keep.
	blocks [][]flight
	made   int32
	free   int32
	pr     PaymentResult
	// afterPass, when set (tests only), runs at the end of every drain pass
	// with the flight whose settlement started it.
	afterPass func(settled *flight)
}

// mark is a scheduled Byzantine-status transition: connector c_index turns
// Byzantine (on) or honest at its event's coordinates (at, seq), while
// pending.
type mark struct {
	at      sim.Time
	seq     uint64
	index   int
	on      bool
	pending bool
}

// scheduleMarks replays the plan's Byzantine-status transitions on the
// timeline: marks at t=0 (static faults) apply immediately; later ones
// become ordinary events, so ledger tagging interleaves deterministically
// with arrivals and settlements.
func (t *timeline) scheduleMarks() {
	if t.plan == nil {
		return
	}
	for _, mk := range t.plan.marks() {
		if mk.at <= 0 {
			t.setByzantine(mk.index, mk.on)
			continue
		}
		e := t.q.Schedule(mk.at, int32(len(t.marks)), markEvent)
		t.marks = append(t.marks, mark{at: e.At, seq: e.Seq, index: mk.index, on: mk.on, pending: true})
	}
}

// setByzantine tags connector c_idx's accounts on its two adjacent traffic
// ledgers, so liquidity held in the connector's locks is observable as
// Byzantine-held (lock-and-abandon griefing shows up directly).
func (t *timeline) setByzantine(idx int, on bool) {
	owner := core.CustomerID(idx)
	for _, e := range []int{idx - 1, idx} {
		if e >= 0 && e < t.res.Chain {
			l := t.ledgers[e]
			byz := l.ByzantineEscrowed()
			l.SetByzantine(l.PID(owner), on)
			t.byzHeld += l.ByzantineEscrowed() - byz
		}
	}
	if on {
		t.byzConn++
	} else {
		t.byzConn--
	}
	t.m.ByzConnectors.Set(float64(t.byzConn))
	t.observeByzHeld()
}

// observeByzHeld tracks the peak of the value currently locked by Byzantine
// payers across the book, in a run with a fault plan.
//
//xchain:hotpath
func (t *timeline) observeByzHeld() {
	if t.plan == nil {
		return
	}
	t.m.ByzHeld.Set(float64(t.byzHeld))
	if t.byzHeld > t.res.PeakByzantineHeld {
		t.res.PeakByzantineHeld = t.byzHeld
	}
}

// run drives the timeline through the arrivals: for each payment, fire every
// pending event strictly before its arrival, then process the arrival —
// exactly the event order a run scheduling all arrivals up front (with the
// lowest sequence numbers) would produce, without ever holding more than the
// in-flight window in memory. drain fires what is left.
func (t *timeline) run(src paymentSource, ck *checkpointer) error {
	for {
		p, sub, ok := src.next()
		if !ok {
			break
		}
		t.fire(p.Arrival - 1)
		t.q.AdvanceTo(p.Arrival)
		t.arrive(p, sub)
		if ck != nil {
			if err := ck.boundary(t, p.Index+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// drain fires every event left after the last arrival: the settlements and
// queue expiries of the payments still in flight or waiting, with no arrival
// to interleave. On an open workload most of a run's settlements fire here.
func (t *timeline) drain() {
	t.fire(sim.Never)
}

// fire fires, in (at, seq) order, every live event due by until, discarding
// the cancelled ones it meets at the root.
//
//xchain:hotpath
func (t *timeline) fire(until sim.Time) {
	for {
		e, ok := t.q.Peek()
		if !ok {
			break
		}
		if !t.live(&e) {
			t.q.Discard()
			continue
		}
		if e.At > until {
			break
		}
		t.q.Fire()
		switch e.Kind {
		case settleEvent:
			t.settle(t.flightAt(e.Ref))
		case expireEvent:
			t.expire(t.flightAt(e.Ref))
		default:
			t.fireMark(e.Ref)
		}
	}
}

// Event kinds of the timeline's queue entries: a flight's settlement or
// queue expiry, or a mark.
const (
	settleEvent uint8 = iota
	expireEvent
	markEvent
)

// live reports whether e is still due. Only a queue expiry is ever
// cancelled: its flight left the queue, and its seq moved on.
//
//xchain:hotpath
func (t *timeline) live(e *sim.Entry) bool {
	if e.Kind != expireEvent {
		return true
	}
	f := t.flightAt(e.Ref)
	return f.inQueue && f.seq == e.Seq
}

// fireMark applies mark i.
func (t *timeline) fireMark(i int32) {
	mk := &t.marks[i]
	mk.pending = false
	t.setByzantine(mk.index, mk.on)
}

// arrive admits, queues or rejects one payment at its arrival instant.
//
//xchain:hotpath
func (t *timeline) arrive(p *payment, sub subOutcome) {
	now := t.q.Now()
	f := t.newFlight()
	f.sender, f.receiver, f.base, f.arrival = int32(p.Sender), int32(p.Receiver), p.Base, p.Arrival
	f.events, f.duration, f.paid, f.byz = sub.events, sub.duration, sub.paid, sub.byz
	f.index, f.proto = p.Index, int32(p.proto)
	if err := sub.err(); err != nil {
		f.errored = true
		if t.errs == nil {
			t.errs = map[int]error{}
		}
		t.errs[p.Index] = err
	}
	if pr := t.res.Payments; pr != nil {
		// A kept record's identity is written now, from the payment itself.
		t.identify(&pr[p.Index], p.ID, f)
	}
	if safety := sub.safety(); len(safety) > 0 {
		// Aggregate safety oracle: arrivals are processed in generation
		// order, so the violation count and its sample are deterministic.
		t.res.SafetyViolations += len(safety)
		t.m.SafetyViolations.Add(uint64(len(safety)))
		for _, detail := range safety {
			if len(t.res.SafetySample) < maxSafetySample {
				t.res.SafetySample = append(t.res.SafetySample, detail)
			}
		}
	}
	if t.admit(f, now, 0) {
		t.start(f, now)
		return
	}
	if t.w.QueuePatience <= 0 || (t.w.MaxQueue > 0 && t.qlen >= t.w.MaxQueue) {
		t.finish(f, StatusRejected, now, "")
		t.recycle(f)
		return
	}
	f.passBase = t.passes - 1 // the arrival was attempt 0
	f.seq = t.q.Schedule(now+t.w.QueuePatience, f.ix, expireEvent).Seq
	t.enqueue(f)
}

// expire is the queue-expiry action of a flight: the payment's patience ran
// out before capacity freed up.
//
//xchain:hotpath
func (t *timeline) expire(f *flight) {
	t.unfile(f)
	t.dequeue(f)
	t.finish(f, StatusDropped, t.q.Now(), t.dropCause(f))
	t.recycle(f)
}

// flightBlock is how many flights a block holds: flights are made in blocks
// that never move, so flight ix stays at flightAt(ix).
const flightBlock = 256

// flightAt returns flight ix.
//
//xchain:hotpath
func (t *timeline) flightAt(ix int32) *flight {
	return &t.blocks[ix/flightBlock][ix%flightBlock]
}

// newFlight returns a zeroed flight, recycled or new.
//
//xchain:hotpath
func (t *timeline) newFlight() *flight {
	if t.free > 0 {
		f := t.flightAt(t.free - 1)
		t.free = f.next
		*f = flight{ix: f.ix}
		return f
	}
	if t.made%flightBlock == 0 {
		t.blocks = append(t.blocks, make([]flight, flightBlock))
	}
	f := t.flightAt(t.made)
	f.ix = t.made
	t.made++
	return f
}

// recycle hands a finished flight, which nothing reads any more, back for
// newFlight.
func (t *timeline) recycle(f *flight) {
	if f.errored {
		delete(t.errs, f.index)
	}
	f.finished, f.next, t.free = true, t.free, f.ix+1
}

// dropCause attributes a queue-expiry drop: "faulted-path" when the
// payment's own route crossed a Byzantine participant — at arrival (its
// sub-run inherited the fault) or at any instant while it waited — and
// "capacity" otherwise. Honest-only runs therefore attribute every drop to
// capacity.
func (t *timeline) dropCause(f *flight) DropCause {
	if f.byz {
		return CauseFaultedPath
	}
	if t.plan != nil && t.plan.routeFaulted(int(f.sender), int(f.receiver), f.arrival, t.q.Now()) {
		return CauseFaultedPath
	}
	return CauseCapacity
}

// refusingHop returns the first escrow on f's route whose payer account
// cannot cover its hop, or -1 when every hop fits. The hops of one route sit
// on distinct escrows, so the per-hop reads are exact: admission would not
// change a balance a later hop depends on.
//
//xchain:hotpath
func (t *timeline) refusingHop(f *flight) int {
	for k := range f.hops() {
		e := int(f.sender) + k
		if t.ledgers[e].Balance(t.payers[e]) < f.amountVia(k, t.w.Commission) {
			return e
		}
	}
	return -1
}

// admit makes admission attempt number attempt for f at now: it reads every
// hop's payer balance and only when all fit reserves them, as locks the
// ledgers hold and f records (their ID, rendered only when read, is
// "<id>#<attempt>": lockID). A refused attempt is therefore a few balance
// reads — no lock, no ledger operation, no allocation — and leaves the
// refusing escrow in f.refused. attempt is 0 at arrival and, for a queued
// payment, the number of settlements it has waited through, so an admitted
// payment's lock ID does not depend on which of those settlements actually
// re-tried it.
//
//xchain:hotpath
func (t *timeline) admit(f *flight, now sim.Time, attempt int) bool {
	if e := t.refusingHop(f); e >= 0 {
		f.refused = int32(e)
		return false
	}
	f.attempts = int32(attempt + 1)
	for k := range f.hops() {
		e := int(f.sender) + k
		l, amount := t.ledgers[e], f.amountVia(k, t.w.Commission)
		byz := l.ByzantineEscrowed()
		if err := l.Hold(t.payers[e], t.payees[e], amount); err != nil && t.res.CascadeErr == nil {
			// Not reachable from a state this run produced: amounts are
			// validated positive, the balance was just read and the ledgers
			// compact. Flag the run rather than half-undo the admission.
			t.res.CascadeErr = fmt.Errorf("traffic: reserving %s on %s: %w", f.lockID(), l.Name(), err)
		}
		t.byzHeld += l.ByzantineEscrowed() - byz
		t.lockedNow += amount
	}
	t.observeByzHeld()
	return true
}

// start marks f admitted at now and schedules its settlement at the virtual
// time its own protocol run finished.
//
//xchain:hotpath
func (t *timeline) start(f *flight, now sim.Time) {
	f.start = now
	t.inFlight++
	t.m.InFlight.Set(float64(t.inFlight))
	if t.inFlight > t.res.PeakInFlight {
		t.res.PeakInFlight = t.inFlight
	}
	f.seq = t.q.Schedule(t.q.Now()+f.duration, f.ix, settleEvent).Seq
}

// settle is the settlement action of a flight: classify the outcome at the
// virtual time the payment's own protocol run finished, release or refund
// every hop's lock, and wake the waiters a refund may have unblocked.
//
//xchain:hotpath
func (t *timeline) settle(f *flight) {
	end := t.q.Now()
	status := StatusProtocolFailed
	switch {
	case f.errored:
		status = StatusError
	case f.paid:
		status = StatusOK
	}
	for k := range f.hops() {
		e := int(f.sender) + k
		l, amount := t.ledgers[e], f.amountVia(k, t.w.Commission)
		byz := l.ByzantineEscrowed()
		if status == StatusOK {
			l.ReleaseHold(t.payers[e], t.payees[e], amount) //nolint:errcheck // admit held it
		} else {
			l.RefundHold(t.payers[e], amount) //nolint:errcheck // admit held it
		}
		t.byzHeld += l.ByzantineEscrowed() - byz
		t.lockedNow -= amount
	}
	if t.lockedNow < 0 && t.res.CascadeErr == nil {
		t.res.CascadeErr = fmt.Errorf("traffic: refund cascade over-released at %v (%d units)", end, t.lockedNow)
	}
	t.observeByzHeld()
	t.inFlight--
	t.m.InFlight.Set(float64(t.inFlight))
	t.finish(f, status, end, "")
	// A release credits the payee account c_{e+1} on e_e, which no
	// admission ever debits: only a refund can unblock a waiter.
	if status != StatusOK {
		t.wake(int(f.sender), int(f.receiver), end)
	}
	t.passes++
	if t.afterPass != nil {
		t.afterPass(f)
	}
	t.recycle(f)
}

// enqueue files f, just refused, among the waiters of the account that
// refused it.
func (t *timeline) enqueue(f *flight) {
	f.inQueue = true
	t.qlen++
	t.m.QueueDepth.Set(float64(t.qlen))
	t.file(f)
}

// dequeue marks f, already unfiled, as no longer waiting.
func (t *timeline) dequeue(f *flight) {
	f.inQueue = false
	t.qlen--
	t.m.QueueDepth.Set(float64(t.qlen))
}

// file appends f to the waiters of f.refused.
func (t *timeline) file(f *flight) {
	f.slot = int32(len(t.waiters[f.refused]))
	t.waiters[f.refused] = append(t.waiters[f.refused], f)
}

// unfile removes f from the waiters of f.refused in O(1): the last waiter
// takes its slot.
func (t *timeline) unfile(f *flight) {
	ws := t.waiters[f.refused]
	last := ws[len(ws)-1]
	ws[f.slot], last.slot = last, f.slot
	ws[len(ws)-1] = nil
	t.waiters[f.refused] = ws[:len(ws)-1]
}

// wake re-tries, in arrival order, the payments waiting on the payer
// accounts of escrows [lo, hi) — the accounts a refund just credited —
// admitting those that now fit and re-filing the rest under the hop that
// refuses them now (no head-of-line blocking for the ones behind them).
// Waiters of every other account are left alone: their refusing balance has
// only fallen since it refused them, so they would be refused again, and a
// refused attempt changes nothing.
func (t *timeline) wake(lo, hi int, now sim.Time) {
	woken := t.woken[:0]
	for e := lo; e < hi; e++ {
		woken = append(woken, t.waiters[e]...)
		clear(t.waiters[e])
		t.waiters[e] = t.waiters[e][:0]
	}
	slices.SortFunc(woken, func(a, b *flight) int { return a.index - b.index })
	for _, f := range woken {
		if !t.admit(f, now, t.passes-f.passBase) {
			t.file(f)
			continue
		}
		t.dequeue(f)
		t.q.CountCanceled() // its expiry: start moves f.seq on
		f.queued = true
		t.start(f, now)
	}
	clear(woken)
	t.woken = woken[:0]
}

// identify writes the fields of f's record that say what the payment is,
// id its ID: no aggregate reads them, and a run that neither keeps nor
// samples the record never writes them.
func (t *timeline) identify(pr *PaymentResult, id string, f *flight) {
	pr.ID, pr.Sender, pr.Receiver = id, int(f.sender), int(f.receiver)
	pr.Volume, pr.Hops, pr.Protocol = f.amountVia(0, t.w.Commission), f.hops(), t.ps.names[f.proto]
}

// admission writes the fields of f's record that the aggregates read and
// that its end does not decide.
//
//xchain:hotpath
func (t *timeline) admission(f *flight, pr *PaymentResult) {
	pr.Amount, pr.Arrival, pr.Queued, pr.QueueWait = f.base, f.arrival, f.queued, 0
	if f.queued {
		pr.QueueWait = f.start - f.arrival
	}
	pr.SubEvents = 0
	if !f.errored {
		// A rejected or dropped payment's sub-run ran too: the pipeline
		// simulates every payment before the timeline admits it.
		pr.SubEvents = f.events
	}
	pr.Faulted = f.byz
}

// finish ends f with status at end — a drop attributed to cause — and folds
// its record into the aggregates. The whole record is written only where it
// is kept: its slot in res.Payments under per-payment retention (identified
// at arrival), or the exemplar reservoir's slot when the sample draws it;
// otherwise only what the aggregates read, into scratch.
//
//xchain:hotpath
func (t *timeline) finish(f *flight, status Status, end sim.Time, cause DropCause) {
	pr := &t.pr
	if t.res.Payments != nil {
		pr = &t.res.Payments[f.index]
	}
	pr.Start = f.start
	t.admission(f, pr)
	pr.Status, pr.End, pr.DropCause = status, end, cause
	if status == StatusDropped {
		pr.Queued, pr.QueueWait = true, end-f.arrival
	}
	if slot := t.agg.observe(t.res, pr); slot != nil {
		*slot = *pr
		if pr == &t.pr {
			t.identify(slot, f.id(), f)
		}
	}
}
