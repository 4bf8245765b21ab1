package traffic

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"unsafe"

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
// use; only such runs fingerprint their configuration and track live flights
// for capture.
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
	paid     bool
	// byz reports whether the payment's sub-scenario contained any Byzantine
	// participant (static fault, injected plan fault, or manager outage).
	byz bool
	// fail holds what a run rarely has: nil unless it returned an error or
	// owes safety failures.
	fail *subFailure
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
// points at, and the list its safety failures are judged from. Like the
// world, it is confined to its worker.
type simulator struct {
	w          *core.World
	commission int64 // the workload's: a hop's amount is derived from it
	sub        core.Scenario
	amounts    []int64
	faults     map[string]core.FaultSpec
	patience   map[string]sim.Time
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
	rep := check.Evaluate(r, check.OptionsFor(g, 0, 0))
	failed := sm.failed[:0]
	if !rep.Verdict(core.PropConsistency).OK() {
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
			fmt.Sprintf("%s %s (%s): %s", p.ID, prop, ps.names[p.proto], rep.Verdict(prop).Detail))
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
		hash, doc, err := fingerprintOf(s, w, cfg).canonical()
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
	if resume != nil {
		res.Book = restoreBook(s, resume)
	} else {
		var demand map[string]map[string]int64
		if w.Liquidity <= 0 {
			// Auto-sizing needs the whole population's worst-case demand; a
			// dedicated generator pass computes it in O(topology) memory.
			demand = w.demand(s)
		}
		res.Book = newLiquidityBook(s, w, demand)
	}
	// Workers beyond the number of chunks would idle; the cap also keeps a
	// caller-chosen count from sizing the pipeline's channels.
	src := newStreamSource(s, w, plan, &ps, min(cfg.workers(), w.Payments/chunkSize+1), rm, skip)
	// An interrupted run leaves the pipeline mid-stream; closing it releases
	// the producer and worker goroutines.
	defer src.close()
	if err := executeTimeline(res, src, w, &ps, plan, cfg.keep(), exemplars, s.Metrics, rm, ck, resume); err != nil {
		return nil, err
	}
	return res, nil
}

// executeTimeline drives the admission timeline over the payment source and
// finalises every aggregate of res.
func executeTimeline(res *Result, src paymentSource, w Workload, ps *protocols, plan *compiledPlan, keep bool, exemplars int, reg *metrics.Registry, rm RunMetrics, ck *checkpointer, snap *RunSnapshot) error {
	tl := newTimeline(res, w, ps, plan, keep, exemplars, reg, rm, snap)
	if ck != nil || snap != nil {
		tl.track = make(map[int]*flight)
	}
	return tl.execute(src, ck, snap)
}

// newTimeline builds the admission timeline of one run over res.Book, its
// aggregator fresh or restored from snap. The timeline's engine is the run's
// authoritative virtual clock, so it (and only it) carries the virtual-time
// watermark gauge.
func newTimeline(res *Result, w Workload, ps *protocols, plan *compiledPlan, keep bool, exemplars int, reg *metrics.Registry, rm RunMetrics, snap *RunSnapshot) *timeline {
	var agg *aggregator
	if snap != nil {
		agg = restoredAggregator(res, keep, exemplars, &snap.Agg)
	} else {
		agg = newAggregator(res, keep, exemplars)
	}
	agg.m = rm
	tl := &timeline{
		eng:     sim.NewEngine(res.Seed),
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
	em := sim.MetricsFrom(reg)
	if reg != nil {
		em.Watermark = reg.Gauge(sim.MetricVirtualTimeMs, "Virtual time of the traffic admission timeline in milliseconds.")
	}
	tl.eng.SetMetrics(em)
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
	res := t.res
	res.TimelineEvents = t.fired
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
// the consumer has moved past a chunk (passed) and no flight reads its
// payments any more (live), it goes back to the producer through free, and
// the next payments are written over it. passed and live are the
// consumer's: the timeline runs on its goroutine.
type chunk struct {
	pays   []payment
	subs   []subOutcome
	done   chan struct{}
	free   chan<- *chunk
	passed bool
	live   int
}

// hold notes one more flight reading a payment of c.
func (c *chunk) hold() { c.live++ }

// release notes a flight done with a payment of c, and hands c back once
// nothing reads it.
func (c *chunk) release() {
	c.live--
	c.recycle()
}

// recycle hands c back to the producer if the consumer has moved past it and
// no flight reads it. A full free queue drops it for the garbage collector.
func (c *chunk) recycle() {
	if c.passed && c.live == 0 {
		select {
		case c.free <- c:
		default:
		}
	}
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
				c.passed = false
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
				pays[n].chunk = c
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
			for c := range work {
				if sm == nil {
					sm = newSimulator(w.Commission)
				}
				for j := range c.pays {
					c.subs[j] = sm.simulateOne(&s, plan, &c.pays[j], ps)
					rm.Simulated.Inc()
				}
				rm.ChunksSimulated.Inc()
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

// next returns the next payment. It stays valid while a flight holds its
// chunk (chunk.hold), or else until the following call: the chunk is
// recycled once the consumer has moved past it and no flight reads it.
func (s *streamSource) next() (*payment, subOutcome, bool) {
	for s.cur == nil || s.i == len(s.cur.pays) {
		if s.cur != nil {
			s.cur.passed = true
			s.cur.recycle()
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
// otherwise endowments come from the supplied worst-case demand map, so
// liquidity never binds. Traffic ledgers run compacted: settled locks and
// op-log entries are dropped as they settle, keeping ledger memory
// proportional to pending locks rather than to the payment count.
func newLiquidityBook(s core.Scenario, w Workload, demand map[string]map[string]int64) *ledger.Book {
	book := ledger.NewBook()
	lm := ledger.MetricsFrom(s.Metrics, "traffic")
	for i := 0; i < s.Topology.N; i++ {
		l := ledger.New(core.EscrowID(i))
		l.SetCompact(true)
		wireLiquidityGauges(s, lm, l)
		for _, owner := range []string{core.CustomerID(i), core.CustomerID(i + 1)} {
			endow := w.Liquidity
			if w.Liquidity <= 0 {
				endow = demand[l.Name()][owner]
			}
			if endow > 0 {
				l.Mint(0, owner, endow) //nolint:errcheck // amount > 0 by construction
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
// arrival and settlement: what it needs to settle the payment and to write
// its record at the end (finish), the handles of its locks, and — while
// waiting for liquidity — where it is filed among the waiters. Finished
// flights are reused, so the timeline's memory tracks the number of
// in-flight and queued payments, not the population size.
type flight struct {
	t   *timeline // the timeline the flight is on, for its scheduled actions
	p   *payment  // its chunk's, which the flight holds until recycled
	sub subOutcome
	// locks are the handles of the payment's locks, hop by hop, once
	// admitted: a piece of the timeline's handle slab, kept across reuse.
	locks []ledger.Handle
	// tm is the pending event: the queue expiry while queued, the
	// settlement while in flight. Capture reads its heap coordinates.
	tm sim.Timer
	// start is when the payment was admitted.
	start sim.Time

	// attempts is the number of admission attempts the payment had made when
	// it was admitted (its locks' key is attempts-1). A queued flight's count
	// runs with the timeline's pass counter instead: passes-passBase.
	passBase int
	attempts int32

	// While queued (inQueue): refused is the escrow whose payer account could
	// not cover the last attempt, slot the flight's position among that
	// account's waiters (expiry removes it in O(1)). queued says an admitted
	// payment waited first.
	refused int32
	slot    int32
	inQueue bool
	queued  bool
}

// timeline replays arrivals, admission, queuing and settlement on a
// discrete-event engine, feeding each payment's terminal record to the
// aggregator (and, when retained, to res.Payments).
type timeline struct {
	eng  *sim.Engine
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
	fired    uint64

	// lockedNow is the refund-cascade accounting counter: units currently
	// held in traffic-level locks, incremented at admission and decremented
	// at settlement (release or refund). It must never go negative and must
	// return to zero by the end of the run — the instant-by-instant form of
	// the conservation audit.
	lockedNow int64
	// byzConn counts connectors currently inside a fault window (drives the
	// live gauge).
	byzConn int

	// track maps payment index -> live flight; populated only when the run
	// can checkpoint (capture needs every queued and in-flight payment).
	track map[int]*flight
	// markTimers retains the pending Byzantine-mark events so capture can
	// read their heap coordinates.
	markTimers []markTimer

	// freeFlights are finished flights for newFlight to reuse, and flights
	// what is left of the block new ones are cut from; slab is what is left
	// of the storage flights' lock handles are cut from; pr is where finish
	// writes a record the run does not keep.
	freeFlights []*flight
	flights     []flight
	slab        []ledger.Handle
	pr          PaymentResult
	// afterPass, when set (tests only), runs at the end of every drain pass
	// with the flight whose settlement started it.
	afterPass func(settled *flight)
}

// markTimer pairs a scheduled Byzantine-status transition with its timer. It
// is also the argument of its event's action, fireMark, so the timeline's
// markTimers slice is sized before any pointer into it is taken.
type markTimer struct {
	t     *timeline
	index int
	on    bool
	tm    sim.Timer
}

// fireMark is the action of a Byzantine-status transition. A package-level
// action on its markTimer (not a closure per mark), which is also what
// resume re-attaches to a restored event.
func fireMark(x any) {
	mt := x.(*markTimer)
	mt.t.setByzantine(mt.index, mt.on)
}

// scheduleMarks replays the plan's Byzantine-status transitions on the
// timeline: marks at t=0 (static faults) apply immediately; later ones
// become ordinary engine events, so ledger tagging interleaves
// deterministically with arrivals and settlements.
func (t *timeline) scheduleMarks() {
	if t.plan == nil {
		return
	}
	marks := t.plan.marks()
	t.markTimers = make([]markTimer, 0, len(marks)) // never grows: pointers into it stay valid
	for _, mk := range marks {
		if mk.at <= 0 {
			t.setByzantine(mk.index, mk.on)
			continue
		}
		t.markTimers = append(t.markTimers, markTimer{t: t, index: mk.index, on: mk.on})
		mt := &t.markTimers[len(t.markTimers)-1]
		mt.tm = t.eng.ScheduleArgIn(mk.at, "byz", fireMark, mt)
	}
}

// setByzantine tags connector c_idx's accounts on its two adjacent traffic
// ledgers, so liquidity held in the connector's locks is observable as
// Byzantine-held (lock-and-abandon griefing shows up directly).
func (t *timeline) setByzantine(idx int, on bool) {
	owner := core.CustomerID(idx)
	for _, e := range []int{idx - 1, idx} {
		if e >= 0 && e < t.res.Chain {
			t.ledgers[e].SetByzantine(t.ledgers[e].PID(owner), on)
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

// observeByzHeld recomputes the value currently locked by Byzantine payers
// across the book (O(chain)) and tracks its peak.
func (t *timeline) observeByzHeld() {
	if t.plan == nil {
		return
	}
	var held int64
	for _, l := range t.ledgers {
		held += l.ByzantineEscrowed()
	}
	t.m.ByzHeld.Set(float64(held))
	if held > t.res.PeakByzantineHeld {
		t.res.PeakByzantineHeld = held
	}
}

// run drives the timeline: for each payment, fire every pending event
// strictly before its arrival, then process the arrival — exactly the event
// order a run scheduling all arrivals up front (with the lowest sequence
// numbers) would produce, without ever holding more than the in-flight
// window in memory.
func (t *timeline) run(src paymentSource, ck *checkpointer) error {
	for {
		p, sub, ok := src.next()
		if !ok {
			break
		}
		_, fired := t.eng.RunBefore(p.Arrival, 0)
		t.fired += fired
		t.arrive(p, sub)
		t.fired++ // the arrival itself counts as an event
		if ck != nil {
			if err := ck.boundary(t, p.Index+1); err != nil {
				return err
			}
		}
	}
	_, fired := t.eng.Run(0)
	t.fired += fired
	return nil
}

// arrive admits, queues or rejects one payment at its arrival instant.
//
//xchain:hotpath
func (t *timeline) arrive(p *payment, sub subOutcome) {
	now := t.eng.Now()
	f := t.newFlight(p, sub)
	if t.track != nil {
		t.track[p.Index] = f
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
	f.tm = t.eng.ScheduleArgIn(t.w.QueuePatience, "expire", expireFlight, f)
	t.enqueue(f)
}

// expireFlight is the queue-expiry action of a flight: the payment's
// patience ran out before capacity freed up. A package-level action on the
// flight (not a closure per payment), which is also what resume re-attaches
// to a restored event.
//
//xchain:hotpath
func expireFlight(x any) {
	f := x.(*flight)
	t := f.t
	t.unfile(f)
	t.dequeue(f)
	t.finish(f, StatusDropped, t.eng.Now(), t.dropCause(f))
	t.recycle(f)
}

// Flights and lock handles are made in blocks: flightBlock flights fill an
// 8 KiB size class beside the 8-byte header the allocator gives a block that
// holds pointers, and slabSize handles are cut into pieces for flights whose
// storage is too short for their route.
const (
	flightBlock = (8<<10 - 8) / int(unsafe.Sizeof(flight{}))
	slabSize    = (8<<10 - 8) / int(unsafe.Sizeof(ledger.Handle{}))
)

// newFlight returns a flight for p with sub-outcome sub, recycled or new,
// holding p's chunk.
func (t *timeline) newFlight(p *payment, sub subOutcome) *flight {
	var f *flight
	if k := len(t.freeFlights); k > 0 {
		f = t.freeFlights[k-1]
		t.freeFlights[k-1] = nil
		t.freeFlights = t.freeFlights[:k-1]
	} else {
		if len(t.flights) == cap(t.flights) {
			t.flights = make([]flight, 0, flightBlock)
		}
		t.flights = t.flights[:len(t.flights)+1]
		f = &t.flights[len(t.flights)-1]
	}
	*f = flight{t: t, p: p, sub: sub, locks: f.locks[:0]}
	if p.chunk != nil {
		p.chunk.hold()
	}
	return f
}

// recycle hands a finished flight, which nothing reads any more, back for
// newFlight, and releases its payment's chunk.
func (t *timeline) recycle(f *flight) {
	if c := f.p.chunk; c != nil {
		c.release()
	}
	f.p = nil
	t.freeFlights = append(t.freeFlights, f)
}

// holdHandles makes f.locks n handles long, in its own storage when that is
// long enough and in a piece cut from the slab when it is not.
func (t *timeline) holdHandles(f *flight, n int) {
	if cap(f.locks) >= n {
		f.locks = f.locks[:n]
		return
	}
	if cap(t.slab)-len(t.slab) < n {
		t.slab = make([]ledger.Handle, 0, max(slabSize, n))
	}
	k := len(t.slab)
	t.slab = t.slab[:k+n]
	f.locks = t.slab[k : k+n : k+n]
}

// dropCause attributes a queue-expiry drop: "faulted-path" when the
// payment's own route crossed a Byzantine participant — at arrival (its
// sub-run inherited the fault) or at any instant while it waited — and
// "capacity" otherwise. Honest-only runs therefore attribute every drop to
// capacity.
func (t *timeline) dropCause(f *flight) DropCause {
	if f.sub.byz {
		return CauseFaultedPath
	}
	if t.plan != nil && t.plan.routeFaulted(f.p.Sender, f.p.Receiver, f.p.Arrival, t.eng.Now()) {
		return CauseFaultedPath
	}
	return CauseCapacity
}

// refusingHop returns the first escrow on p's route whose payer account
// cannot cover its hop, or -1 when every hop fits. The hops of one route sit
// on distinct escrows, so the per-hop reads are exact: admission would not
// change a balance a later hop depends on.
//
//xchain:hotpath
func (t *timeline) refusingHop(p *payment) int {
	for k := range p.hops() {
		e := p.Sender + k
		if t.ledgers[e].Balance(t.payers[e]) < p.amountVia(k, t.w.Commission) {
			return e
		}
	}
	return -1
}

// admit makes admission attempt number attempt for f at now: it reads every
// hop's payer balance and only when all fit reserves them, as locks keyed by
// the payment's ID and the attempt (their ID, rendered only when read, is
// "<id>#<attempt>"), and keeps their handles. A refused attempt is therefore
// a few balance reads — no lock, no ledger operation, no allocation — and
// leaves the refusing escrow in f.refused. attempt is 0 at arrival and, for a
// queued payment, the number of settlements it has waited through, so an
// admitted payment's lock ID does not depend on which of those settlements
// actually re-tried it.
//
//xchain:hotpath
func (t *timeline) admit(f *flight, now sim.Time, attempt int) bool {
	p := f.p
	if e := t.refusingHop(p); e >= 0 {
		f.refused = int32(e)
		return false
	}
	t.holdHandles(f, p.hops())
	for k := range f.locks {
		e := p.Sender + k
		amount := p.amountVia(k, t.w.Commission)
		h, err := t.ledgers[e].EscrowKeyed(now, p.ID, uint64(attempt), t.payers[e], t.payees[e], amount, ledger.Condition{})
		if err != nil && t.res.CascadeErr == nil {
			// Not reachable from a state this run produced: amounts are
			// validated positive, the balance was just read and attempts
			// never repeat. Flag the run rather than half-undo the admission.
			t.res.CascadeErr = fmt.Errorf("traffic: reserving %s#%d on %s: %w", p.ID, attempt, t.ledgers[e].Name(), err)
		}
		f.locks[k] = h
		t.lockedNow += amount
	}
	f.attempts = int32(attempt + 1)
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
	f.tm = t.eng.ScheduleArgIn(f.sub.duration, "settle", settleFlight, f)
}

// settleFlight is the settlement action of a flight: classify the outcome at
// the virtual time the payment's own protocol run finished, release or
// refund every hop's lock through its handle, and wake the waiters a refund
// may have unblocked. A package-level action on the flight (not a closure per
// payment), which is also what resume re-attaches to a restored event.
//
//xchain:hotpath
func settleFlight(x any) {
	f := x.(*flight)
	t := f.t
	end := t.eng.Now()
	status := StatusProtocolFailed
	switch {
	case f.sub.err() != nil:
		status = StatusError
	case f.sub.paid:
		status = StatusOK
	}
	p := f.p
	for k, h := range f.locks {
		l := t.ledgers[p.Sender+k]
		if status == StatusOK {
			l.ReleaseLock(end, h, nil, end) //nolint:errcheck // unconditional lock
		} else {
			l.RefundLock(end, h, end) //nolint:errcheck // unconditional lock
		}
		t.lockedNow -= p.amountVia(k, t.w.Commission)
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
		t.wake(p.Sender, p.Receiver, end)
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
	slices.SortFunc(woken, func(a, b *flight) int { return a.p.Index - b.p.Index })
	for _, f := range woken {
		if !t.admit(f, now, t.passes-f.passBase) {
			t.file(f)
			continue
		}
		t.dequeue(f)
		f.tm.Cancel()
		f.queued = true
		t.start(f, now)
	}
	clear(woken)
	t.woken = woken[:0]
}

// record writes f's payment record as it stands before its end: what the
// payment is, and when and how it was admitted.
//
//xchain:hotpath
func (t *timeline) record(f *flight, pr *PaymentResult) {
	p := f.p
	*pr = PaymentResult{}
	pr.ID, pr.Sender, pr.Receiver = p.ID, p.Sender, p.Receiver
	pr.Amount, pr.Volume = p.Base, p.amountVia(0, t.w.Commission)
	pr.Hops, pr.Protocol, pr.Arrival = p.hops(), t.ps.names[p.proto], p.Arrival
	pr.Start, pr.Queued = f.start, f.queued
	if f.queued {
		pr.QueueWait = f.start - p.Arrival
	}
	if f.sub.err() == nil {
		// A rejected or dropped payment's sub-run ran too: the pipeline
		// simulates every payment before the timeline admits it.
		pr.SubEvents = f.sub.events
	}
	pr.Faulted = f.sub.byz
}

// finish ends f with status at end — a drop attributed to cause — and hands
// its record to the aggregator and, when per-payment retention is on, to its
// slot in res.Payments.
//
//xchain:hotpath
func (t *timeline) finish(f *flight, status Status, end sim.Time, cause DropCause) {
	if t.track != nil {
		delete(t.track, f.p.Index)
	}
	pr := &t.pr
	if t.res.Payments != nil {
		pr = &t.res.Payments[f.p.Index]
	}
	t.record(f, pr)
	pr.Status, pr.End, pr.DropCause = status, end, cause
	if status == StatusDropped {
		pr.Queued, pr.QueueWait = true, end-f.p.Arrival
	}
	t.agg.observe(t.res, pr)
}
