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
	// means runtime.NumCPU(); 1 forces fully serial execution (useful as a
	// speedup baseline in benchmarks).
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
	// byte-identical to an uninterrupted run (TestCheckpointEquivalence).
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
	paid     bool
	duration sim.Time
	events   uint64
	err      error
	// byz reports whether the payment's sub-scenario contained any Byzantine
	// participant (static fault, injected plan fault, or manager outage).
	byz bool
	// safety lists the owed consistency and safety-property failures of the
	// sub-run, already formatted for Result.SafetySample. Theorems 1 and 3
	// owe these to honest parties in every execution, so any entry here is
	// an aggregate oracle violation — liveness failures under faults are
	// expected damage and are never listed.
	safety []string
}

// simulateOne runs one payment's protocol simulation and evaluates the
// theorem-shaped safety checkers on its result; a pure function of
// (base scenario, compiled plan, payment). The run executes in w, the
// calling worker's standing world; the result is consumed here, before w's
// next Reset, and nothing of it escapes.
func simulateOne(w *core.World, base core.Scenario, plan *compiledPlan, p *payment, registry map[string]core.Protocol) subOutcome {
	sub := subScenario(base, plan, p)
	proto := registry[p.Protocol]
	g := proto.Guarantee()
	if plan != nil && g.Theorem == core.Theorem3 && plan.managerActive(p.Arrival) {
		if !sub.FaultOf(core.ManagerID).IsByzantine() {
			sub = sub.SetFault(core.ManagerID, plan.manager.spec)
		}
	}
	byz := len(sub.Faults) > 0
	r, err := proto.RunIn(w, sub)
	if err != nil {
		return subOutcome{err: err, byz: byz}
	}
	out := subOutcome{paid: r.BobPaid, duration: r.Duration, events: r.EventsFired, byz: byz}
	// Aggregate safety oracle: every sub-run — honest or faulted — must
	// satisfy consistency and the safety half of Definition 1/2 (escrow
	// security, the customer-safety triple, certificate consistency for
	// manager-based protocols, conservation) wherever check.Owed says the
	// covering theorem owes it. A faulted sub-run is outside the envelope;
	// patience plays no part, as none of these is conditional on it.
	rep := check.Evaluate(r, check.OptionsFor(g, 0, 0))
	failed := rep.SafetyFailures()
	if !rep.Verdict(core.PropConsistency).OK() {
		failed = append([]core.Property{core.PropConsistency}, failed...)
	}
	for _, prop := range failed {
		facts := check.Facts{
			InEnvelope:     !byz,
			ManagerTrusted: check.ManagerTrusted(g, func(id string) bool { return sub.FaultOf(id).IsByzantine() }),
		}
		if !check.Owed(g, prop, facts) {
			continue
		}
		out.safety = append(out.safety,
			fmt.Sprintf("%s %s (%s): %s", p.ID, prop, p.Protocol, rep.Verdict(prop).Detail))
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
	registry := DefaultProtocols()
	// Every generated payment's protocol comes from the mix (or is the
	// built-in default "timelock"), so validating the mix names validates
	// the population without generating it.
	for _, m := range w.Mix {
		if _, ok := registry[m.Name]; !ok {
			return nil, fmt.Errorf("traffic: workload mixes unknown protocol %q", m.Name)
		}
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
			if err := resume.validate(s.Topology.N, w.Payments, cfg.keep(), exemplars); err != nil {
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
	src := newStreamSource(s, w, plan, registry, min(cfg.workers(), w.Payments/chunkSize+1), rm, skip)
	// An interrupted run leaves the pipeline mid-stream; closing it releases
	// the producer and worker goroutines.
	defer src.close()
	if err := executeTimeline(res, src, w, plan, cfg.keep(), exemplars, s.Metrics, rm, ck, resume); err != nil {
		return nil, err
	}
	return res, nil
}

// executeTimeline drives the admission timeline over the payment source and
// finalises every aggregate of res.
func executeTimeline(res *Result, src paymentSource, w Workload, plan *compiledPlan, keep bool, exemplars int, reg *metrics.Registry, rm RunMetrics, ck *checkpointer, snap *RunSnapshot) error {
	tl := newTimeline(res, w, plan, keep, exemplars, reg, rm, snap)
	if ck != nil || snap != nil {
		tl.track = make(map[int]*flight)
	}
	return tl.execute(src, ck, snap, keep)
}

// newTimeline builds the admission timeline of one run over res.Book, its
// aggregator fresh or restored from snap. The timeline's engine is the run's
// authoritative virtual clock, so it (and only it) carries the virtual-time
// watermark gauge.
func newTimeline(res *Result, w Workload, plan *compiledPlan, keep bool, exemplars int, reg *metrics.Registry, rm RunMetrics, snap *RunSnapshot) *timeline {
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
		plan:    plan,
		m:       rm,
		waiters: make([][]*flight, res.Chain),
	}
	for i := 0; i < res.Chain; i++ {
		tl.ledgers = append(tl.ledgers, res.Book.MustGet(core.EscrowID(i)))
	}
	for i := 0; i <= res.Chain; i++ {
		tl.customers = append(tl.customers, core.CustomerID(i))
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
func (t *timeline) execute(src paymentSource, ck *checkpointer, snap *RunSnapshot, keep bool) error {
	if snap != nil {
		t.restore(snap, keep)
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
// their sub-outcomes. done is closed once the chunk is fully simulated.
type chunk struct {
	pays []*payment
	subs []subOutcome
	done chan struct{}
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

func newStreamSource(s core.Scenario, w Workload, plan *compiledPlan, registry map[string]core.Protocol, workers int, rm RunMetrics, skip int) *streamSource {
	depth := workers + 2
	ordered := make(chan *chunk, depth)
	work := make(chan *chunk, depth)
	stop := make(chan struct{})
	go func() {
		defer close(ordered)
		defer close(work)
		g := w.newGenerator(s)
		g.skip(skip)
		for {
			c := &chunk{done: make(chan struct{})}
			for len(c.pays) < chunkSize {
				p := &payment{}
				if !g.next(p) {
					break
				}
				c.pays = append(c.pays, p)
			}
			if len(c.pays) == 0 {
				break
			}
			c.subs = make([]subOutcome, len(c.pays))
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
			var world *core.World // built on the first chunk: short runs use few
			for c := range work {
				if world == nil {
					world = core.NewWorld()
				}
				for j, p := range c.pays {
					c.subs[j] = simulateOne(world, s, plan, p, registry)
					rm.Simulated.Inc()
				}
				rm.ChunksSimulated.Inc()
				close(c.done)
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

func (s *streamSource) next() (*payment, subOutcome, bool) {
	for s.cur == nil || s.i == len(s.cur.pays) {
		c, ok := <-s.ordered
		if !ok {
			return nil, subOutcome{}, false
		}
		<-c.done
		s.m.ChunksConsumed.Inc()
		s.cur, s.i = c, 0
	}
	p, sub := s.cur.pays[s.i], s.cur.subs[s.i]
	s.i++
	return p, sub, true
}

// forEachIndex runs fn(idx) for every idx in [0, n) across a pool of workers
// goroutines (serially when workers <= 1 or n is small). fn writes into
// caller-owned, index-disjoint slots, so results are ordered by index no
// matter which worker finished first.
func forEachIndex(n, workers int, fn func(idx int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for idx := 0; idx < n; idx++ {
			fn(idx)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				fn(idx)
			}
		}()
	}
	for idx := 0; idx < n; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
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
// arrival and settlement: the evolving PaymentResult, the active lock ID,
// and — while waiting for liquidity — where it is filed among the waiters
// and its expiry timer. It is released to the garbage collector as soon as
// the payment reaches a terminal status, so the timeline's memory tracks the
// number of in-flight and queued payments, not the population size.
type flight struct {
	t   *timeline // the timeline the flight is on, for its scheduled actions
	p   *payment
	sub subOutcome
	pr  PaymentResult

	// attempts is the number of admission attempts the payment had made when
	// it was admitted (so its lock ID ends in attempts-1). A queued flight's
	// count runs with the timeline's pass counter instead: passes-passBase.
	attempts int
	passBase int
	lockID   string

	// While queued: refused is the escrow whose payer account could not cover
	// the last attempt, slot the flight's position among that account's
	// waiters (expiry removes it in O(1)).
	inQueue bool
	refused int
	slot    int
	expiry  sim.Timer
	// settle is the pending settlement event while the payment is in
	// flight; capture reads its heap coordinates.
	settle sim.Timer
}

// timeline replays arrivals, admission, queuing and settlement on a
// discrete-event engine, feeding each payment's terminal record to the
// aggregator (and, when retained, to res.Payments).
type timeline struct {
	eng  *sim.Engine
	res  *Result
	agg  *aggregator
	w    Workload
	plan *compiledPlan
	m    RunMetrics

	// ledgers[e] is escrow e_e's traffic ledger and customers[i] is c_i's ID,
	// resolved once. Every lock on e_e is paid by c_e, so one balance per
	// escrow — Balance(c_e) on e_e — decides admission there.
	ledgers   []*ledger.Ledger
	customers []string

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

	// afterPass, when set (tests only), runs at the end of every drain pass
	// with the flight whose settlement started it.
	afterPass func(settled *flight)
}

// markTimer pairs a scheduled Byzantine-status transition with its timer.
type markTimer struct {
	index int
	on    bool
	tm    sim.Timer
}

// scheduleMarks replays the plan's Byzantine-status transitions on the
// timeline: marks at t=0 (static faults) apply immediately; later ones
// become ordinary engine events, so ledger tagging interleaves
// deterministically with arrivals and settlements.
func (t *timeline) scheduleMarks() {
	if t.plan == nil {
		return
	}
	for _, mk := range t.plan.marks() {
		if mk.at <= 0 {
			t.setByzantine(mk.index, mk.on)
			continue
		}
		mk := mk
		tm := t.eng.ScheduleIn(mk.at, fmt.Sprintf("byz-%v:c%d", mk.on, mk.index), func() {
			t.setByzantine(mk.index, mk.on)
		})
		t.markTimers = append(t.markTimers, markTimer{index: mk.index, on: mk.on, tm: tm})
	}
}

// setByzantine tags connector c_idx's accounts on its two adjacent traffic
// ledgers, so liquidity held in the connector's locks is observable as
// Byzantine-held (lock-and-abandon griefing shows up directly).
func (t *timeline) setByzantine(idx int, on bool) {
	owner := t.customers[idx]
	for _, e := range []int{idx - 1, idx} {
		if e >= 0 && e < t.res.Chain {
			t.ledgers[e].SetByzantine(owner, on)
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
func (t *timeline) arrive(p *payment, sub subOutcome) {
	now := t.eng.Now()
	f := &flight{t: t, p: p, sub: sub}
	if t.track != nil {
		t.track[p.Index] = f
	}
	f.pr = PaymentResult{
		ID:       p.ID,
		Sender:   p.Sender,
		Receiver: p.Receiver,
		Amount:   p.Amounts[len(p.Amounts)-1],
		Volume:   p.Amounts[0],
		Hops:     p.hops(),
		Protocol: p.Protocol,
		Arrival:  p.Arrival,
	}
	if sub.err == nil {
		f.pr.SubEvents = sub.events
	}
	f.pr.Faulted = sub.byz
	if len(sub.safety) > 0 {
		// Aggregate safety oracle: arrivals are processed in generation
		// order, so the violation count and its sample are deterministic.
		t.res.SafetyViolations += len(sub.safety)
		t.m.SafetyViolations.Add(uint64(len(sub.safety)))
		for _, detail := range sub.safety {
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
		f.pr.Status = StatusRejected
		f.pr.End = now
		t.finish(f)
		return
	}
	f.passBase = t.passes - 1 // the arrival was attempt 0
	f.expiry = t.eng.ScheduleArgIn(t.w.QueuePatience, "expire", expireFlight, f)
	t.enqueue(f)
}

// expireFlight is the queue-expiry action of a flight: the payment's
// patience ran out before capacity freed up. A package-level action on the
// flight (not a closure per payment), which is also what resume re-attaches
// to a restored event.
func expireFlight(x any) {
	f := x.(*flight)
	t := f.t
	t.unfile(f)
	t.dequeue(f)
	f.pr.Status = StatusDropped
	f.pr.End = t.eng.Now()
	f.pr.Queued = true
	f.pr.QueueWait = f.pr.End - f.p.Arrival
	f.pr.DropCause = t.dropCause(f)
	t.finish(f)
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
func (t *timeline) refusingHop(p *payment) int {
	for k, amount := range p.Amounts {
		e := p.Sender + k
		if t.ledgers[e].Balance(t.customers[e]) < amount {
			return e
		}
	}
	return -1
}

// admit makes admission attempt number attempt for f at now: it reads every
// hop's payer balance and only when all fit reserves them, under the lock ID
// "<id>#<attempt>". A refused attempt is therefore a few balance reads — no
// lock, no ledger operation, no allocation — and leaves the refusing escrow
// in f.refused. attempt is 0 at arrival and, for a queued payment, the
// number of settlements it has waited through, so an admitted payment's lock
// ID does not depend on which of those settlements actually re-tried it.
func (t *timeline) admit(f *flight, now sim.Time, attempt int) bool {
	p := f.p
	if e := t.refusingHop(p); e >= 0 {
		f.refused = e
		return false
	}
	id := p.ID + "#" + strconv.Itoa(attempt)
	for k, amount := range p.Amounts {
		e := p.Sender + k
		_, err := t.ledgers[e].CreateLock(now, id, t.customers[e], t.customers[e+1], amount, ledger.Condition{})
		if err != nil && t.res.CascadeErr == nil {
			// Not reachable from a state this run produced: amounts are
			// validated positive, the balance was just read and attempt IDs
			// never repeat. Flag the run rather than half-undo the admission.
			t.res.CascadeErr = fmt.Errorf("traffic: reserving %s on %s: %w", id, t.ledgers[e].Name(), err)
		}
		t.lockedNow += amount
	}
	f.lockID = id
	f.attempts = attempt + 1
	t.observeByzHeld()
	return true
}

// start marks f admitted at now and schedules its settlement at the virtual
// time its own protocol run finished.
func (t *timeline) start(f *flight, now sim.Time) {
	f.pr.Start = now
	t.inFlight++
	t.m.InFlight.Set(float64(t.inFlight))
	if t.inFlight > t.res.PeakInFlight {
		t.res.PeakInFlight = t.inFlight
	}
	f.settle = t.eng.ScheduleArgIn(f.sub.duration, "settle", settleFlight, f)
}

// settleFlight is the settlement action of a flight: classify the outcome at
// the virtual time the payment's own protocol run finished, release or
// refund every hop's lock, and wake the waiters a refund may have unblocked.
// A package-level action on the flight (not a closure per payment), which is
// also what resume re-attaches to a restored event.
func settleFlight(x any) {
	f := x.(*flight)
	t := f.t
	end := t.eng.Now()
	f.pr.End = end
	switch {
	case f.sub.err != nil:
		f.pr.Status = StatusError
	case f.sub.paid:
		f.pr.Status = StatusOK
	default:
		f.pr.Status = StatusProtocolFailed
	}
	for k, amount := range f.p.Amounts {
		l := t.ledgers[f.p.Sender+k]
		if f.pr.Status == StatusOK {
			l.Release(end, f.lockID, nil, end) //nolint:errcheck // unconditional lock
		} else {
			l.Refund(end, f.lockID, end) //nolint:errcheck // unconditional lock
		}
		t.lockedNow -= amount
	}
	if t.lockedNow < 0 && t.res.CascadeErr == nil {
		t.res.CascadeErr = fmt.Errorf("traffic: refund cascade over-released at %v (%d units)", end, t.lockedNow)
	}
	t.observeByzHeld()
	t.inFlight--
	t.m.InFlight.Set(float64(t.inFlight))
	t.finish(f)
	// A release credits the payee account c_{e+1} on e_e, which no
	// admission ever debits: only a refund can unblock a waiter.
	if f.pr.Status != StatusOK {
		t.wake(f.p.Sender, f.p.Receiver, end)
	}
	t.passes++
	if t.afterPass != nil {
		t.afterPass(f)
	}
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
	f.slot = len(t.waiters[f.refused])
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
		f.expiry.Cancel()
		f.pr.Queued = true
		f.pr.QueueWait = now - f.p.Arrival
		t.start(f, now)
	}
	clear(woken)
	t.woken = woken[:0]
}

// finish hands a terminal payment record to the aggregator and, when
// per-payment retention is on, to its slot in res.Payments.
func (t *timeline) finish(f *flight) {
	if t.track != nil {
		delete(t.track, f.p.Index)
	}
	t.agg.observe(t.res, &f.pr)
	if t.res.Payments != nil {
		t.res.Payments[f.p.Index] = f.pr
	}
}
