package core

import (
	"repro/internal/clock"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultMaxEvents caps a run's event count as a runaway guard when the
// scenario sets no MaxEvents of its own.
const DefaultMaxEvents = 2_000_000

// World is the simulated substrate one chain-protocol run executes on: the
// engine, the trace, the network, one ledger per escrow with the customers'
// endowments, a drifting clock per participant and — for protocols that
// sign — the participants' keyring. It is the one place that is built; the
// protocol packages only attach their processes to it.
//
// A world is a standing object. Reset(s) puts it in exactly the state a
// newly built world has for scenario s — the same RNG stream, the same
// clock draws in the same order, empty ledgers' logs, zeroed counters — so a
// run on a reused world is indistinguishable from a run on a new one, and a
// worker that simulates a million payments builds one world, not a million.
// Reuse is an execution strategy: nothing a run computes may depend on what
// its world ran before (TestWorldReuseEquivalence).
//
// Lifetime rule: the *RunResult a protocol's RunIn returns is the world's
// own, and so are the Trace and Book it points to and its outcome maps —
// and so is everything the run itself was made of: its processes or automata
// and its transaction manager, trusted or a committee of notaries (Standing),
// every message they sent (a field of its sender or a record of the
// committee's ballot arena, on the network by pointer), every decision
// certificate with its signer and signature slices (its issuer's), and every
// signature the world's keyring handed out (sig.Keyring's arena).
// They are valid until that world's next Reset; a caller that wants to keep
// a result runs it on a world of its own (which is what Run does), and one
// that compares two results runs them on two worlds. The traffic workers
// hold one world each and fold a result into their own records before the
// next payment; a scenariogen.Fuzz worker holds two — the primary run on the
// first, the differential ANTA run and the determinism rerun on the second —
// and keeps only what it copied into the Outcome. The same rule covers a
// deal protocol's RunIn: the deals.Result, its Outcome with the Transferred
// and Compliant maps and the EscrowedForever slice, the chains, parties and
// certifier that ran, and every message they sent are the world's.
//
// A world is confined to one goroutine, like the engine inside it.
type World struct {
	Eng   *sim.Engine
	Trace *trace.Trace
	Net   *netsim.Network
	Book  *ledger.Book

	scn Scenario
	// ledgers is the pool AddLedger hands out in order; the first inUse are
	// the current run's, and on a chain ledgers[i] is escrow e_i's. The slice
	// only grows, so a shorter chain after a longer one reuses the first N.
	ledgers []*ledger.Ledger
	inUse   int
	// parts and clocks run c_0..c_N, then e_0..e_{N-1}: the order clocks
	// draw from the RNG in.
	parts  []string
	clocks []clock.Clock
	// wealth[i] is customer c_i's total balance right after Reset.
	wealth []int64
	// lockIDs is the run's escrow lock IDs back to back, built by the run's
	// first LockID ("" until then) in lockBuf; e_i's ends at lockEnds[i].
	lockIDs  string
	lockEnds []int
	lockBuf  []byte

	// kr is the world's one keyring (see KeyringFor); krReady marks it as
	// already holding the current scenario's keys.
	kr       *sig.Keyring
	krCrypto string
	krReady  bool

	// violation and detection are the run's consistency record (property C),
	// written by Report and copied into the result by Collect.
	violation, detection Incident

	// standing holds the protocol packages' run-states (see Standing).
	standing []any
	// crasher and crashes are ScheduleCrashes' run and its per-participant
	// event arguments.
	crasher Crasher
	crashes []crashArg

	res RunResult
	// out is Collect's scratch: a customer's outcome is built here, where
	// the protocol's callback can write to it without it escaping per call.
	out CustomerOutcome
}

// NewWorld returns an empty world; Reset makes it usable.
func NewWorld() *World {
	eng := sim.NewEngine(0)
	tr := trace.New()
	return &World{
		Eng:   eng,
		Trace: tr,
		Net:   netsim.New(eng, nil, tr),
		Book:  ledger.NewBook(),
		res: RunResult{
			Customers: map[string]CustomerOutcome{},
			Escrows:   map[string]EscrowOutcome{},
		},
	}
}

// Standing returns w's one value of type T, zeroed when first asked for: the
// home of a protocol package's run-state — its processes, their messages,
// whatever it derives from a scenario — which the package overwrites at the
// start of every run instead of building it anew. The world neither resets
// nor reads it, so what a run leaves there must never reach the next one:
// the package rewrites every field a run reads (TestWorldReuseEquivalence).
func Standing[T any](w *World) *T {
	for _, s := range w.standing {
		if st, ok := s.(*T); ok {
			return st
		}
	}
	st := new(T)
	w.standing = append(w.standing, st)
	return st
}

// ResetSubstrate restores the part of a world that no topology shapes — the
// engine at the start of seed's RNG stream, an empty recording or muted
// trace, a network without nodes, an empty book, no keys, no consistency
// record — and invalidates everything handed out since the previous reset.
// Reset builds a payment chain on top of it; a protocol whose parties have
// another shape (internal/deals) calls it directly and brings its own
// ledgers and keys with AddLedger and KeyringFor.
func (w *World) ResetSubstrate(seed int64, network netsim.DelayModel, muteTrace bool, reg *metrics.Registry) {
	w.scn = Scenario{}
	w.parts, w.clocks, w.wealth = w.parts[:0], w.clocks[:0], w.wealth[:0]
	w.krReady = false
	w.lockIDs = ""
	w.violation, w.detection = Incident{}, Incident{}

	w.Eng.Reset(seed)
	w.Eng.SetMetrics(sim.MetricsFrom(reg))
	w.Trace.Reset(muteTrace)
	w.Net.Reset(network)
	w.Net.SetMetrics(netsim.MetricsFrom(reg))
	w.Book.Reset()
	w.inUse = 0
}

// AddLedger returns an empty ledger of that name, registered in the book:
// the next of the world's pool, built only when the pool has run out.
func (w *World) AddLedger(name string) *ledger.Ledger {
	if w.inUse == len(w.ledgers) {
		w.ledgers = append(w.ledgers, ledger.New(name))
	}
	led := w.ledgers[w.inUse]
	w.inUse++
	led.Reset(name)
	return w.Book.Add(led)
}

// Reset validates the scenario and restores the state a new world has for
// it, invalidating everything handed out since the previous Reset.
func (w *World) Reset(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	w.ResetSubstrate(s.Seed, s.Network, s.MuteTrace, s.Metrics)
	w.scn = s
	topo := s.Topology

	// Escrow e_i hosts accounts for itself and for its two customers c_i
	// and c_{i+1}; the customers receive their initial endowment.
	ledgerMetrics := ledger.MetricsFrom(s.Metrics, "protocol")
	for i := 0; i < topo.N; i++ {
		led := w.AddLedger(EscrowID(i))
		led.SetMetrics(ledgerMetrics)
		if err := led.CreateAccount(EscrowID(i)); err != nil {
			return err
		}
		for _, cust := range [2]string{CustomerID(i), CustomerID(i + 1)} {
			if err := led.CreateAccount(cust); err != nil {
				return err
			}
			if err := led.Mint(0, cust, s.InitialBalance); err != nil {
				return err
			}
		}
	}

	w.parts = topo.appendEscrows(topo.appendCustomers(w.parts[:0]))
	rng := w.Eng.Rand()
	for range w.parts {
		rho := clock.Drift(0)
		var offset sim.Time
		if s.Timing.Clock.MaxRho > 0 {
			rho = clock.Drift((2*rng.Float64() - 1) * float64(s.Timing.Clock.MaxRho))
		}
		if s.Timing.Clock.MaxOffset > 0 {
			offset = sim.Time(rng.Int63n(int64(2*s.Timing.Clock.MaxOffset+1))) - s.Timing.Clock.MaxOffset
		}
		w.clocks = append(w.clocks, *clock.New(w.Eng, rho, offset))
	}

	for i := 0; i <= topo.N; i++ {
		w.wealth = append(w.wealth, w.customerWealth(i))
	}
	return nil
}

// customerWealth sums c_i's balances over the two ledgers she has accounts
// on (e_{i-1} and e_i).
func (w *World) customerWealth(i int) int64 {
	var total int64
	id := CustomerID(i)
	if i > 0 {
		total += w.ledgers[i-1].Balance(id)
	}
	if i < w.scn.Topology.N {
		total += w.ledgers[i].Balance(id)
	}
	return total
}

// Participants returns c_0..c_N then e_0..e_{N-1}; callers must not modify
// the slice.
func (w *World) Participants() []string { return w.parts }

// Ledger returns escrow e_i's ledger.
func (w *World) Ledger(i int) *ledger.Ledger { return w.ledgers[i] }

// CustomerClock returns customer c_i's local clock.
func (w *World) CustomerClock(i int) *clock.Clock { return &w.clocks[i] }

// EscrowClock returns escrow e_i's local clock.
func (w *World) EscrowClock(i int) *clock.Clock { return &w.clocks[w.scn.Topology.N+1+i] }

// Keyring returns the keyring holding the participants' keys under the
// scenario's backend and key seed. Protocols without signatures never call
// it and pay for no keys.
func (w *World) Keyring() *sig.Keyring {
	if !w.krReady {
		w.KeyringFor(w.scn.Crypto, w.scn.DerivedKeySeed(), w.parts)
		w.krReady = true
	}
	return w.kr
}

// KeyringFor makes the world's keyring hold exactly ids' keys under that
// backend and key seed and returns it. The keyring is built on the first
// call and afterwards reset, not rebuilt, while the backend stays the same.
func (w *World) KeyringFor(crypto, seed string, ids []string) *sig.Keyring {
	if w.kr == nil || w.krCrypto != crypto {
		w.kr = sig.NewKeyringWith(sig.Options{Backend: crypto}, seed, ids)
		w.krCrypto = crypto
	} else {
		w.kr.Reset(seed, ids)
	}
	return w.kr
}

// MaxEvents returns the run's event cap.
func (w *World) MaxEvents() uint64 {
	if w.scn.MaxEvents > 0 {
		return w.scn.MaxEvents
	}
	return DefaultMaxEvents
}

// ActionDelay draws how long participant id takes over one action: a
// uniformly random fraction of the processing bound, plus id's Byzantine
// action delay if it has one.
func (w *World) ActionDelay(id string) sim.Time {
	delay := w.scn.FaultOf(id).DelayActions
	if maxP := w.scn.Timing.MaxProcessing; maxP > 0 {
		delay += sim.Time(w.Eng.Rand().Int63n(int64(maxP + 1)))
	}
	return delay
}

// LockID returns the identifier of the payment's escrow lock on e_i,
// "<payment>/e<i>". The chain's IDs are one string, made when a run first
// asks for one, and each is a piece of it: a run pays for one string, not
// for one per escrow.
func (w *World) LockID(i int) string {
	if w.lockIDs == "" {
		buf, ends := w.lockBuf[:0], w.lockEnds[:0]
		for e := 0; e < w.scn.Topology.N; e++ {
			buf = append(append(append(buf, w.scn.Spec.PaymentID...), '/'), EscrowID(e)...)
			ends = append(ends, len(buf))
		}
		w.lockBuf, w.lockEnds, w.lockIDs = buf, ends, string(buf)
	}
	start := 0
	if i > 0 {
		start = w.lockEnds[i-1]
	}
	return w.lockIDs[start:w.lockEnds[i]]
}

// EventName labels a scheduled event "id:what". Nothing reads event names
// but a debugger, so a muted run gets the constant alone and builds no
// string per event.
func (w *World) EventName(id, what string) string {
	if w.Trace.Recording() {
		return id + ":" + what
	}
	return what
}

// Report is how a participant says it could not go on, and the one place
// that decides whether that is an inconsistency of the run. ev is a
// trace.KindViolation — the actor could not execute its own role, which no
// peer's fault excuses — or a trace.KindDetection — the actor rejected its
// peer's input, which against a Byzantine peer is the protocol working as
// specified. What a Byzantine actor reports is its own deviation. The first
// inconsistency of each kind becomes part of the run's result, whether or
// not the trace records; the event itself is appended to the trace at the
// current time. A non-nil cause is appended to the label, and only formatted
// when something keeps it.
func (w *World) Report(ev trace.Event, cause error) {
	var first *Incident
	excused := w.scn.FaultOf(ev.Actor).IsByzantine()
	switch ev.Kind {
	case trace.KindViolation:
		first = &w.violation
	case trace.KindDetection:
		first = &w.detection
		excused = excused || w.scn.FaultOf(ev.Peer).IsByzantine()
	default:
		panic("core: Report of a " + string(ev.Kind) + " event")
	}
	keep := !excused && first.Actor == ""
	if !keep && !w.Trace.Recording() {
		return
	}
	if cause != nil {
		ev.Label += ": " + cause.Error()
	}
	if keep {
		*first = Incident{Actor: ev.Actor, Label: ev.Label}
	}
	ev.At = w.Eng.Now()
	w.Trace.Append(ev)
}

// ScheduleCrashes schedules every participant's crash fault, in participant
// order (the engine's tie-break follows scheduling order). At the fault's
// time run.Crash is called.
func (w *World) ScheduleCrashes(run Crasher) {
	if len(w.scn.Faults) == 0 {
		return
	}
	w.crasher = run
	if len(w.crashes) < len(w.parts) {
		w.crashes = make([]crashArg, len(w.parts))
	}
	for k, id := range w.parts {
		f := w.scn.FaultOf(id)
		if !f.Crash {
			continue
		}
		w.crashes[k] = crashArg{w: w, k: k}
		w.Eng.ScheduleArgAt(f.CrashAt, w.EventName(id, "crash"), fireCrash, &w.crashes[k])
	}
}

// Crasher is a protocol run as ScheduleCrashes sees it.
type Crasher interface {
	// Crash applies participant id's crash fault; id is customer c_i or
	// escrow e_i.
	Crash(id string, customer bool, i int)
}

// crashArg is the argument of one scheduled crash: participant w.parts[k].
type crashArg struct {
	w *World
	k int
}

func fireCrash(x any) {
	c := x.(*crashArg)
	w, k := c.w, c.k
	if customers := w.scn.Topology.N + 1; k < customers {
		w.crasher.Crash(w.parts[k], true, k)
	} else {
		w.crasher.Crash(w.parts[k], false, k-customers)
	}
}

// Collect runs the engine's accounting into the world's RunResult once the
// run has ended. customer fills in what only the protocol knows about
// customer c_i (termination, amounts, certificates); identity, role and
// wealth are already set.
func (w *World) Collect(protocol string, fired uint64, customer func(i int, out *CustomerOutcome)) *RunResult {
	topo := w.scn.Topology
	res := &w.res
	customers, escrows := res.Customers, res.Escrows
	clear(customers)
	clear(escrows)
	*res = RunResult{
		Protocol:    protocol,
		Scenario:    w.scn,
		Trace:       w.Trace,
		Book:        w.Book,
		Customers:   customers,
		Escrows:     escrows,
		Violation:   w.violation,
		Detection:   w.detection,
		NetStats:    w.Net.Stats(),
		EventsFired: fired,
	}
	allTerm := true
	var lastTerm sim.Time
	for i := 0; i <= topo.N; i++ {
		id := CustomerID(i)
		out := &w.out
		*out = CustomerOutcome{
			ID:           id,
			Role:         topo.customerRole(i),
			WealthBefore: w.wealth[i],
			WealthAfter:  w.customerWealth(i),
		}
		customer(i, out)
		if out.Terminated && out.TerminatedAt > lastTerm {
			lastTerm = out.TerminatedAt
		}
		if !out.Terminated && !w.scn.FaultOf(id).IsByzantine() {
			allTerm = false
		}
		customers[id] = *out
	}
	for i := 0; i < topo.N; i++ {
		id, led := EscrowID(i), w.ledgers[i]
		escrows[id] = EscrowOutcome{
			ID:           id,
			BalanceDelta: led.Balance(id),
			PendingLocks: led.PendingCount(),
			AuditErr:     led.Audit(),
		}
	}
	bob := customers[topo.Bob()]
	res.BobPaid = bob.Received > 0 || bob.NetWealthChange() > 0
	res.AllTerminated = allTerm
	if lastTerm > 0 {
		res.Duration = lastTerm
	} else {
		res.Duration = w.Eng.Now()
	}
	return res
}
