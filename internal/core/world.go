package core

import (
	"slices"

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
// its world ran before (internal/scenariogen's reused-world column,
// TestWorldReuseEquivalence).
//
// What setting up a chain leaves — the participant table up to the manager,
// each escrow ledger's accounts, balances and mint log (ledger.Mark), the
// customers' wealth — a world keeps as its one stamp, keyed by the chain
// length and the initial balance it was set up for. A Reset with the same
// length and balance restores it (ledger.Restore); any other length or
// balance, ResetSubstrate, AddLedger and another metrics registry replace or
// drop it, and the next Reset sets up and stamps anew. Faults, patience and
// clocks are resolved and drawn on every Reset.
//
// Lifetime rule: the *RunResult a protocol's RunIn returns is the world's
// own, and so are the Scenario, Trace and Book it points to (RunResult.Scenario
// is the world's copy of the scenario, which Reset made) and its outcome slices
// — and so is everything the run itself was made of: its processes or automata
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

	// scn is the run's scenario, copied in by Reset: the one copy a run
	// makes, read through Scenario and RunResult.Scenario from then on.
	scn Scenario
	// ledgers is the pool AddLedger hands out in order; the first inUse are
	// the current run's, and on a chain ledgers[i] is escrow e_i's. The slice
	// only grows, so a shorter chain after a longer one reuses the first N.
	ledgers []*ledger.Ledger
	inUse   int
	// names is the run's participant table, which a PID indexes: c_0..c_N,
	// then e_0..e_{N-1} — the chain, the first chain entries, whose clocks
	// draw from the RNG in that order — then the manager, then the notaries
	// Join adds. faults, byz and patience are the scenario's Faults and
	// Patience resolved per PID, once, by Reset and Join; allHonest is
	// whether no fault, of whomever, is Byzantine.
	names     []string
	chain     int
	faults    []FaultSpec
	byz       []bool
	allHonest bool
	patience  []sim.Time
	clocks    []clock.Clock
	// wealth[i] is customer c_i's total balance right after Reset.
	wealth []int64
	// stampN and stampIB are the stamp's key (see World), stampN 0 for no
	// stamp.
	stampN  int
	stampIB int64

	// kr is the world's one keyring (see KeyringFor); krReady marks it as
	// already holding the current scenario's keys.
	kr       *sig.Keyring
	krCrypto string
	krReady  bool

	// reg is the registry the world's instrumentation was resolved for, and
	// engM, netM and ledM the world's own shards of its counters: resolved
	// when a reset names another registry, kept across runs under the same.
	reg  *metrics.Registry
	engM sim.Metrics
	netM netsim.Metrics
	ledM ledger.Metrics

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
	}
}

// Standing returns w's one value of type T, zeroed when first asked for: the
// home of a protocol package's run-state — its processes, their messages,
// whatever it derives from a scenario — which the package overwrites at the
// start of every run instead of building it anew. The world neither resets
// nor reads it, so what a run leaves there must never reach the next one:
// the package rewrites every field a run reads (the reused-world column).
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
// trace, a network without nodes, an empty book and participant table, no
// keys, no consistency record — and invalidates everything handed out since
// the previous reset. Reset builds a payment chain on top of it; a protocol
// whose parties have another shape (internal/deals) calls it directly and
// brings its own ledgers and keys with AddLedger and KeyringFor.
func (w *World) ResetSubstrate(seed int64, network netsim.DelayModel, muteTrace bool, reg *metrics.Registry) {
	w.scn = Scenario{}
	w.resetSubstrate(seed, network, muteTrace, reg)
	w.unstamp()
}

// resetSubstrate is ResetSubstrate but for the scenario, which Reset copies in
// before it (Reset's argument may be the world's own copy, RunResult.Scenario),
// and for the participant table, the ledgers and the book, which Reset keeps
// when it restores the stamp.
func (w *World) resetSubstrate(seed int64, network netsim.DelayModel, muteTrace bool, reg *metrics.Registry) {
	w.clocks, w.krReady = w.clocks[:0], false
	w.violation, w.detection = Incident{}, Incident{}

	if reg != w.reg {
		w.reg, w.stampN = reg, 0 // the stamped ledgers count in the old registry
		w.engM, w.netM, w.ledM = sim.MetricsFrom(reg), netsim.MetricsFrom(reg), ledger.MetricsFrom(reg, "protocol")
	}
	w.Eng.Reset(seed)
	w.Eng.SetMetrics(w.engM)
	w.Trace.Reset(muteTrace)
	w.Net.Reset(network)
	w.Net.SetMetrics(w.netM)
}

// unstamp empties the participant table, the book and the ledger pool and
// drops the stamp.
func (w *World) unstamp() {
	w.names, w.chain, w.wealth = w.names[:0], 0, w.wealth[:0]
	w.faults, w.byz, w.patience = w.faults[:0], w.byz[:0], w.patience[:0]
	w.Book.Reset()
	w.inUse, w.stampN = 0, 0
}

// AddLedger returns an empty ledger of that name, registered in the book:
// the next of the world's pool, built only when the pool has run out.
func (w *World) AddLedger(name string) *ledger.Ledger {
	if w.inUse == len(w.ledgers) {
		w.ledgers = append(w.ledgers, ledger.New(name))
	}
	led := w.ledgers[w.inUse]
	w.inUse++
	w.stampN = 0
	led.Reset(name)
	return w.Book.Add(led)
}

// Reset validates the scenario and restores the state a new world has for
// it (see World: the stamp), invalidating everything handed out since the
// previous Reset. The world keeps a copy of *s, and nothing of s itself.
func (w *World) Reset(s *Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	w.scn = *s
	w.resetSubstrate(s.Seed, s.Network, s.MuteTrace, s.Metrics)
	if w.stampN == s.Topology.N && w.stampIB == s.InitialBalance {
		w.names = w.names[:w.chain+1]
		w.Net.SetParticipants(w.names)
		for _, led := range w.ledgers[:w.inUse] {
			led.Restore()
		}
	} else {
		w.unstamp()
		if err := w.setUp(); err != nil {
			return err
		}
	}
	w.resolveChain()

	rng := w.Eng.Rand()
	for range w.chain {
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
	return nil
}

// setUp lays out the scenario's chain on an unstamped world — the
// participant table c_0..c_N, e_0..e_{N-1}, the manager, and the escrows'
// ledgers: e_i hosts accounts for itself and for its two customers c_i and
// c_{i+1}, who receive their initial endowment — records the customers'
// wealth and stamps it all.
func (w *World) setUp() error {
	topo := w.scn.Topology
	w.names = append(topo.appendEscrows(topo.appendCustomers(w.names)), ManagerID)
	w.chain = len(w.names) - 1
	w.Net.SetParticipants(w.names)
	for i := 0; i < topo.N; i++ {
		led := w.AddLedger(EscrowID(i))
		led.SetMetrics(w.ledM)
		led.SetParticipants(w.names)
		if err := led.OpenAccount(w.EscrowPID(i)); err != nil {
			return err
		}
		for _, cust := range [2]PID{w.CustomerPID(i), w.CustomerPID(i + 1)} {
			if err := led.OpenAccount(cust); err != nil {
				return err
			}
			if err := led.Deposit(0, cust, w.scn.InitialBalance); err != nil {
				return err
			}
		}
		led.Mark()
	}
	for i := 0; i <= topo.N; i++ {
		w.wealth = append(w.wealth, w.customerWealth(i))
	}
	w.stampN, w.stampIB = topo.N, w.scn.InitialBalance
	return nil
}

// resolveChain lays out the faults, Byzantine flags and patience of the chain
// and the manager, PID by PID, reading each key of the scenario's maps once;
// a key that names none of them is left for Join.
func (w *World) resolveChain() {
	n := w.chain + 1
	w.faults, w.byz, w.patience = slices.Grow(w.faults[:0], n)[:n], slices.Grow(w.byz[:0], n)[:n], slices.Grow(w.patience[:0], n)[:n]
	clear(w.faults)
	clear(w.byz)
	clear(w.patience)
	w.allHonest = true
	if len(w.scn.Faults) > 0 {
		for id, f := range w.scn.Faults {
			w.allHonest = w.allHonest && !f.IsByzantine()
			if pid := w.chainPID(id); pid != NoPID {
				w.faults[pid], w.byz[pid] = f, f.IsByzantine()
			}
		}
	}
	if len(w.scn.Patience) > 0 {
		for id, p := range w.scn.Patience {
			if pid := w.chainPID(id); pid != NoPID {
				w.patience[pid] = p
			}
		}
	}
}

// chainPID returns the PID of the chain participant or the manager named
// id, NoPID if id names none.
func (w *World) chainPID(id string) PID {
	n := w.scn.Topology.N
	switch name, k := SplitID(id); {
	case id == ManagerID:
		return w.ManagerPID()
	case k < 0:
	case name == "c" && k <= n:
		return w.CustomerPID(k)
	case name == "e" && k < n:
		return w.EscrowPID(k)
	}
	return NoPID
}

// resolve appends the next PID's fault, Byzantine flag and patience, read
// from the scenario under its name.
func (w *World) resolve(id string) {
	f, p := w.scn.FaultOf(id), w.scn.PatienceOf(id)
	w.faults, w.byz, w.patience = append(w.faults, f), append(w.byz, f != FaultSpec{}), append(w.patience, p)
}

// Join adds a participant outside the chain and its manager — a notary — to
// the run's participant table and returns its PID.
func (w *World) Join(name string) PID {
	w.names = append(w.names, name)
	w.resolve(name)
	w.Net.SetParticipants(w.names)
	return PID(len(w.names) - 1)
}

// Name renders pid: its participant's interned ID, "" for NoPID.
func (w *World) Name(pid PID) string {
	if uint(pid) < uint(len(w.names)) {
		return w.names[pid]
	}
	return ""
}

// CustomerPID returns customer c_i's PID.
func (w *World) CustomerPID(i int) PID { return PID(i) }

// EscrowPID returns escrow e_i's PID.
func (w *World) EscrowPID(i int) PID { return PID(w.scn.Topology.N + 1 + i) }

// ManagerPID returns the transaction manager's PID.
func (w *World) ManagerPID() PID { return PID(w.chain) }

// UpstreamEscrowPID returns customer c_i's upstream escrow e_{i-1}, NoPID
// for Alice.
func (w *World) UpstreamEscrowPID(i int) PID {
	if i <= 0 {
		return NoPID
	}
	return w.EscrowPID(i - 1)
}

// DownstreamEscrowPID returns customer c_i's downstream escrow e_i, NoPID
// for Bob.
func (w *World) DownstreamEscrowPID(i int) PID {
	if i >= w.scn.Topology.N {
		return NoPID
	}
	return w.EscrowPID(i)
}

// FaultOf returns pid's fault spec (zero value if honest).
//
//xchain:hotpath
func (w *World) FaultOf(pid PID) FaultSpec { return w.faults[pid] }

// Byzantine reports whether pid deviates from the protocol.
//
//xchain:hotpath
func (w *World) Byzantine(pid PID) bool { return w.byz[pid] }

// PatienceOf returns pid's patience (0 = infinite).
func (w *World) PatienceOf(pid PID) sim.Time { return w.patience[pid] }

// byzantineNamed is Byzantine for the participant named id, false for a
// name the table does not hold.
func (w *World) byzantineNamed(id string) bool {
	for pid, name := range w.names {
		if name == id {
			return w.byz[pid]
		}
	}
	return false
}

// customerWealth sums c_i's balances over the two ledgers she has accounts
// on (e_{i-1} and e_i).
//
//xchain:hotpath
func (w *World) customerWealth(i int) int64 {
	var total int64
	pid := w.CustomerPID(i)
	if i > 0 {
		total += w.ledgers[i-1].Balance(pid)
	}
	if i < w.scn.Topology.N {
		total += w.ledgers[i].Balance(pid)
	}
	return total
}

// Participants returns c_0..c_N then e_0..e_{N-1}, PIDs 0 to 2N; callers
// must not modify the slice.
func (w *World) Participants() []string { return w.names[:w.chain] }

// Scenario returns the scenario the world was last Reset for: the world's own
// copy, valid until its next reset. Callers must not modify it.
func (w *World) Scenario() *Scenario { return &w.scn }

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
		w.KeyringFor(w.scn.Crypto, w.scn.DerivedKeySeed(), w.Participants())
		w.krReady = true
	}
	return w.kr
}

// KeyringFor makes the world's keyring hold exactly ids' keys under that
// backend and key seed, ids[i] under PID i, and returns it. The keyring is built on the first
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

// ActionDelay draws how long participant pid takes over one action: a
// uniformly random fraction of the processing bound, plus pid's Byzantine
// action delay if it has one.
//
//xchain:hotpath
func (w *World) ActionDelay(pid PID) sim.Time {
	delay := w.faults[pid].DelayActions
	if maxP := w.scn.Timing.MaxProcessing; maxP > 0 {
		delay += sim.Time(w.Eng.Rand().Int63n(int64(maxP + 1)))
	}
	return delay
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
//
//xchain:hotpath
func (w *World) Report(ev trace.Event, cause error) {
	var first *Incident
	excused := w.byzantineNamed(ev.Actor)
	switch ev.Kind {
	case trace.KindViolation:
		first = &w.violation
	case trace.KindDetection:
		first = &w.detection
		excused = excused || w.byzantineNamed(ev.Peer)
	default:
		//lint:hotalloc unreachable: only a caller's programming error gets here
		panic("core: Report of a " + string(ev.Kind) + " event")
	}
	if keep := !excused && first.Actor == ""; keep || w.Trace.Recording() {
		if cause != nil {
			ev.Label += ": " + cause.Error()
		}
		if keep {
			*first = Incident{Actor: ev.Actor, Label: ev.Label}
		}
		ev.At = w.Eng.Now()
		w.Trace.Append(ev)
	}
}

// ScheduleCrashes schedules every participant's crash fault, in participant
// order (the engine's tie-break follows scheduling order). At the fault's
// time run.Crash is called.
func (w *World) ScheduleCrashes(run Crasher) {
	if len(w.scn.Faults) == 0 {
		return
	}
	w.crasher = run
	if len(w.crashes) < w.chain {
		w.crashes = make([]crashArg, w.chain)
	}
	for k := range w.chain {
		f := w.faults[k]
		if !f.Crash {
			continue
		}
		w.crashes[k] = crashArg{w: w, k: k}
		w.Eng.ScheduleArgAt(f.CrashAt, "crash", fireCrash, &w.crashes[k])
	}
}

// Crasher is a protocol run as ScheduleCrashes sees it.
type Crasher interface {
	// Crash applies participant id's crash fault; id is customer c_i or
	// escrow e_i.
	Crash(id string, customer bool, i int)
}

// crashArg is the argument of one scheduled crash: participant PID k.
type crashArg struct {
	w *World
	k int
}

func fireCrash(x any) {
	c := x.(*crashArg)
	w, k := c.w, c.k
	if customers := w.scn.Topology.N + 1; k < customers {
		w.crasher.Crash(w.names[k], true, k)
	} else {
		w.crasher.Crash(w.names[k], false, k-customers)
	}
}

// Collect runs the engine's accounting into the world's RunResult once the
// run has ended. customer fills in what only the protocol knows about
// customer c_i (termination, amounts, certificates); identity, role and
// wealth are already set.
//
// The result's outcome slices stand on the world like the result: each
// outcome is written in place, at its chain position.
func (w *World) Collect(protocol string, fired uint64, customer func(i int, out *CustomerOutcome)) *RunResult {
	n := w.scn.Topology.N
	res := &w.res
	res.Customers = slices.Grow(res.Customers[:0], n+1)[:n+1]
	res.Escrows = slices.Grow(res.Escrows[:0], n)[:n]
	res.Protocol = protocol
	res.Scenario = &w.scn
	res.byz, res.allHonest = w.byz, w.allHonest
	res.Trace, res.Book = w.Trace, w.Book
	res.CommitIssued, res.AbortIssued = false, false
	res.Violation, res.Detection = w.violation, w.detection
	res.NetStats = w.Net.Stats()
	res.EventsFired = fired
	res.Err = nil
	allTerm := true
	var lastTerm sim.Time
	var out *CustomerOutcome
	for i := 0; i <= n; i++ {
		out = &res.Customers[i]
		*out = CustomerOutcome{}
		out.ID, out.Role = CustomerID(i), w.scn.Topology.customerRole(i)
		out.WealthBefore, out.WealthAfter = w.wealth[i], w.customerWealth(i)
		customer(i, out)
		if out.Terminated && out.TerminatedAt > lastTerm {
			lastTerm = out.TerminatedAt
		}
		if !out.Terminated && !w.byz[i] {
			allTerm = false
		}
	}
	// out is Bob's outcome now, the last the loop built.
	res.BobPaid = out.Received > 0 || out.WealthAfter > out.WealthBefore
	// Each escrow's ledger is audited once, and the book's audit, if it
	// holds just these ledgers, is the first failure by name among them.
	books := w.Book.Ledgers()
	res.audit, res.audited = nil, len(books) == n
	first := ""
	for i := 0; i < n; i++ {
		led := w.ledgers[i]
		e := &res.Escrows[i]
		e.ID = EscrowID(i)
		e.BalanceDelta = led.Balance(w.EscrowPID(i))
		e.PendingLocks, e.AuditErr = led.PendingCount(), led.Audit()
		if e.AuditErr != nil && (res.audit == nil || led.Name() < first) {
			res.audit, first = e.AuditErr, led.Name()
		}
		res.audited = res.audited && books[i] == led
	}
	res.AllTerminated = allTerm
	if lastTerm > 0 {
		res.Duration = lastTerm
	} else {
		res.Duration = w.Eng.Now()
	}
	return res
}
