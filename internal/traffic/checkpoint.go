package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Checkpoint/resume for long traffic runs.
//
// A RunSnapshot captures the complete state of the admission timeline at an
// arrival boundary, each fact once: the position in the payment population,
// the event queue's clock, every live flight (queued and in-flight payments
// with their pending events' seqs), the ledger book (balances and held
// tallies: the admitted flights are the records of the locks), the
// aggregator (exact counters, latency histogram or sample, exemplar
// reservoir) and the pending Byzantine marks. Everything else — the payment
// stream itself, the fault plan, every RNG side-stream, what a flight
// derives (its ID, hop amounts, event instant, kept record) — is a pure
// function of (Scenario.Seed, Workload) and the captured state, and is
// re-derived on resume, so the snapshot stays proportional to the live
// state, not the run length.
//
// The determinism contract does the heavy lifting: because an uninterrupted
// run is a pure function of its inputs, a resumed run that restores the
// timeline state exactly and replays the remaining payments produces a
// byte-identical Result (TestExecutionLattice's resume cells).

// SnapshotKind is the checkpoint envelope kind of traffic run snapshots.
const SnapshotKind = "traffic-run"

// ErrInterrupted is returned by RunWith when the run stopped at a checkpoint
// boundary before completing — via Config.InterruptAt or Config.Control.
// The checkpoint file (if Config.CheckpointPath is set) holds the state to
// resume from.
var ErrInterrupted = errors.New("traffic: run interrupted before completion")

// ErrBadSnapshot is returned (wrapped) by RunWith when Config.Resume holds a
// snapshot that carries this run's fingerprint but could not have been
// written by it: a route outside the chain, an event due before the clock, a
// ledger the chain does not have. Nothing has been restored when
// it is returned, so redoing the run from payment 0 is always safe.
var ErrBadSnapshot = errors.New("traffic: malformed snapshot")

// Control lets another goroutine ask a running traffic run to stop at its
// next arrival boundary (writing a final checkpoint when configured). All
// methods are safe on a nil receiver and across goroutines.
type Control struct {
	interrupted atomic.Bool
}

// Interrupt asks the run to stop at the next arrival boundary.
func (c *Control) Interrupt() {
	if c != nil {
		c.interrupted.Store(true)
	}
}

// Interrupted reports whether Interrupt was called.
func (c *Control) Interrupted() bool {
	return c != nil && c.interrupted.Load()
}

// ConfigMismatchError is returned when Config.Resume holds a snapshot
// produced by a different (scenario, workload) configuration. Resuming it
// would silently compute garbage, so the mismatch is a hard error carrying
// the snapshot's embedded configuration for diagnosis.
type ConfigMismatchError struct {
	// SnapshotHash fingerprints the configuration that produced the
	// snapshot; RunHash fingerprints the one the caller asked to resume
	// under.
	SnapshotHash string
	RunHash      string
	// Config is the canonical configuration document embedded in the
	// snapshot — render it to show the operator what the snapshot actually
	// ran.
	Config json.RawMessage
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("traffic: snapshot was produced under a different configuration (snapshot %s, this run %s)",
		e.SnapshotHash, e.RunHash)
}

// EmbeddedConfig renders the snapshot's embedded configuration document,
// indented for display.
func (e *ConfigMismatchError) EmbeddedConfig() string {
	var buf []byte
	var out map[string]any
	if err := json.Unmarshal(e.Config, &out); err == nil {
		buf, _ = json.MarshalIndent(out, "", "  ")
	}
	if buf == nil {
		return string(e.Config)
	}
	return string(buf)
}

// runFingerprint is the canonical description of everything a traffic
// Result is a function of. Two runs with equal fingerprints compute
// byte-identical Results, so a snapshot may only be resumed under a
// configuration with the same fingerprint. Execution-strategy knobs
// (Workers, Metrics, checkpoint cadence) are deliberately excluded: they
// never change the Result. Of the retention knobs only what they resolve to
// counts: whether the records are kept (Config.keep), and the exemplar
// count of a run that drops them.
type runFingerprint struct {
	Escrows        int                       `json:"escrows"`
	Seed           int64                     `json:"seed"`
	Timing         core.Timing               `json:"timing"`
	Network        string                    `json:"network"`
	Faults         map[string]core.FaultSpec `json:"faults,omitempty"`
	Patience       map[string]sim.Time       `json:"patience,omitempty"`
	InitialBalance int64                     `json:"initialBalance"`
	Crypto         string                    `json:"crypto"`
	KeySeed        string                    `json:"keySeed,omitempty"`
	MaxEvents      uint64                    `json:"maxEvents,omitempty"`
	Workload       Workload                  `json:"workload"`
	Keep           bool                      `json:"keep"`
	Exemplars      int                       `json:"exemplars,omitempty"`
}

// fingerprintOf builds the fingerprint of a run whose retention resolved to
// keep and exemplars. Call it after Config overrides (Crypto, Metrics) have
// been folded into the scenario.
func fingerprintOf(s core.Scenario, w Workload, keep bool, exemplars int) runFingerprint {
	return runFingerprint{
		Escrows:        s.Topology.N,
		Seed:           s.Seed,
		Timing:         s.Timing,
		Network:        fmt.Sprintf("%s %+v", s.Network.Name(), s.Network),
		Faults:         s.Faults,
		Patience:       s.Patience,
		InitialBalance: s.InitialBalance,
		Crypto:         s.Crypto,
		KeySeed:        s.KeySeed,
		MaxEvents:      s.MaxEvents,
		Workload:       w,
		Keep:           keep,
		Exemplars:      exemplars,
	}
}

// canonical serialises the fingerprint (json.Marshal sorts map keys, so the
// bytes are deterministic) and returns its hex SHA-256 alongside.
func (fp runFingerprint) canonical() (hash string, doc []byte, err error) {
	doc, err = json.Marshal(fp)
	if err != nil {
		return "", nil, fmt.Errorf("traffic: fingerprint: %w", err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), doc, nil
}

// FlightState is one live payment — queued or in flight — flattened for
// serialisation: the generated payment, its precomputed protocol
// sub-outcome, how it was admitted and the seq of its pending event (expiry
// for queued flights, settlement for admitted ones). Everything else of the
// flight derives from these: its ID from its index and route, each hop's
// amount from its base, its event's instant from its arrival or admission,
// and its kept record from all of them.
type FlightState struct {
	Index    int      `json:"index"`
	Sender   int      `json:"sender"`
	Receiver int      `json:"receiver"`
	Base     int64    `json:"base"`
	Arrival  sim.Time `json:"arrival"`
	Protocol string   `json:"protocol"`

	Paid     bool     `json:"paid,omitempty"`
	Duration sim.Time `json:"duration"`
	Events   uint64   `json:"events,omitempty"`
	Err      string   `json:"err,omitempty"`
	Byz      bool     `json:"byz,omitempty"`

	Start  sim.Time `json:"start,omitempty"`
	Queued bool     `json:"queued,omitempty"`
	// Attempts is the number of admission attempts made so far: frozen once
	// admitted, one more per settlement sat through while queued.
	Attempts int    `json:"attempts"`
	InQueue  bool   `json:"inQueue,omitempty"`
	Seq      uint64 `json:"seq"`
}

// MarkState is one pending Byzantine-status transition of the fault plan.
type MarkState struct {
	At    sim.Time `json:"at"`
	Seq   uint64   `json:"seq"`
	Index int      `json:"index"`
	On    bool     `json:"on"`
}

// AggState captures the aggregator: exact scalar accumulators, the latency
// histogram of a run that drops its records (one that keeps them takes its
// percentiles from them) and the exemplar reservoir. The latencies summed
// are Partial.Succeeded's, and the reservoir has seen Partial.Total payments
// (its RNG is re-derived by replaying that many draws).
type AggState struct {
	LatSum       float64  `json:"latSum"`
	LatMax       float64  `json:"latMax"`
	QueueWaitSum float64  `json:"queueWaitSum"`
	LastArrival  sim.Time `json:"lastArrival"`

	Hist      *stats.HistogramState `json:"hist,omitempty"`
	Reservoir []PaymentResult       `json:"reservoir,omitempty"`
}

// PartialResult carries the Result counters accumulated so far.
type PartialResult struct {
	Total             int      `json:"total"`
	Succeeded         int      `json:"succeeded"`
	Failed            int      `json:"failed"`
	Rejected          int      `json:"rejected"`
	Dropped           int      `json:"dropped"`
	Errored           int      `json:"errored"`
	VolumeMoved       int64    `json:"volumeMoved"`
	Makespan          sim.Time `json:"makespan"`
	QueuedCount       int      `json:"queuedCount"`
	PeakInFlight      int      `json:"peakInFlight"`
	FaultedPayments   int      `json:"faultedPayments"`
	DroppedFaulted    int      `json:"droppedFaulted"`
	DroppedCapacity   int      `json:"droppedCapacity"`
	PeakByzantineHeld int64    `json:"peakByzantineHeld"`
	SafetyViolations  int      `json:"safetyViolations"`
	SafetySample      []string `json:"safetySample,omitempty"`
	SubEventsFired    uint64   `json:"subEventsFired"`
	CascadeErr        string   `json:"cascadeErr,omitempty"`
}

// SettledPayment is one retained per-payment record (keep mode only).
type SettledPayment struct {
	Index int           `json:"index"`
	PR    PaymentResult `json:"pr"`
}

// RunSnapshot is the serialisable state of a traffic run at an arrival
// boundary: payments [0, NextIndex) have been admitted (though some may
// still be queued or in flight), payment NextIndex has not been fetched.
type RunSnapshot struct {
	// ConfigHash fingerprints the producing configuration: the envelope
	// carries it, and LoadSnapshot fills it in. Config embeds the canonical
	// fingerprint document itself so a mismatch is diagnosable.
	ConfigHash string          `json:"-"`
	Config     json.RawMessage `json:"config"`
	// NextIndex is the index of the first payment the resumed run admits.
	NextIndex int `json:"nextIndex"`

	// The event queue's clock: its time, its seq cursor (the events the
	// timeline scheduled) and the events it fired. The timeline's own event
	// count adds the arrivals, NextIndex.
	EngineNow   sim.Time `json:"engineNow"`
	EngineSeq   uint64   `json:"engineSeq"`
	EngineFired uint64   `json:"engineFired"`

	ByzConn int `json:"byzConn"`

	Partial PartialResult `json:"partial"`
	Agg     AggState      `json:"agg"`

	// Flights in index order: the queued ones (InQueue) are the queue, in
	// arrival order.
	Flights []FlightState `json:"flights,omitempty"`
	Marks   []MarkState   `json:"marks,omitempty"`

	Ledgers []ledger.LedgerState `json:"ledgers"`

	// Settled holds the terminal per-payment records accumulated so far,
	// present only when the run retains per-payment records.
	Settled []SettledPayment `json:"settled,omitempty"`
}

// LoadSnapshot reads and validates a traffic run snapshot. The checkpoint
// envelope's format, version, kind and content checksum are all verified; a
// corrupt or foreign file is rejected with a typed error from
// internal/checkpoint, never half-loaded.
func LoadSnapshot(path string) (*RunSnapshot, error) {
	env, err := checkpoint.Load(path, SnapshotKind)
	if err != nil {
		return nil, err
	}
	sn := RunSnapshot{ConfigHash: env.ConfigHash}
	if err := json.Unmarshal(env.Payload, &sn); err != nil {
		return nil, fmt.Errorf("traffic: snapshot %s: decode: %w", path, err)
	}
	return &sn, nil
}

// validate checks, before anything is restored, that sn is a state this run
// (chain escrows, workload w resolved to ps, this retention) could have
// captured, so that restoring it and running on cannot index out of range,
// miss a ledger, reserve a non-positive amount, settle a hop its ledger does
// not hold, strand a held value no flight settles, leave a queued payment
// filed under no account, lose a payment the snapshot lists nowhere, fire an
// event before the clock or take percentiles from a histogram that missed
// some latencies. Every failure wraps ErrBadSnapshot.
func (sn *RunSnapshot) validate(chain int, w Workload, ps *protocols, keep bool, exemplars int) error {
	payments := w.Payments
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if sn.NextIndex < 0 || sn.NextIndex > payments {
		return bad("resumes at payment %d of %d", sn.NextIndex, payments)
	}
	if len(sn.Ledgers) != chain {
		return bad("holds %d ledgers, topology has %d escrows", len(sn.Ledgers), chain)
	}
	byName := map[string]*ledger.LedgerState{}
	for i := range sn.Ledgers {
		byName[sn.Ledgers[i].Name] = &sn.Ledgers[i]
	}
	// payer[e] is c_e's balance on e_e: what admission reads on escrow e.
	// held[e] and locks[e] are the value c_e has held there and the number
	// of locks holding it, which the admitted flights' hops on e must add up
	// to, so that each settles and nothing stays held; every lock on e_e is
	// c_e's, so nobody else holds anything there.
	payer, held, locks := make([]int64, chain), make([]int64, chain), make([]int, chain)
	for e := range payer {
		l := byName[core.EscrowID(e)]
		if l == nil {
			return bad("holds no ledger %s", core.EscrowID(e))
		}
		for _, a := range l.Accounts {
			if a.Owner == core.CustomerID(e) {
				payer[e] = a.Balance
			}
		}
		for _, h := range l.Held {
			if h.Payer != core.CustomerID(e) {
				return bad("ledger %s: %s holds %d", l.Name, h.Payer, h.Value)
			}
			held[e] += h.Value
		}
		locks[e] = l.HeldLocks
	}
	now := sn.EngineNow
	last := -1
	for i := range sn.Flights {
		f := &sn.Flights[i]
		if f.Index <= last || f.Index >= sn.NextIndex {
			return bad("flight %d: index %d out of order or not below %d", i, f.Index, sn.NextIndex)
		}
		last = f.Index
		if f.Sender < 0 || f.Sender >= f.Receiver || f.Receiver > chain {
			return bad("flight %d: route c%d -> c%d outside the chain", f.Index, f.Sender, f.Receiver)
		}
		if protoIndex(ps, f.Protocol) < 0 {
			return bad("flight %d: protocol %q is not in the mix", f.Index, f.Protocol)
		}
		h := f.Receiver - f.Sender
		fits := true
		for k := range h {
			// The run derives every hop's amount from the base.
			e, amount := f.Sender+k, hopAmount(f.Base, h, k, w.Commission)
			if amount < 1 {
				return bad("flight %d: hop %d carries amount %d", f.Index, k, amount)
			}
			fits = fits && payer[e] >= amount
			if !f.InQueue {
				held[e] -= amount
				locks[e]--
			}
		}
		if f.InQueue {
			// The timeline files a waiter under the account that refuses it; a
			// queued payment every hop can cover has none (the run would have
			// admitted it at the settlement that freed the liquidity).
			if fits {
				return bad("flight %d waits in the queue though every hop of its route can cover it", f.Index)
			}
		} else if f.Start < f.Arrival || f.Start > now {
			return bad("flight %d: admitted at %v, outside its arrival %v to the clock's %v", f.Index, f.Start, f.Arrival, now)
		}
		if due := f.due(w.QueuePatience); due < now {
			return bad("flight %d: its event is due at %v, before the clock's %v", f.Index, due, now)
		}
	}
	for e := range held {
		if held[e] != 0 || locks[e] != 0 {
			return bad("ledger %s holds %d more in %d more locks than its admitted flights", core.EscrowID(e), held[e], locks[e])
		}
	}
	for _, mk := range sn.Marks {
		if mk.Index < 0 || mk.Index > chain || mk.At < now {
			return bad("mark of c%d due at %v: outside the chain or before the clock's %v", mk.Index, mk.At, now)
		}
	}
	if !keep && len(sn.Settled) != 0 {
		return bad("holds %d per-payment records, the run keeps none", len(sn.Settled))
	}
	for _, sp := range sn.Settled {
		if sp.Index < 0 || sp.Index >= sn.NextIndex {
			return bad("settled record index %d not below %d", sp.Index, sn.NextIndex)
		}
	}
	p, agg := &sn.Partial, &sn.Agg
	if p.Total < 0 || p.Total > sn.NextIndex || p.Succeeded < 0 || p.Succeeded > p.Total {
		return bad("%d of %d payments settled, %d of them paid, at payment %d", p.Total, sn.NextIndex, p.Succeeded, sn.NextIndex)
	}
	// Every payment that arrived has settled or is listed, in flight or
	// queued: one listed nowhere would never settle.
	if p.Total+len(sn.Flights) != sn.NextIndex {
		return bad("%d payments settled and %d listed, of %d arrived", p.Total, len(sn.Flights), sn.NextIndex)
	}
	if !keep && exemplars > 0 && len(agg.Reservoir) != min(p.Total, exemplars) {
		return bad("reservoir holds %d of %d exemplars after %d draws", len(agg.Reservoir), exemplars, p.Total)
	}
	// A run that drops its records takes its percentiles from the histogram,
	// which holds every latency summed; one that keeps them holds none.
	if h := agg.Hist; keep != (h == nil) {
		return bad("latency histogram present is %t, records kept is %t", h != nil, keep)
	} else if h != nil {
		total := h.Underflow
		for _, c := range h.Counts {
			total += c
		}
		if total != h.N || h.N != uint64(p.Succeeded) {
			return bad("latency histogram of %d observations in buckets summing to %d, for %d latencies", h.N, total, p.Succeeded)
		}
	}
	return nil
}

// checkpointer drives snapshot writes and interruption at arrival
// boundaries. boundary is called once per admitted payment with the index
// of the next payment to fetch.
type checkpointer struct {
	every       int
	path        string
	hash        string
	config      json.RawMessage
	interruptAt int
	ctl         *Control
	total       int
}

// boundary writes a periodic checkpoint and/or stops the run. A stop
// (InterruptAt reached, or Control tripped) writes a final checkpoint when a
// path is configured and then surfaces ErrInterrupted.
func (c *checkpointer) boundary(t *timeline, next int) error {
	stop := (c.interruptAt > 0 && next >= c.interruptAt) || c.ctl.Interrupted()
	write := stop || (c.every > 0 && next%c.every == 0 && next < c.total)
	if write && c.path != "" {
		if err := c.save(t, next, stop); err != nil {
			return err
		}
	}
	if stop {
		return ErrInterrupted
	}
	return nil
}

// save captures the timeline and atomically writes the snapshot file. A
// periodic snapshot that cannot be written (the directory is read-only, full
// or gone) is counted and skipped: the previous snapshot is still on disk,
// whole, and the run itself is unharmed, so failing it would turn a storage
// fault into a lost computation. The final snapshot of an interrupted run is
// the only copy of the work since the last one, so its write error surfaces.
func (c *checkpointer) save(t *timeline, next int, final bool) error {
	sn, err := t.capture(next)
	if err != nil {
		return err
	}
	sn.Config = c.config
	payload, err := json.Marshal(sn)
	if err != nil {
		return fmt.Errorf("traffic: checkpoint: %w", err)
	}
	if err := checkpoint.Save(c.path, SnapshotKind, c.hash, payload); err != nil {
		if final {
			return err
		}
		t.m.CheckpointWriteErrors.Inc()
	}
	return nil
}

// errString renders an error for serialisation ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// capture snapshots the timeline at an arrival boundary: payments
// [0, next) admitted, payment next not yet fetched. The capture shares no
// mutable state with the live run.
func (t *timeline) capture(next int) (*RunSnapshot, error) {
	sn := &RunSnapshot{NextIndex: next}
	sn.EngineNow, sn.EngineSeq, sn.EngineFired = t.q.Clock()
	sn.ByzConn = t.byzConn

	r := t.res
	sn.Partial = PartialResult{
		Total:             r.Total,
		Succeeded:         r.Succeeded,
		Failed:            r.Failed,
		Rejected:          r.Rejected,
		Dropped:           r.Dropped,
		Errored:           r.Errored,
		VolumeMoved:       r.VolumeMoved,
		Makespan:          r.Makespan,
		QueuedCount:       r.QueuedCount,
		PeakInFlight:      r.PeakInFlight,
		FaultedPayments:   r.FaultedPayments,
		DroppedFaulted:    r.DroppedFaulted,
		DroppedCapacity:   r.DroppedCapacity,
		PeakByzantineHeld: r.PeakByzantineHeld,
		SafetyViolations:  r.SafetyViolations,
		SafetySample:      append([]string(nil), r.SafetySample...),
		SubEventsFired:    r.SubEventsFired,
		CascadeErr:        errString(r.CascadeErr),
	}
	sn.Agg = t.agg.state()

	// Live flights, sorted by payment index so the capture is deterministic.
	// The ledgers' captures hold the value the admitted ones hold.
	for ix := range t.made {
		f := t.flightAt(ix)
		if f.finished {
			continue
		}
		attempts := int(f.attempts)
		if f.inQueue {
			attempts = t.passes - f.passBase
		}
		sn.Flights = append(sn.Flights, FlightState{
			Index:    f.index,
			Sender:   int(f.sender),
			Receiver: int(f.receiver),
			Base:     f.base,
			Arrival:  f.arrival,
			Protocol: t.ps.names[f.proto],
			Paid:     f.paid,
			Duration: f.duration,
			Events:   f.events,
			Err:      errString(t.errs[f.index]),
			Byz:      f.byz,
			Start:    f.start,
			Queued:   f.queued,
			Attempts: attempts,
			InQueue:  f.inQueue,
			Seq:      f.seq,
		})
	}
	slices.SortFunc(sn.Flights, func(a, b FlightState) int { return a.Index - b.Index })
	for _, mk := range t.marks {
		if mk.pending {
			sn.Marks = append(sn.Marks, MarkState{At: mk.at, Seq: mk.seq, Index: mk.index, On: mk.on})
		}
	}
	for _, name := range r.Book.Names() {
		sn.Ledgers = append(sn.Ledgers, r.Book.MustGet(name).State())
	}
	if t.res.Payments != nil {
		for i := 0; i < next; i++ {
			if pr := t.res.Payments[i]; pr.Status != "" {
				sn.Settled = append(sn.Settled, SettledPayment{Index: i, PR: pr})
			}
		}
	}
	return sn, nil
}

// state captures the aggregator's accumulators.
func (a *aggregator) state() AggState {
	st := AggState{
		LatSum:       a.latSum,
		LatMax:       a.latMax,
		QueueWaitSum: a.queueWaitSum,
		LastArrival:  a.lastArrival,
	}
	if a.latHist != nil {
		h := a.latHist.State()
		st.Hist = &h
	}
	if len(a.reservoir) > 0 {
		st.Reservoir = append([]PaymentResult(nil), a.reservoir...)
	}
	return st
}

// restoredAggregator rebuilds the aggregator from sn's capture. The exemplar
// reservoir RNG is recovered by replaying its draw sequence: algorithm R
// draws exactly once per observation past the reservoir size, so the number
// of past draws — and each draw's bound — is a pure function of the
// payments settled, Partial.Total.
func restoredAggregator(res *Result, keep bool, exemplars int, sn *RunSnapshot) *aggregator {
	a := newAggregator(res, keep, exemplars)
	st := &sn.Agg
	a.latSum = st.LatSum
	a.latMax = st.LatMax
	a.queueWaitSum = st.QueueWaitSum
	a.lastArrival = st.LastArrival
	if a.latHist != nil { // validate found the histogram
		a.latHist.Restore(*st.Hist)
	}
	if a.resSize > 0 {
		a.reservoir = append(a.reservoir, st.Reservoir...)
		for i := a.resSize; i < sn.Partial.Total; i++ {
			a.resRng.Intn(i + 1)
		}
	}
	return a
}

// apply folds the captured counters back into a fresh Result.
func (p *PartialResult) apply(r *Result) {
	r.Total = p.Total
	r.Succeeded = p.Succeeded
	r.Failed = p.Failed
	r.Rejected = p.Rejected
	r.Dropped = p.Dropped
	r.Errored = p.Errored
	r.VolumeMoved = p.VolumeMoved
	r.Makespan = p.Makespan
	r.QueuedCount = p.QueuedCount
	r.PeakInFlight = p.PeakInFlight
	r.FaultedPayments = p.FaultedPayments
	r.DroppedFaulted = p.DroppedFaulted
	r.DroppedCapacity = p.DroppedCapacity
	r.PeakByzantineHeld = p.PeakByzantineHeld
	r.SafetyViolations = p.SafetyViolations
	if len(p.SafetySample) > 0 {
		r.SafetySample = append([]string(nil), p.SafetySample...)
	}
	r.SubEventsFired = p.SubEventsFired
	if p.CascadeErr != "" {
		r.CascadeErr = errors.New(p.CascadeErr)
	}
}

// protoIndex returns the index of the protocol named name in ps, or -1.
func protoIndex(ps *protocols, name string) int {
	return slices.Index(ps.names, name)
}

// due returns when the flight's pending event fires: its queue expiry,
// scheduled at its arrival, while queued; its settlement, scheduled at its
// admission, while in flight (sim.Queue.Schedule).
func (fs *FlightState) due(patience sim.Time) sim.Time {
	if fs.InQueue {
		return fs.Arrival + max(patience, 0)
	}
	return fs.Start + max(fs.Duration, 0)
}

// fill rebuilds the live flight (payment, sub-outcome, admission, pending
// event's seq) from its capture, which validate passed, into f. Its event is
// re-attached, and a queued flight filed, by timeline.restore.
func (fs *FlightState) fill(f *flight, ps *protocols) {
	f.index, f.proto = fs.Index, int32(protoIndex(ps, fs.Protocol))
	f.sender, f.receiver = int32(fs.Sender), int32(fs.Receiver)
	f.base, f.arrival = fs.Base, fs.Arrival
	f.paid, f.duration, f.events, f.byz, f.errored = fs.Paid, fs.Duration, fs.Events, fs.Byz, fs.Err != ""
	f.start, f.queued, f.attempts = fs.Start, fs.Queued, int32(fs.Attempts)
	f.seq = fs.Seq
}

// restore rebuilds the timeline mid-run from a snapshot: partial counters,
// live flights with their pending events re-attached at their original heap
// coordinates, every queued flight filed under the account that refuses it in
// the restored book — whose ledgers hold the admitted flights' locks — the
// pending Byzantine marks, and finally the event queue's clock. The book must
// already be restored and sn validated.
func (t *timeline) restore(sn *RunSnapshot) {
	t.byzConn = sn.ByzConn
	t.m.ByzConnectors.Set(float64(t.byzConn))

	sn.Partial.apply(t.res)

	// Flights come in index order, so the queued ones are filed in queue
	// (arrival) order.
	for i := range sn.Flights {
		fs := &sn.Flights[i]
		f := t.newFlight()
		fs.fill(f, t.ps)
		if f.errored {
			if t.errs == nil {
				t.errs = map[int]error{}
			}
			t.errs[f.index] = errors.New(fs.Err)
		}
		if pr := t.res.Payments; pr != nil {
			t.identify(&pr[f.index], f.id(), f) // what arrive wrote and finish leaves
		}
		if fs.InQueue {
			f.passBase = t.passes - int(f.attempts)
			f.refused = int32(t.refusingHop(f)) // validate found one in these balances
			t.enqueue(f)
			t.q.Push(sim.Entry{At: fs.due(t.w.QueuePatience), Seq: f.seq, Ref: f.ix, Kind: expireEvent})
			continue
		}
		t.q.Push(sim.Entry{At: fs.due(t.w.QueuePatience), Seq: f.seq, Ref: f.ix, Kind: settleEvent})
		t.inFlight++
	}
	t.m.InFlight.Set(float64(t.inFlight))
	for i, mk := range sn.Marks {
		t.marks = append(t.marks, mark{at: mk.At, seq: mk.Seq, index: mk.Index, on: mk.On, pending: true})
		t.q.Push(sim.Entry{At: mk.At, Seq: mk.Seq, Ref: int32(i), Kind: markEvent})
	}
	for _, sp := range sn.Settled {
		t.res.Payments[sp.Index] = sp.PR
	}
	// Restored events keep their seq, below the cursor: what the run
	// schedules from here sorts after them at the same instant.
	t.q.SetClock(sn.EngineNow, sn.EngineSeq, sn.EngineFired)
	for _, l := range t.ledgers {
		t.lockedNow += l.EscrowedTotal()
		t.byzHeld += l.ByzantineEscrowed()
	}
	t.observeByzHeld()
}

// restoreBook rebuilds the traffic liquidity book from a validated
// snapshot's ledger captures, re-attaching the per-ledger liquidity gauges
// and syncing them to the restored totals.
func restoreBook(s core.Scenario, sn *RunSnapshot) *ledger.Book {
	book := ledger.NewBook()
	lm := ledger.MetricsFrom(s.Metrics, "traffic")
	for _, st := range sn.Ledgers {
		l := ledger.FromState(st)
		wireLiquidityGauges(s, lm, l)
		book.Add(l)
	}
	return book
}
