package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
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
// arrival boundary: the position in the payment population, the engine's
// virtual clock and pending events, every live flight (queued and in-flight
// payments with their timers), the ledger book, the aggregator (exact
// counters, latency histogram or sample, exemplar reservoir) and the
// Byzantine mark schedule. Everything else — the payment stream itself, the
// fault plan, every RNG side-stream — is a pure function of
// (Scenario.Seed, Workload) and is re-derived on resume, so the snapshot
// stays proportional to the live state, not the run length.
//
// The determinism contract does the heavy lifting: because an uninterrupted
// run is a pure function of its inputs, a resumed run that restores the
// timeline state exactly and replays the remaining payments produces a
// byte-identical Result (TestCheckpointEquivalence).

// SnapshotKind is the checkpoint envelope kind of traffic run snapshots.
const SnapshotKind = "traffic-run"

// ErrInterrupted is returned by RunWith when the run stopped at a checkpoint
// boundary before completing — via Config.InterruptAt or Config.Control.
// The checkpoint file (if Config.CheckpointPath is set) holds the state to
// resume from.
var ErrInterrupted = errors.New("traffic: run interrupted before completion")

// ErrBadSnapshot is returned (wrapped) by RunWith when Config.Resume holds a
// snapshot that carries this run's fingerprint but could not have been
// written by it: a route outside the chain, a queue entry that is no queued
// flight, a ledger the chain does not have. Nothing has been restored when
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
// (Workers, Metrics, checkpoint cadence) are deliberately excluded:
// they never change the Result.
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
	Stream         bool                      `json:"stream,omitempty"`
	KeepPayments   bool                      `json:"keepPayments,omitempty"`
	Exemplars      int                       `json:"exemplars,omitempty"`
}

// fingerprintOf builds the fingerprint of a run. Call it after Config
// overrides (Crypto, Metrics) have been folded into the scenario.
func fingerprintOf(s core.Scenario, w Workload, cfg Config) runFingerprint {
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
		Stream:         cfg.Stream,
		KeepPayments:   cfg.KeepPayments,
		Exemplars:      cfg.Exemplars,
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

// EventState pins a pending engine event's heap coordinates so resume can
// rebuild it exactly where it was (see sim.Engine.RestoreEvent).
type EventState struct {
	At  sim.Time `json:"at"`
	Seq uint64   `json:"seq"`
}

// FlightState is one live payment — queued or in flight — flattened for
// serialisation: the generated payment, its precomputed protocol
// sub-outcome, the evolving PaymentResult and the pending timer (expiry for
// queued flights, settlement for admitted ones).
type FlightState struct {
	Index    int      `json:"index"`
	ID       string   `json:"id"`
	Sender   int      `json:"sender"`
	Receiver int      `json:"receiver"`
	Amounts  []int64  `json:"amounts"`
	Arrival  sim.Time `json:"arrival"`
	Protocol string   `json:"protocol"`
	Seed     int64    `json:"seed"`

	Paid     bool     `json:"paid,omitempty"`
	Duration sim.Time `json:"duration"`
	Events   uint64   `json:"events,omitempty"`
	Err      string   `json:"err,omitempty"`
	Byz      bool     `json:"byz,omitempty"`

	PR PaymentResult `json:"pr"`
	// Attempts is the number of admission attempts made so far: frozen once
	// admitted (LockID ends in Attempts-1), one more per settlement sat
	// through while queued.
	Attempts int        `json:"attempts"`
	LockID   string     `json:"lockId,omitempty"`
	InQueue  bool       `json:"inQueue,omitempty"`
	Timer    EventState `json:"timer"`
}

// MarkState is one pending Byzantine-status transition of the fault plan.
type MarkState struct {
	At    sim.Time `json:"at"`
	Seq   uint64   `json:"seq"`
	Index int      `json:"index"`
	On    bool     `json:"on"`
}

// AggState captures the aggregator: exact scalar accumulators plus whichever
// latency summary the run keeps (sample values are rebuilt from the settled
// payment records, so only the histogram form is stored) and the exemplar
// reservoir with its observation count (the reservoir RNG is re-derived by
// replaying its draw sequence, which depends only on ResSeen).
type AggState struct {
	LatSum       float64  `json:"latSum"`
	LatMax       float64  `json:"latMax"`
	LatCount     int      `json:"latCount"`
	QueueWaitSum float64  `json:"queueWaitSum"`
	LastArrival  sim.Time `json:"lastArrival"`

	Hist      *stats.HistogramState `json:"hist,omitempty"`
	Reservoir []PaymentResult       `json:"reservoir,omitempty"`
	ResSeen   int                   `json:"resSeen,omitempty"`
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
	// ConfigHash fingerprints the producing configuration; Config embeds the
	// canonical fingerprint document itself so a mismatch is diagnosable.
	ConfigHash string          `json:"configHash"`
	Config     json.RawMessage `json:"config"`
	// NextIndex is the index of the first payment the resumed run admits.
	NextIndex int `json:"nextIndex"`

	EngineNow       sim.Time `json:"engineNow"`
	EngineSeq       uint64   `json:"engineSeq"`
	EngineFired     uint64   `json:"engineFired"`
	EngineScheduled uint64   `json:"engineScheduled"`
	TimelineFired   uint64   `json:"timelineFired"`

	LockedNow int64 `json:"lockedNow"`
	ByzConn   int   `json:"byzConn"`

	Partial PartialResult `json:"partial"`
	Agg     AggState      `json:"agg"`

	Flights []FlightState `json:"flights,omitempty"`
	// Queue lists the payment indices currently waiting for liquidity, in
	// queue (= arrival) order.
	Queue []int       `json:"queue,omitempty"`
	Marks []MarkState `json:"marks,omitempty"`

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
	var sn RunSnapshot
	if err := json.Unmarshal(env.Payload, &sn); err != nil {
		return nil, fmt.Errorf("traffic: snapshot %s: decode: %w", path, err)
	}
	if sn.ConfigHash != env.ConfigHash {
		return nil, fmt.Errorf("traffic: snapshot %s: envelope and payload disagree on the config hash", path)
	}
	return &sn, nil
}

// validate checks, before anything is restored, that sn is a state this run
// (chain escrows, payments payments, this retention) could have captured, so
// that restoring it and running on cannot index out of range, miss a ledger,
// reserve a non-positive amount or leave a queued payment filed under no
// account. Every failure wraps ErrBadSnapshot.
func (sn *RunSnapshot) validate(chain, payments int, keep bool, exemplars int) error {
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
	payer := make([]int64, chain)
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
	}
	queued := map[int]bool{} // index -> waiting, not yet listed in Queue
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
		if len(f.Amounts) != f.Receiver-f.Sender {
			return bad("flight %d: %d amounts for %d hops", f.Index, len(f.Amounts), f.Receiver-f.Sender)
		}
		fits := true
		for k, amount := range f.Amounts {
			if amount < 1 {
				return bad("flight %d: hop %d carries amount %d", f.Index, k, amount)
			}
			fits = fits && payer[f.Sender+k] >= amount
		}
		if f.InQueue {
			// The timeline files a waiter under the account that refuses it; a
			// queued payment every hop can cover has none (the run would have
			// admitted it at the settlement that freed the liquidity).
			if fits {
				return bad("flight %d waits in the queue though every hop of its route can cover it", f.Index)
			}
			queued[f.Index] = true
		}
	}
	last = -1
	for _, idx := range sn.Queue {
		if !queued[idx] || idx <= last {
			return bad("queue lists payment %d, which is not a queued flight, is listed twice or is out of arrival order", idx)
		}
		delete(queued, idx)
		last = idx
	}
	if len(queued) != 0 {
		return bad("%d queued flights are missing from the queue order", len(queued))
	}
	if !keep && len(sn.Settled) != 0 {
		return bad("holds %d per-payment records, the run keeps none", len(sn.Settled))
	}
	for _, sp := range sn.Settled {
		if sp.Index < 0 || sp.Index >= sn.NextIndex {
			return bad("settled record index %d not below %d", sp.Index, sn.NextIndex)
		}
	}
	agg := &sn.Agg
	if agg.LatCount < 0 || agg.ResSeen < 0 || agg.ResSeen > sn.NextIndex {
		return bad("aggregator counts %d latencies and %d reservoir draws at payment %d", agg.LatCount, agg.ResSeen, sn.NextIndex)
	}
	if !keep && exemplars > 0 && len(agg.Reservoir) != min(agg.ResSeen, exemplars) {
		return bad("reservoir holds %d of %d exemplars after %d draws", len(agg.Reservoir), exemplars, agg.ResSeen)
	}
	if h := agg.Hist; h != nil {
		total := h.Underflow
		for _, c := range h.Counts {
			total += c
		}
		if keep || total != h.N || h.N != uint64(agg.LatCount) {
			return bad("latency histogram of %d observations in buckets summing to %d, for %d latencies", h.N, total, agg.LatCount)
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
	sn.ConfigHash = c.hash
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
	sn.EngineNow, sn.EngineSeq, sn.EngineFired, sn.EngineScheduled = t.eng.Clock()
	sn.TimelineFired = t.fired
	sn.LockedNow = t.lockedNow
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
	idxs := make([]int, 0, len(t.track))
	for i := range t.track {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		f := t.track[i]
		fs := FlightState{
			Index:    f.p.Index,
			ID:       f.p.ID,
			Sender:   f.p.Sender,
			Receiver: f.p.Receiver,
			Amounts:  append([]int64(nil), f.p.Amounts...),
			Arrival:  f.p.Arrival,
			Protocol: f.p.Protocol,
			Seed:     f.p.Seed,
			Paid:     f.sub.paid,
			Duration: f.sub.duration,
			Events:   f.sub.events,
			Err:      errString(f.sub.err),
			Byz:      f.sub.byz,
			PR:       f.pr,
			Attempts: f.attempts,
			LockID:   f.lockID,
			InQueue:  f.inQueue,
		}
		tm := f.settle
		if f.inQueue {
			tm = f.expiry
			fs.Attempts = t.passes - f.passBase
			sn.Queue = append(sn.Queue, f.p.Index) // arrival order = index order
		}
		at, seq, ok := tm.Pending()
		if !ok {
			return nil, fmt.Errorf("traffic: checkpoint: live flight %s has no pending timer", f.p.ID)
		}
		fs.Timer = EventState{At: at, Seq: seq}
		sn.Flights = append(sn.Flights, fs)
	}
	for _, mt := range t.markTimers {
		if at, seq, ok := mt.tm.Pending(); ok {
			sn.Marks = append(sn.Marks, MarkState{At: at, Seq: seq, Index: mt.index, On: mt.on})
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
		LatCount:     a.latCount,
		QueueWaitSum: a.queueWaitSum,
		LastArrival:  a.lastArrival,
		ResSeen:      a.resSeen,
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

// restoredAggregator rebuilds the aggregator from a capture. The exemplar
// reservoir RNG is recovered by replaying its draw sequence: algorithm R
// draws exactly once per observation past the reservoir size, so the number
// of past draws — and each draw's bound — is a pure function of ResSeen.
// The keep-mode latency sample is rebuilt by the caller from the settled
// payment records (percentiles sort the sample, so insertion order is
// immaterial).
func restoredAggregator(res *Result, keep bool, exemplars int, st *AggState) *aggregator {
	a := newAggregator(res, keep, exemplars)
	a.latSum = st.LatSum
	a.latMax = st.LatMax
	a.latCount = st.LatCount
	a.queueWaitSum = st.QueueWaitSum
	a.lastArrival = st.LastArrival
	if a.latHist != nil && st.Hist != nil {
		a.latHist.Restore(*st.Hist)
	}
	if a.resSize > 0 {
		a.reservoir = append(a.reservoir, st.Reservoir...)
		a.resSeen = st.ResSeen
		for i := a.resSize; i < a.resSeen; i++ {
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

// toFlight rebuilds the live flight (payment, sub-outcome, evolving result)
// from its capture. Timers are re-attached by timeline.restore.
func (fs *FlightState) toFlight() *flight {
	f := &flight{
		p: &payment{
			Index:    fs.Index,
			ID:       fs.ID,
			Sender:   fs.Sender,
			Receiver: fs.Receiver,
			Amounts:  append([]int64(nil), fs.Amounts...),
			Arrival:  fs.Arrival,
			Protocol: fs.Protocol,
			Seed:     fs.Seed,
		},
		sub: subOutcome{
			paid:     fs.Paid,
			duration: fs.Duration,
			events:   fs.Events,
			byz:      fs.Byz,
		},
		pr:       fs.PR,
		attempts: fs.Attempts,
		lockID:   fs.LockID,
	}
	if fs.Err != "" {
		f.sub.err = errors.New(fs.Err)
	}
	return f
}

// restore rebuilds the timeline mid-run from a snapshot: partial counters,
// live flights with their pending timers re-attached at their original heap
// coordinates, every queued flight filed under the account that refuses it in
// the restored book, the pending Byzantine marks, and finally the engine
// clock. The book must already be restored and sn
// validated.
func (t *timeline) restore(sn *RunSnapshot, keep bool) {
	t.fired = sn.TimelineFired
	t.lockedNow = sn.LockedNow
	t.byzConn = sn.ByzConn
	t.m.ByzConnectors.Set(float64(t.byzConn))

	sn.Partial.apply(t.res)

	for i := range sn.Flights {
		fs := &sn.Flights[i]
		f := fs.toFlight()
		f.t = t
		t.track[f.p.Index] = f
		if fs.InQueue {
			f.expiry = t.eng.RestoreEventArg(fs.Timer.At, fs.Timer.Seq, "expire", expireFlight, f)
		} else {
			f.settle = t.eng.RestoreEventArg(fs.Timer.At, fs.Timer.Seq, "settle", settleFlight, f)
			t.inFlight++
		}
	}
	t.m.InFlight.Set(float64(t.inFlight))
	for _, idx := range sn.Queue {
		f := t.track[idx]
		f.passBase = t.passes - f.attempts
		f.refused = t.refusingHop(f.p) // validate found one in these balances
		t.enqueue(f)
	}
	for _, mk := range sn.Marks {
		mk := mk
		tm := t.eng.RestoreEvent(mk.At, mk.Seq, fmt.Sprintf("byz-%v:c%d", mk.On, mk.Index), func() {
			t.setByzantine(mk.Index, mk.On)
		})
		t.markTimers = append(t.markTimers, markTimer{index: mk.Index, on: mk.On, tm: tm})
	}
	for _, sp := range sn.Settled {
		t.res.Payments[sp.Index] = sp.PR
		if keep && sp.PR.Status == StatusOK {
			t.agg.latSample.Add(sp.PR.Latency().Millis())
		}
	}
	t.eng.RestoreClock(sn.EngineNow, sn.EngineSeq, sn.EngineFired, sn.EngineScheduled)
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
