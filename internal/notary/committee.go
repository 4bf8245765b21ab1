package notary

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Committee is the notary-committee realisation of the transaction manager:
// m = 3f+1 notaries of which at most f are unreliable, running a
// leader-based two-phase agreement protocol with view changes in the
// tradition of the partially synchronous consensus of Dwork, Lynch and
// Stockmeyer (and its practical descendant PBFT).
//
// One decision (commit or abort) is agreed per payment:
//
//   - the leader of the current view broadcasts a pre-prepare carrying the
//     decision it proposes;
//   - a notary that can justify the decision (all escrows prepared for
//     commit; an abort request received for abort) broadcasts a prepare vote;
//   - 2f+1 prepare votes for the same (decision, view) form a prepared
//     certificate: the notary locks on the decision and broadcasts a commit
//     vote;
//   - 2f+1 commit votes decide: the notary assembles the decision
//     certificate and broadcasts it to every participant and notary;
//   - if a view stalls, notaries change views (with exponentially... linearly
//     growing timeouts); locked decisions are carried into the next view so
//     that a decision that might already have been reached is never
//     contradicted (safety), and stale locks can be released against a newer
//     prepared certificate (liveness).
//
// Safety (certificate consistency) needs only f < m/3; liveness additionally
// needs partial synchrony: after GST a view led by an honest notary decides
// within a bounded number of message delays.
//
// A committee stands on the run's world: CommitteeIn clears, per notary,
// the records of the views the previous run reached, rewrites every other
// field a run reads and keeps the storage, which grows only for a larger
// committee than any before.
type Committee struct {
	run
	issued
	size, quorum int
	words        int // words of a voter bitset: one per 64 notaries
	ids          []string
	procs        []notaryProc // procs[j] is notary j

	// The ballots, each sent once per view (twice by an equivocator) and
	// valid until the next reset.
	prePrepares arena[MsgPrePrepare]
	prepares    arena[MsgPrepare]
	commitVotes arena[MsgCommitVote]
	viewChanges arena[MsgViewChange]
}

// CommitteeIn makes w's notary committee a committee of size notaries for
// s's run — w has been reset for s — registers every notary on w's network
// and returns it. size should be 3f+1 for the intended fault tolerance; any
// size >= 1 is accepted so experiments can explore broken configurations.
func CommitteeIn(w *core.World, s core.Scenario, size int) *Committee {
	c := &core.Standing[standing](w).committee
	if size < 1 {
		size = 1
	}
	for j := range c.procs {
		c.procs[j].clear()
	}
	c.run = run{w: w, scn: s, kr: w.Keyring()}
	c.issued = issued{}
	// A committee of 3f+1 tolerates f unreliable notaries by design and
	// decides with 2f+1 votes.
	c.size, c.quorum, c.words = size, 2*((size-1)/3)+1, (size+63)/64
	c.prePrepares.rewind()
	c.prepares.rewind()
	c.commitVotes.rewind()
	c.viewChanges.rewind()
	c.ids = c.ids[:0]
	for j, seed := 0, s.DerivedKeySeed(); j < size; j++ {
		c.ids = append(c.ids, core.NotaryID(j))
		c.addKey(seed, c.ids[j])
	}
	c.procs = slices.Grow(c.procs[:0], size)[:size]
	for j := range c.procs {
		p := &c.procs[j]
		p.reset(c, j, s.FaultOf(c.ids[j]))
		c.w.Net.Register(p)
		c.scheduleCrash(p.id, p.fault, notaryCrash, p)
	}
	return c
}

//xchain:hotpath
func notaryCrash(x any) { x.(*notaryProc).crashed = true }

// IDs implements Manager.
func (c *Committee) IDs() []string { return c.ids }

// Quorum implements Manager.
func (c *Committee) Quorum() int { return c.quorum }

// Size returns the committee size.
func (c *Committee) Size() int { return c.size }

// viewTimeout is the time a notary waits in one view before changing views;
// it grows with the view number so that, under partial synchrony, views
// eventually outlast the (unknown) post-GST message delay.
func (c *Committee) viewTimeout(view int) sim.Time {
	base := 8*c.scn.Timing.MaxMsgDelay + 6*c.scn.Timing.MaxProcessing
	return base * sim.Time(view+1)
}

// maxViews bounds how many views a notary will attempt before giving up on
// the decision for this run. It is large enough that every notary leads many
// times (liveness after GST needs only one honest-led view), while keeping
// runs with a permanently deadlocked committee — e.g. a third or more of the
// notaries silent, which the paper explicitly excludes — finite. Views run
// from 0 to maxViews inclusive: view maxViews-1's timer is the last one armed.
const maxViews = 64

// Committee-internal messages (in addition to those in notary.go).

// MsgPrePrepare is the leader's proposal for a view. When the proposal
// carries over a locked decision from an earlier view, LockView and
// LockVoters document the prepared certificate justifying it.
type MsgPrePrepare struct {
	PaymentID string
	Decision  sig.Decision
	View      int
	Leader    string
	// LockView/LockVoters justify a carried-over lock ( LockView < View ).
	LockView   int
	LockVoters []string
}

// Describe implements netsim.Message.
func (m *MsgPrePrepare) Describe() string {
	return "pre-prepare(" + string(m.Decision) + ",v" + strconv.Itoa(m.View) + " by " + m.Leader + ")"
}

// Head is the constant Describe starts with (see netsim.HeadOf).
func (m *MsgPrePrepare) Head() string { return "pre-prepare(" }

// MsgPrepare is a notary's first-phase vote.
type MsgPrepare struct {
	PaymentID string
	Decision  sig.Decision
	View      int
	Voter     string
}

// Describe implements netsim.Message.
func (m *MsgPrepare) Describe() string {
	return "prepare(" + string(m.Decision) + ",v" + strconv.Itoa(m.View) + " by " + m.Voter + ")"
}

// Head is the constant Describe starts with.
func (m *MsgPrepare) Head() string { return "prepare(" }

// MsgCommitVote is a notary's second-phase vote, sent once it holds a
// prepared certificate (2f+1 prepares) for the decision.
type MsgCommitVote struct {
	PaymentID string
	Decision  sig.Decision
	View      int
	Voter     string
}

// Describe implements netsim.Message.
func (m *MsgCommitVote) Describe() string {
	return "commit-vote(" + string(m.Decision) + ",v" + strconv.Itoa(m.View) + " by " + m.Voter + ")"
}

// Head is the constant Describe starts with.
func (m *MsgCommitVote) Head() string { return "commit-vote(" }

// MsgViewChange announces that a notary moves to a new view, reporting its
// current lock (if any) so the new leader can carry it over.
type MsgViewChange struct {
	PaymentID string
	NewView   int
	Voter     string
	// Locked reports the decision the notary is locked on (empty if none)
	// and the view in which the lock was acquired.
	Locked   sig.Decision
	LockView int
}

// Describe implements netsim.Message.
func (m *MsgViewChange) Describe() string {
	return fmt.Sprintf("view-change(v%d by %s)", m.NewView, m.Voter)
}

// Head is the constant Describe starts with.
func (m *MsgViewChange) Head() string { return "view-change(v" }

// arena is the storage of the messages of one type that are sent once per
// view, a chunk at a time (as sig's signature arena): a full chunk is left
// to the messages in it and a new one begun, so a message never moves;
// rewind makes the current chunk free again, for the next run.
type arena[T any] struct {
	chunk []T
	used  int
}

// take returns a record nobody else holds; the caller overwrites it whole.
func (a *arena[T]) take() *T {
	if a.used == len(a.chunk) {
		a.chunk, a.used = make([]T, 32), 0 // a committee of four decides in view 0 with nine ballots
	}
	a.used++
	return &a.chunk[a.used-1]
}

func (a *arena[T]) rewind() { a.used = 0 }

// voters is a set of notaries by index.
type voters []uint64

func (v voters) add(j int) { v[j>>6] |= 1 << (j & 63) }

func (v voters) has(j int) bool { return v[j>>6]&(1<<(j&63)) != 0 }

func (v voters) count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// lockInfo is a reported lock inside a view-change quorum.
type lockInfo struct {
	decision sig.Decision
	view     int
}

// viewRecord is what a notary notes once per view.
type viewRecord struct {
	voted      bool    // cast its prepare vote
	proposed   bool    // proposed, as the view's leader
	sentCommit [2]bool // sent its commit vote for decisions[k]
}

// viewTimer is the argument of a view's timer event.
type viewTimer struct {
	p    *notaryProc
	view int
}

// notaryProc is one notary's state machine.
type notaryProc struct {
	c       *Committee
	id      string
	index   int
	fault   core.FaultSpec
	crashed bool

	// Evidence gathered from the payment protocol.
	prepared       []string // the escrows that reported, a set
	abortRequested bool

	// Agreement state. The per-view records are arrays over the views 0..
	// maxViews; hi is the highest view one was written for in this run, which
	// is as far as clear has to go. tallies holds each view's tallies (see
	// tally), locks the lock each notary reported with its change to a view.
	view    int
	hi      int
	views   [maxViews + 1]viewRecord
	tallies []uint64
	locks   []lockInfo
	// lock is the decision this notary holds a prepared certificate for.
	lock     sig.Decision
	lockView int
	// pending is a pre-prepare this notary could not justify yet.
	pending *MsgPrePrepare
	// decided says a certificate was adopted, decision for which decision.
	decided  bool
	decision sig.Decision

	timerArmed bool
	timers     [maxViews]viewTimer
	// cert is the certificate this notary assembles, at most once per run.
	cert MsgDecision
}

// clear zeroes what the last run wrote into the per-view records. The locks
// need no clearing: an entry is read only under its bit in the changes tally.
func (p *notaryProc) clear() {
	clear(p.views[:p.hi+1])
	clear(p.tallies[:(p.hi+1)*(len(p.tallies)/(maxViews+1))])
	p.hi = 0
}

// reset makes p, cleared, notary j of c.
func (p *notaryProc) reset(c *Committee, j int, fault core.FaultSpec) {
	p.c, p.id, p.index, p.fault = c, c.ids[j], j, fault
	p.crashed, p.abortRequested, p.decided, p.timerArmed = false, false, false, false
	p.prepared = p.prepared[:0]
	p.view, p.lock, p.lockView, p.decision, p.pending = 0, "", 0, "", nil
	// Whatever storage these keep is zero (clear), or read only once written.
	tallies, locks := (maxViews+1)*talliesPerView*c.words, (maxViews+1)*c.size
	p.tallies = slices.Grow(p.tallies[:0], tallies)[:tallies]
	p.locks = slices.Grow(p.locks[:0], locks)[:locks]
}

// ID implements netsim.Node.
func (p *notaryProc) ID() string { return p.id }

func (p *notaryProc) active() bool { return !p.crashed && !p.fault.Silent }

// touch reports whether view is one a notary can be in, and notes that its
// records are about to be written.
func (p *notaryProc) touch(view int) bool {
	if uint(view) > maxViews {
		return false
	}
	p.hi = max(p.hi, view)
	return true
}

// The tallies of a view: the prepare votes for decisions[k] at prepares+k,
// the commit votes at commits+k, and who announced a change to the view.
const (
	prepares       = 0
	commits        = 2
	changes        = 4
	talliesPerView = 5
)

// tally returns one of view's tallies.
func (p *notaryProc) tally(view, which int) voters {
	w := p.c.words
	return p.tallies[(view*talliesPerView+which)*w:][:w]
}

// ballot resolves a vote to the index of its decision and of its voter. A
// vote for something other than commit or abort, from a name that is no
// member's or for a view no notary reaches is dropped; no run produces one.
func (p *notaryProc) ballot(d sig.Decision, view int, voter string) (k, j int, ok bool) {
	k, j = slices.Index(decisions[:], d), slices.Index(p.c.ids, voter)
	return k, j, k >= 0 && j >= 0 && p.touch(view)
}

// Deliver implements netsim.Node.
//
//xchain:hotpath
func (p *notaryProc) Deliver(from string, msg netsim.Message) {
	if !p.active() {
		return
	}
	switch m := msg.(type) {
	case *MsgPrepared:
		p.onEvidencePrepared(m)
	case *MsgAbortRequest:
		p.onEvidenceAbort(m)
	case *MsgPrePrepare:
		p.onPrePrepare(from, m)
	case *MsgPrepare:
		p.onPrepare(m)
	case *MsgCommitVote:
		p.onCommitVote(m)
	case *MsgViewChange:
		p.onViewChange(m)
	case *MsgDecision:
		p.onDecision(m)
	}
}

// grounds returns the decision this notary currently has evidence for;
// abort requests take precedence (a customer exercised her right to leave).
func (p *notaryProc) grounds() (sig.Decision, bool) {
	if p.abortRequested {
		return sig.DecisionAbort, true
	}
	if len(p.prepared) >= p.c.scn.Topology.N {
		return sig.DecisionCommit, true
	}
	return "", false
}

//xchain:hotpath
func (p *notaryProc) onEvidencePrepared(m *MsgPrepared) {
	if m.PaymentID != p.c.paymentID() || p.decided {
		return
	}
	if !slices.Contains(p.prepared, m.Escrow) {
		p.prepared = append(p.prepared, m.Escrow)
	}
	p.act()
}

//xchain:hotpath
func (p *notaryProc) onEvidenceAbort(m *MsgAbortRequest) {
	if m.PaymentID != p.c.paymentID() || p.decided {
		return
	}
	p.abortRequested = true
	p.act()
}

// act runs whenever the notary's evidence changes: arm the view timer,
// propose if leading, and re-examine a buffered pre-prepare.
//
//xchain:hotpath
func (p *notaryProc) act() {
	if p.decided {
		return
	}
	if _, ok := p.grounds(); !ok {
		return
	}
	if !p.timerArmed {
		p.timerArmed = true
		p.scheduleViewChange(p.view)
	}
	p.maybePropose()
	if pp := p.pending; pp != nil {
		p.pending = nil
		p.onPrePrepare(pp.Leader, pp)
	}
}

// scheduleViewChange arms the timer of view. A timer that a later view
// supersedes still fires, as a no-op: the events a run fires are part of its
// fingerprint.
//
//xchain:hotpath
func (p *notaryProc) scheduleViewChange(view int) {
	if view >= maxViews {
		return
	}
	c := p.c
	p.timers[view] = viewTimer{p: p, view: view}
	c.w.Eng.ScheduleArgIn(c.viewTimeout(view), c.w.EventName(p.id, "view-timer"), viewTimedOut, &p.timers[view])
}

// viewTimedOut is the scheduled action of scheduleViewChange.
//
//xchain:hotpath
func viewTimedOut(x any) {
	t := x.(*viewTimer)
	if p := t.p; p.active() && !p.decided && p.view == t.view {
		p.moveToView(t.view + 1)
	}
}

// moveToView advances to a later view, announces the change (with the
// current lock) to the whole committee and restarts the timer.
//
//xchain:hotpath
func (p *notaryProc) moveToView(v int) {
	if v <= p.view && p.timerArmed {
		return
	}
	c := p.c
	p.view = v
	if c.w.Trace.Recording() {
		c.w.Trace.Add(c.w.Eng.Now(), trace.KindConsensus, p.id, "", fmt.Sprintf("view-change to %d", v))
	}
	vc := c.viewChanges.take()
	*vc = MsgViewChange{PaymentID: c.paymentID(), NewView: v, Voter: p.id, Locked: p.lock, LockView: p.lockView}
	p.broadcast(vc)
	p.onViewChange(vc)
	p.maybePropose()
	p.scheduleViewChange(v)
}

// broadcast sends m to every other notary, in index order.
//
//xchain:hotpath
func (p *notaryProc) broadcast(m netsim.Message) {
	for j, nid := range p.c.ids {
		if j != p.index {
			p.c.w.Net.Send(p.id, nid, m)
		}
	}
}

// onViewChange records a peer's view-change and, if this notary leads the
// announced view, considers proposing.
//
//xchain:hotpath
func (p *notaryProc) onViewChange(m *MsgViewChange) {
	c := p.c
	if m.PaymentID != c.paymentID() || p.decided {
		return
	}
	j := slices.Index(c.ids, m.Voter)
	if j < 0 || !p.touch(m.NewView) {
		return
	}
	changed := p.tally(m.NewView, changes)
	changed.add(j)
	p.locks[m.NewView*c.size+j] = lockInfo{decision: m.Locked, view: m.LockView}
	// Catch up if a majority of the committee is already past this view.
	if m.NewView > p.view && changed.count() > c.size/2 {
		p.moveToView(m.NewView)
	}
	p.maybePropose()
}

// maybePropose broadcasts a pre-prepare if this notary leads the current
// view and has something to propose: a lock carried over from a view-change
// report, or its own grounds.
//
//xchain:hotpath
func (p *notaryProc) maybePropose() {
	if p.decided || p.view%p.c.size != p.index || p.views[p.view].proposed {
		return
	}
	// Choose the value: the highest-view lock reported for this view (or our
	// own lock), falling back to our own grounds.
	dec, lockView, haveLock := p.chooseValue()
	if !haveLock {
		var ok bool
		dec, ok = p.grounds()
		if !ok {
			return
		}
		lockView = -1
	}
	p.touch(p.view)
	p.views[p.view].proposed = true
	p.propose(dec, lockView)
	if p.fault.Equivocate {
		other := sig.DecisionAbort
		if dec == sig.DecisionAbort {
			other = sig.DecisionCommit
		}
		p.propose(other, -1)
	}
}

// propose broadcasts the pre-prepare of dec for the current view.
//
//xchain:hotpath
func (p *notaryProc) propose(dec sig.Decision, lockView int) {
	c := p.c
	pp := c.prePrepares.take()
	*pp = MsgPrePrepare{PaymentID: c.paymentID(), Decision: dec, View: p.view, Leader: p.id, LockView: lockView}
	if c.w.Trace.Recording() {
		c.w.Trace.Add(c.w.Eng.Now(), trace.KindConsensus, p.id, "", fmt.Sprintf("propose %s in view %d", dec, p.view))
	}
	p.broadcast(pp)
	p.onPrePrepare(p.id, pp)
}

// chooseValue returns the locked decision with the highest lock view among
// this notary's own lock and the locks reported in view-change messages for
// the current view (of two reports with the same lock view, the one of the
// notary with the lower index).
func (p *notaryProc) chooseValue() (sig.Decision, int, bool) {
	best := lockInfo{decision: p.lock, view: p.lockView}
	if p.lock == "" {
		best.view = -1
	}
	changed := p.tally(p.view, changes)
	for j := range p.c.ids {
		if !changed.has(j) {
			continue
		}
		if li := p.locks[p.view*p.c.size+j]; li.decision != "" && li.view > best.view {
			best = li
		}
	}
	if best.decision == "" {
		return "", -1, false
	}
	return best.decision, best.view, true
}

// onPrePrepare handles the leader's proposal: send a prepare vote if the
// decision is justified and not in conflict with this notary's lock.
//
//xchain:hotpath
func (p *notaryProc) onPrePrepare(from string, m *MsgPrePrepare) {
	c := p.c
	if m.PaymentID != c.paymentID() || p.decided || !p.touch(m.View) {
		return
	}
	if from != m.Leader || c.ids[m.View%c.size] != m.Leader || m.View < p.view {
		return
	}
	if p.views[m.View].voted && !p.fault.Equivocate {
		return
	}
	// Lock rule: a locked notary only prepares its locked decision, unless
	// the proposal documents a lock from a strictly later view.
	if p.lock != "" && p.lock != m.Decision && m.LockView <= p.lockView {
		return
	}
	// Justification: the decision must follow from this notary's own
	// evidence, or carry over an earlier lock.
	justified := m.LockView >= 0 || p.fault.Equivocate
	if !justified {
		switch m.Decision {
		case sig.DecisionCommit:
			justified = len(p.prepared) >= c.scn.Topology.N
		case sig.DecisionAbort:
			justified = p.abortRequested
		}
	}
	if !justified {
		p.pending = m
		return
	}
	if m.View > p.view {
		p.moveToView(m.View)
	}
	p.views[m.View].voted = true
	vote := c.prepares.take()
	*vote = MsgPrepare{PaymentID: c.paymentID(), Decision: m.Decision, View: m.View, Voter: p.id}
	p.broadcast(vote)
	p.onPrepare(vote)
}

// onPrepare collects first-phase votes; a quorum locks the decision and
// triggers the commit vote.
//
//xchain:hotpath
func (p *notaryProc) onPrepare(m *MsgPrepare) {
	c := p.c
	if m.PaymentID != c.paymentID() || p.decided {
		return
	}
	k, j, ok := p.ballot(m.Decision, m.View, m.Voter)
	if !ok {
		return
	}
	votes := p.tally(m.View, prepares+k)
	votes.add(j)
	if votes.count() < c.quorum || p.views[m.View].sentCommit[k] {
		return
	}
	p.views[m.View].sentCommit[k] = true
	// Prepared certificate reached: lock and vote to commit.
	if m.View >= p.lockView || p.lock == "" {
		p.lock = m.Decision
		p.lockView = m.View
	}
	cv := c.commitVotes.take()
	*cv = MsgCommitVote{PaymentID: c.paymentID(), Decision: m.Decision, View: m.View, Voter: p.id}
	p.broadcast(cv)
	p.onCommitVote(cv)
}

// onCommitVote collects second-phase votes; a quorum decides.
//
//xchain:hotpath
func (p *notaryProc) onCommitVote(m *MsgCommitVote) {
	c := p.c
	if m.PaymentID != c.paymentID() || p.decided {
		return
	}
	k, j, ok := p.ballot(m.Decision, m.View, m.Voter)
	if !ok {
		return
	}
	votes := p.tally(m.View, commits+k)
	votes.add(j)
	if votes.count() < c.quorum {
		return
	}
	// Decision reached: assemble the certificate from the committing voters
	// (deterministic order) and broadcast it.
	cert := &p.cert.Cert
	*cert = sig.DecisionCert{
		PaymentID: c.paymentID(), Decision: m.Decision, Manager: core.ManagerID, IssuedAt: c.w.Eng.Now(),
		Quorum: c.quorum, Signers: cert.Signers[:0], Sigs: cert.Sigs,
	}
	for i, nid := range c.ids {
		if votes.has(i) {
			cert.Signers = append(cert.Signers, nid)
		}
	}
	cert.Sign(c.kr)
	p.adopt(cert.Decision)
	if c.w.Trace.Recording() {
		c.w.Trace.Add(c.w.Eng.Now(), trace.KindDecision, p.id, "", cert.Describe())
	}
	if p.fault.WithholdCertificate {
		return
	}
	for _, id := range c.w.Participants() {
		c.w.Net.Send(p.id, id, &p.cert)
	}
	p.broadcast(&p.cert)
}

// onDecision adopts a certificate assembled by another notary. A notary that
// has decided does not verify another for the same decision — adopting it
// would change nothing — but does verify one for the other decision: a valid
// one is an inconsistency the run must record.
//
//xchain:hotpath
func (p *notaryProc) onDecision(m *MsgDecision) {
	c := p.c
	if m.Cert.PaymentID != c.paymentID() || p.decided && m.Cert.Decision == p.decision {
		return
	}
	if !m.Cert.Verify(c.kr) || len(m.Cert.Signers) < c.quorum {
		return
	}
	p.adopt(m.Cert.Decision)
}

// adopt notes a valid certificate for d, issued here or observed.
func (p *notaryProc) adopt(d sig.Decision) {
	p.c.issued.record(d)
	if p.decided {
		return
	}
	p.decided = true
	p.decision = d
}
