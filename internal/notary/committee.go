package notary

import (
	"fmt"
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
type Committee struct {
	deps   Deps
	size   int
	quorum int
	ids    []string
	procs  map[string]*notaryProc

	commitIssued bool
	abortIssued  bool
}

// NewCommittee creates a committee of size notaries (size should be 3f+1 for
// the intended fault tolerance; any size >= 1 is accepted so experiments can
// explore broken configurations), registers every notary on the network and
// returns the committee handle.
func NewCommittee(d Deps, size int) *Committee {
	if size < 1 {
		size = 1
	}
	c := &Committee{
		deps:  d,
		size:  size,
		procs: map[string]*notaryProc{},
	}
	// A committee of 3f+1 tolerates f unreliable notaries by design and
	// decides with 2f+1 votes.
	c.quorum = 2*((size-1)/3) + 1
	for j := 0; j < size; j++ {
		id := core.NotaryID(j)
		c.ids = append(c.ids, id)
		if !d.Kr.Has(id) {
			d.Kr.Add(d.KeySeed, id)
		}
	}
	for j := 0; j < size; j++ {
		id := core.NotaryID(j)
		p := &notaryProc{
			committee:   c,
			id:          id,
			index:       j,
			fault:       d.faultOf(id),
			prepared:    map[string]bool{},
			prepVotes:   map[string]map[string]bool{},
			commitVotes: map[string]map[string]bool{},
			preparedIn:  map[int]sig.Decision{},
			viewChanges: map[int]map[string]lockInfo{},
		}
		c.procs[id] = p
		d.Net.Register(p)
		if p.fault.Crash {
			p := p
			d.Eng.ScheduleAt(p.fault.CrashAt, "crash:"+id, func() { p.crashed = true })
		}
	}
	return c
}

// IDs implements Manager.
func (c *Committee) IDs() []string { return append([]string(nil), c.ids...) }

// Quorum implements Manager.
func (c *Committee) Quorum() int { return c.quorum }

// Size returns the committee size.
func (c *Committee) Size() int { return c.size }

// CommitIssued implements Manager.
func (c *Committee) CommitIssued() bool { return c.commitIssued }

// AbortIssued implements Manager.
func (c *Committee) AbortIssued() bool { return c.abortIssued }

// leaderOf returns the leader notary ID of a view (round-robin rotation).
func (c *Committee) leaderOf(view int) string {
	return core.NotaryID(view % c.size)
}

// viewTimeout is the time a notary waits in one view before changing views;
// it grows with the view number so that, under partial synchrony, views
// eventually outlast the (unknown) post-GST message delay.
func (c *Committee) viewTimeout(view int) sim.Time {
	base := 8*c.deps.Timing.MaxMsgDelay + 6*c.deps.Timing.MaxProcessing
	return base * sim.Time(view+1)
}

// maxViews bounds how many views a notary will attempt before giving up on
// the decision for this run. It is large enough that every notary leads many
// times (liveness after GST needs only one honest-led view), while keeping
// runs with a permanently deadlocked committee — e.g. a third or more of the
// notaries silent, which the paper explicitly excludes — finite.
const maxViews = 64

// recordIssued notes a valid decision certificate observed anywhere in the
// committee (feeds the CC property and the run result).
func (c *Committee) recordIssued(d sig.Decision) {
	switch d {
	case sig.DecisionCommit:
		c.commitIssued = true
	case sig.DecisionAbort:
		c.abortIssued = true
	}
}

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
func (m MsgPrePrepare) Describe() string {
	return "pre-prepare(" + string(m.Decision) + ",v" + strconv.Itoa(m.View) + " by " + m.Leader + ")"
}

// MsgPrepare is a notary's first-phase vote.
type MsgPrepare struct {
	PaymentID string
	Decision  sig.Decision
	View      int
	Voter     string
}

// Describe implements netsim.Message.
func (m MsgPrepare) Describe() string {
	return "prepare(" + string(m.Decision) + ",v" + strconv.Itoa(m.View) + " by " + m.Voter + ")"
}

// MsgCommitVote is a notary's second-phase vote, sent once it holds a
// prepared certificate (2f+1 prepares) for the decision.
type MsgCommitVote struct {
	PaymentID string
	Decision  sig.Decision
	View      int
	Voter     string
}

// Describe implements netsim.Message.
func (m MsgCommitVote) Describe() string {
	return "commit-vote(" + string(m.Decision) + ",v" + strconv.Itoa(m.View) + " by " + m.Voter + ")"
}

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
func (m MsgViewChange) Describe() string {
	return fmt.Sprintf("view-change(v%d by %s)", m.NewView, m.Voter)
}

// lockInfo is a reported lock inside a view-change quorum.
type lockInfo struct {
	decision sig.Decision
	view     int
}

// notaryProc is one notary's state machine.
type notaryProc struct {
	committee *Committee
	id        string
	index     int
	fault     core.FaultSpec
	crashed   bool

	// Evidence gathered from the payment protocol.
	prepared       map[string]bool
	abortRequested bool

	// Agreement state.
	view       int
	preparedIn map[int]sig.Decision // prepare vote cast per view
	// prepVotes[decision|view][voter] / commitVotes[...] collect votes.
	prepVotes   map[string]map[string]bool
	commitVotes map[string]map[string]bool
	// lock is the decision this notary holds a prepared certificate for.
	lock     sig.Decision
	lockView int
	// committedIn records whether this notary already sent its commit vote
	// for (decision, view).
	sentCommit map[string]bool

	pendingPrePrepare *MsgPrePrepare
	viewChanges       map[int]map[string]lockInfo
	proposedView      map[int]bool

	decided     bool
	decidedCert sig.DecisionCert

	timerArmed bool
}

// ID implements netsim.Node.
func (p *notaryProc) ID() string { return p.id }

func (p *notaryProc) deps() Deps   { return p.committee.deps }
func (p *notaryProc) active() bool { return !p.crashed && !p.fault.Silent }

func voteKey(d sig.Decision, view int) string { return fmt.Sprintf("%s|%d", d, view) }

// Deliver implements netsim.Node.
func (p *notaryProc) Deliver(from string, msg netsim.Message) {
	if !p.active() {
		return
	}
	switch m := msg.(type) {
	case MsgPrepared:
		p.onEvidencePrepared(m)
	case MsgAbortRequest:
		p.onEvidenceAbort(m)
	case MsgPrePrepare:
		p.onPrePrepare(from, m)
	case MsgPrepare:
		p.onPrepare(m)
	case MsgCommitVote:
		p.onCommitVote(m)
	case MsgViewChange:
		p.onViewChange(m)
	case MsgDecision:
		p.onDecision(m)
	}
}

// grounds returns the decision this notary currently has evidence for;
// abort requests take precedence (a customer exercised her right to leave).
func (p *notaryProc) grounds() (sig.Decision, bool) {
	if p.abortRequested {
		return sig.DecisionAbort, true
	}
	if len(p.prepared) >= p.deps().NumEscrows {
		return sig.DecisionCommit, true
	}
	return "", false
}

func (p *notaryProc) onEvidencePrepared(m MsgPrepared) {
	if m.PaymentID != p.deps().PaymentID || p.decided {
		return
	}
	p.prepared[m.Escrow] = true
	p.act()
}

func (p *notaryProc) onEvidenceAbort(m MsgAbortRequest) {
	if m.PaymentID != p.deps().PaymentID || p.decided {
		return
	}
	p.abortRequested = true
	p.act()
}

// act runs whenever the notary's evidence changes: arm the view timer,
// propose if leading, and re-examine a buffered pre-prepare.
func (p *notaryProc) act() {
	if p.decided {
		return
	}
	if _, ok := p.grounds(); !ok {
		return
	}
	p.armTimer()
	p.maybePropose()
	if p.pendingPrePrepare != nil {
		pp := *p.pendingPrePrepare
		p.pendingPrePrepare = nil
		p.onPrePrepare(pp.Leader, pp)
	}
}

func (p *notaryProc) armTimer() {
	if p.timerArmed {
		return
	}
	p.timerArmed = true
	p.scheduleViewChange(p.view)
}

func (p *notaryProc) scheduleViewChange(view int) {
	if view >= maxViews {
		return
	}
	d := p.deps()
	d.Eng.ScheduleIn(p.committee.viewTimeout(view), p.id+":view-timer", func() {
		if !p.active() || p.decided || p.view != view {
			return
		}
		p.moveToView(view + 1)
	})
}

// moveToView advances to a later view, announces the change (with the
// current lock) to the whole committee and restarts the timer.
func (p *notaryProc) moveToView(v int) {
	if v <= p.view && p.timerArmed {
		return
	}
	d := p.deps()
	p.view = v
	if d.Tr.Recording() {
		d.Tr.Add(d.Eng.Now(), trace.KindConsensus, p.id, "", fmt.Sprintf("view-change to %d", v))
	}
	vc := MsgViewChange{PaymentID: d.PaymentID, NewView: v, Voter: p.id, Locked: p.lock, LockView: p.lockView}
	for _, nid := range p.committee.ids {
		if nid != p.id {
			d.Net.Send(p.id, nid, vc)
		}
	}
	p.onViewChange(vc)
	p.maybePropose()
	p.scheduleViewChange(v)
}

// onViewChange records a peer's view-change and, if this notary leads the
// announced view, considers proposing.
func (p *notaryProc) onViewChange(m MsgViewChange) {
	d := p.deps()
	if m.PaymentID != d.PaymentID || p.decided {
		return
	}
	if p.viewChanges[m.NewView] == nil {
		p.viewChanges[m.NewView] = map[string]lockInfo{}
	}
	p.viewChanges[m.NewView][m.Voter] = lockInfo{decision: m.Locked, view: m.LockView}
	// Catch up if a majority of the committee is already past this view.
	if m.NewView > p.view && len(p.viewChanges[m.NewView]) > p.committee.size/2 {
		p.moveToView(m.NewView)
	}
	p.maybePropose()
}

// maybePropose broadcasts a pre-prepare if this notary leads the current
// view and has something to propose: a lock carried over from a view-change
// report, or its own grounds.
func (p *notaryProc) maybePropose() {
	d := p.deps()
	if p.decided || p.committee.leaderOf(p.view) != p.id {
		return
	}
	if p.proposedView == nil {
		p.proposedView = map[int]bool{}
	}
	if p.proposedView[p.view] {
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
	p.proposedView[p.view] = true
	send := func(dec sig.Decision, lv int) {
		pp := MsgPrePrepare{PaymentID: d.PaymentID, Decision: dec, View: p.view, Leader: p.id, LockView: lv}
		if d.Tr.Recording() {
			d.Tr.Add(d.Eng.Now(), trace.KindConsensus, p.id, "", fmt.Sprintf("propose %s in view %d", dec, p.view))
		}
		for _, nid := range p.committee.ids {
			if nid != p.id {
				d.Net.Send(p.id, nid, pp)
			}
		}
		p.onPrePrepare(p.id, pp)
	}
	send(dec, lockView)
	if p.fault.Equivocate {
		other := sig.DecisionAbort
		if dec == sig.DecisionAbort {
			other = sig.DecisionCommit
		}
		send(other, -1)
	}
}

// chooseValue returns the locked decision with the highest lock view among
// this notary's own lock and the locks reported in view-change messages for
// the current view.
func (p *notaryProc) chooseValue() (sig.Decision, int, bool) {
	best := lockInfo{view: -1}
	if p.lock != "" {
		best = lockInfo{decision: p.lock, view: p.lockView}
	}
	for _, li := range p.viewChanges[p.view] {
		if li.decision != "" && li.view > best.view {
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
func (p *notaryProc) onPrePrepare(from string, m MsgPrePrepare) {
	d := p.deps()
	if m.PaymentID != d.PaymentID || p.decided {
		return
	}
	if from != m.Leader || p.committee.leaderOf(m.View) != m.Leader || m.View < p.view {
		return
	}
	if _, voted := p.preparedIn[m.View]; voted && !p.fault.Equivocate {
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
			justified = len(p.prepared) >= d.NumEscrows
		case sig.DecisionAbort:
			justified = p.abortRequested
		}
	}
	if !justified {
		cp := m
		p.pendingPrePrepare = &cp
		return
	}
	if m.View > p.view {
		p.moveToView(m.View)
	}
	p.preparedIn[m.View] = m.Decision
	vote := MsgPrepare{PaymentID: d.PaymentID, Decision: m.Decision, View: m.View, Voter: p.id}
	for _, nid := range p.committee.ids {
		if nid != p.id {
			d.Net.Send(p.id, nid, vote)
		}
	}
	p.onPrepare(vote)
}

// onPrepare collects first-phase votes; a quorum locks the decision and
// triggers the commit vote.
func (p *notaryProc) onPrepare(m MsgPrepare) {
	d := p.deps()
	if m.PaymentID != d.PaymentID || p.decided {
		return
	}
	key := voteKey(m.Decision, m.View)
	if p.prepVotes[key] == nil {
		p.prepVotes[key] = map[string]bool{}
	}
	p.prepVotes[key][m.Voter] = true
	if len(p.prepVotes[key]) < p.committee.quorum {
		return
	}
	if p.sentCommit == nil {
		p.sentCommit = map[string]bool{}
	}
	if p.sentCommit[key] {
		return
	}
	p.sentCommit[key] = true
	// Prepared certificate reached: lock and vote to commit.
	if m.View >= p.lockView || p.lock == "" {
		p.lock = m.Decision
		p.lockView = m.View
	}
	cv := MsgCommitVote{PaymentID: d.PaymentID, Decision: m.Decision, View: m.View, Voter: p.id}
	for _, nid := range p.committee.ids {
		if nid != p.id {
			d.Net.Send(p.id, nid, cv)
		}
	}
	p.onCommitVote(cv)
}

// onCommitVote collects second-phase votes; a quorum decides.
func (p *notaryProc) onCommitVote(m MsgCommitVote) {
	d := p.deps()
	if m.PaymentID != d.PaymentID || p.decided {
		return
	}
	key := voteKey(m.Decision, m.View)
	if p.commitVotes[key] == nil {
		p.commitVotes[key] = map[string]bool{}
	}
	p.commitVotes[key][m.Voter] = true
	if len(p.commitVotes[key]) < p.committee.quorum {
		return
	}
	// Decision reached: assemble the certificate from the committing voters
	// (deterministic order) and broadcast it.
	signers := make([]string, 0, p.committee.quorum)
	for _, nid := range p.committee.ids {
		if p.commitVotes[key][nid] {
			signers = append(signers, nid)
		}
	}
	cert := sig.NewCommitteeDecisionCert(d.Kr, d.PaymentID, m.Decision, core.ManagerID, d.Eng.Now(), signers, p.committee.quorum)
	p.adopt(cert)
	d.Tr.AddLazy(d.Eng.Now(), trace.KindDecision, p.id, "", cert.Describe)
	if p.fault.WithholdCertificate {
		return
	}
	for _, id := range d.Recipients {
		d.Net.Send(p.id, id, MsgDecision{Cert: cert})
	}
	for _, nid := range p.committee.ids {
		if nid != p.id {
			d.Net.Send(p.id, nid, MsgDecision{Cert: cert})
		}
	}
}

// onDecision adopts a certificate assembled by another notary.
func (p *notaryProc) onDecision(m MsgDecision) {
	d := p.deps()
	if m.Cert.PaymentID != d.PaymentID {
		return
	}
	if !m.Cert.Verify(d.Kr) || len(m.Cert.Signers) < p.committee.quorum {
		return
	}
	p.adopt(m.Cert)
}

func (p *notaryProc) adopt(cert sig.DecisionCert) {
	p.committee.recordIssued(cert.Decision)
	if p.decided {
		return
	}
	p.decided = true
	p.decidedCert = cert
}
