package deals

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes one deal-protocol run: the deal, which parties deviate,
// the network model and timing assumptions, and the RNG seed.
type Config struct {
	Deal *Deal
	// NonCompliant marks parties that deviate (they never escrow their
	// outgoing assets nor vote).
	NonCompliant map[string]bool
	Network      netsim.DelayModel
	Timing       core.Timing
	Seed         int64
	// PartyPatience is the local time a party in the certified-blockchain
	// protocol waits before asking the certifier to abort; 0 means wait
	// forever.
	PartyPatience sim.Time
	MuteTrace     bool
	// Crypto names the signature backend the certified blockchain signs its
	// decision certificates with ("" = ed25519; see sig.BackendNames). The
	// certifier is trust-assumed, so the choice never changes an outcome.
	Crypto string
	// KeySeed overrides the seed the certifier's key derives from ("" derives
	// it from the deal's ID, "deal-<Seed>"). Like the backend, the key's bytes
	// are below the model: a campaign that runs many deals under one KeySeed
	// keeps the key and its bound signer on a standing world's keyring.
	KeySeed string
}

// Result is the outcome of one deal-protocol run.
type Result struct {
	Protocol string
	Outcome  *Outcome
	Trace    *trace.Trace
	Book     *ledger.Book
	Stats    netsim.Stats
	Duration sim.Time
	// EventsFired is the number of simulation events processed.
	EventsFired uint64
}

// assetChain is the blockchain escrowing one asset type: it holds the locks
// of every arc in that asset and settles them on the protocol's commit or
// abort conditions. It is deliberately simple — the open-source, abide-by-
// the-protocol escrow that Herlihy et al. assume.
type assetChain struct {
	run *dealRun
	id  string         // "chain-" + the asset type
	led *ledger.Ledger // named after the asset type

	// votes is the set of party indices whose commit vote arrived; voted its size.
	votes  []uint64
	voted  int
	expiry sim.Time
}

// arcState is one arc of the running deal, at its index in Deal.Arcs(), and
// the messages about it, which reset writes and nobody after.
type arcState struct {
	Arc
	index   int
	chain   *assetChain
	lockID  string // "<from>-><to>:<type>"
	settled bool

	escrow   msgEscrow     // the owner's instruction to the chain
	escrowed msgEscrowed   // the chain's announcement to every party
	outcome  [2]msgSettled // the chain's notice of a refund, of a release
}

// mark adds index i to the set in words and reports whether it was missing.
func mark(words []uint64, i int) bool {
	w, bit := &words[i>>6], uint64(1)<<(i&63)
	missing := *w&bit == 0
	*w |= bit
	return missing
}

// ID implements netsim.Node.
func (a *assetChain) ID() string { return a.id }

// Deliver implements netsim.Node.
//
//xchain:hotpath
func (a *assetChain) Deliver(from string, msg netsim.Message) {
	switch m := msg.(type) {
	case *msgEscrow:
		a.onEscrow(from, m.arc)
	case *msgCommitVote:
		a.onCommitVote(from, m.from)
	case *msgCertified:
		a.onCertified(m)
	}
}

// onEscrow locks the arc's asset and announces the escrow to every party.
//
//xchain:hotpath
func (a *assetChain) onEscrow(from string, arc *arcState) {
	r := a.run
	if arc.From != from || arc.chain != a || arc.settled {
		return
	}
	if _, err := a.led.CreateLock(r.eng.Now(), arc.lockID, arc.From, arc.To, arc.Asset.Amount, ledger.Condition{}); err != nil {
		return
	}
	if r.tr.Recording() {
		r.tr.AddValue(r.eng.Now(), trace.KindLock, a.id, arc.From, arc.lockID, arc.Asset.Amount)
	}
	for i := range r.parties {
		r.net.Send(a.id, r.parties[i].id, &arc.escrowed)
	}
	// Timelock protocol: arm this arc's refund timeout.
	if r.timelock && a.expiry > 0 {
		r.eng.ScheduleArgAt(a.expiry, r.w.EventName(a.id, "expiry"), expireArc, arc)
	}
}

// expireArc is the scheduled action of onEscrow: the arc's timelock ran out.
//
//xchain:hotpath
func expireArc(x any) {
	arc := x.(*arcState)
	arc.chain.refund(arc)
}

// onCommitVote records a party's commit vote (timelock protocol); once all
// parties voted, every pending arc on this chain is released. A vote that is
// not its sender's own is no party's, and dropped.
//
//xchain:hotpath
func (a *assetChain) onCommitVote(from string, voter *partyProc) {
	if !a.run.timelock || voter.id != from {
		return
	}
	if mark(a.votes, voter.index) {
		a.voted++
	}
	if a.voted == len(a.run.parties) {
		a.settleAll(true)
	}
}

// settleAll releases (commit) or refunds every arc of this chain.
func (a *assetChain) settleAll(commit bool) {
	for i := range a.run.arcs {
		switch arc := &a.run.arcs[i]; {
		case arc.chain != a:
		case commit:
			a.release(arc)
		default:
			a.refund(arc)
		}
	}
}

// onCertified settles every arc according to the certified blockchain's
// decision (certified-blockchain protocol). The decision certificate must
// carry the certifier's signature over the decision acted upon: a message
// whose Commit bit disagrees with the signed subject (a replayed
// certificate with the bit flipped) is ignored, as is any unsigned or
// tampered decision.
//
//xchain:hotpath
func (a *assetChain) onCertified(m *msgCertified) {
	want := decisionLabel(m.Commit)
	if a.run.kr != nil && m.Cert.Subject == want && m.Cert.Verify(a.run.kr) {
		a.settleAll(m.Commit)
	}
}

//xchain:hotpath
func (a *assetChain) release(arc *arcState) {
	r := a.run
	if arc.settled {
		return
	}
	if err := a.led.Release(r.eng.Now(), arc.lockID, nil, 0); err != nil {
		return
	}
	arc.settled = true
	r.outcome.Transferred[arc.Arc] = true
	if r.tr.Recording() {
		r.tr.AddValue(r.eng.Now(), trace.KindRelease, a.id, arc.To, arc.lockID, arc.Asset.Amount)
	}
	r.net.Send(a.id, arc.To, &arc.outcome[1])
	r.net.Send(a.id, arc.From, &arc.outcome[1])
}

//xchain:hotpath
func (a *assetChain) refund(arc *arcState) {
	r := a.run
	if arc.settled {
		return
	}
	if err := a.led.Refund(r.eng.Now(), arc.lockID, r.eng.Now()); err != nil {
		return
	}
	arc.settled = true
	if r.tr.Recording() {
		r.tr.AddValue(r.eng.Now(), trace.KindRefund, a.id, arc.From, arc.lockID, arc.Asset.Amount)
	}
	r.net.Send(a.id, arc.From, &arc.outcome[0])
}

// partyProc is one deal party, at its index in Deal.Parties.
type partyProc struct {
	run       *dealRun
	id        string
	index     int
	compliant bool

	// escrowed is the set of arc indices the party saw escrowed; seen its size.
	escrowed []uint64
	seen     int
	voted    bool

	// The party's outgoing messages, written by reset.
	vote        msgCommitVote
	allEscrowed msgAllEscrowed
	abortAsk    msgAbortAsk
}

// ID implements netsim.Node.
func (p *partyProc) ID() string { return p.id }

// Deliver implements netsim.Node. A settlement notice needs no action: the
// chains keep the books, and it exists so the cost experiments count it.
//
//xchain:hotpath
func (p *partyProc) Deliver(from string, msg netsim.Message) {
	if m, ok := msg.(*msgEscrowed); ok {
		p.onEscrowed(m.arc)
	}
}

// start escrows the party's outgoing arcs (compliant parties only).
//
//xchain:hotpath
func (p *partyProc) start() {
	r := p.run
	if !p.compliant {
		return
	}
	for i := range r.arcs {
		if arc := &r.arcs[i]; arc.From == p.id {
			r.eng.ScheduleArgIn(r.procDelay(), r.w.EventName(p.id, "escrow"), sendEscrow, arc)
		}
	}
	// Certified-blockchain protocol: impatient parties ask the certifier to
	// abort after their patience runs out.
	if !r.timelock && r.cfg.PartyPatience > 0 {
		r.eng.ScheduleArgIn(r.cfg.PartyPatience, r.w.EventName(p.id, "patience"), losePatience, p)
	}
}

// sendEscrow is start's scheduled action for one outgoing arc.
//
//xchain:hotpath
func sendEscrow(x any) {
	arc := x.(*arcState)
	arc.chain.run.net.Send(arc.From, arc.chain.id, &arc.escrow)
}

// losePatience is start's scheduled action when the party's patience ends.
//
//xchain:hotpath
func losePatience(x any) {
	p := x.(*partyProc)
	if !p.run.certifier.decided {
		p.run.net.Send(p.id, certifierID, &p.abortAsk)
	}
}

// onEscrowed tracks which arcs are escrowed; in the timelock protocol a
// party broadcasts its commit vote once every arc of the deal is escrowed.
//
//xchain:hotpath
func (p *partyProc) onEscrowed(arc *arcState) {
	r := p.run
	if mark(p.escrowed, arc.index) {
		p.seen++
	}
	if !p.compliant || p.voted || p.seen < len(r.arcs) {
		return
	}
	p.voted = true
	if !r.timelock {
		r.net.Send(p.id, certifierID, &p.allEscrowed)
		return
	}
	for i := range r.chains {
		r.net.Send(p.id, r.chains[i].id, &p.vote)
	}
}

// certifierID is the node ID of the certified blockchain in the
// certified-blockchain commit protocol.
const certifierID = "certifier"

// certifierProc is the certified blockchain: it publishes a commit
// certificate once some party proves all arcs are escrowed, or an abort
// certificate if a party asks first.
type certifierProc struct {
	run     *dealRun
	decided bool
	// certified is the one decision, written by decide before it is sent.
	certified msgCertified
}

// ID implements netsim.Node.
func (c *certifierProc) ID() string { return certifierID }

// Deliver implements netsim.Node.
//
//xchain:hotpath
func (c *certifierProc) Deliver(from string, msg netsim.Message) {
	switch msg.(type) {
	case *msgAllEscrowed:
		c.decide(true)
	case *msgAbortAsk:
		c.decide(false)
	}
}

// decisionLabel renders the decision subject the certifier signs.
func decisionLabel(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}

//xchain:hotpath
func (c *certifierProc) decide(commit bool) {
	r := c.run
	if c.decided {
		return
	}
	c.decided = true
	label := decisionLabel(commit)
	if r.tr.Recording() {
		r.tr.Add(r.eng.Now(), trace.KindDecision, certifierID, "", label)
	}
	c.certified = msgCertified{Commit: commit, Cert: sig.NewReceipt(r.kr, r.id, certifierID, label, r.eng.Now())}
	for i := range r.chains {
		r.net.Send(certifierID, r.chains[i].id, &c.certified)
	}
	for i := range r.parties {
		r.net.Send(certifierID, r.parties[i].id, &c.certified)
	}
}

// Deal-protocol messages. Each is a field of its sender (an arc's are the
// arc's), written before its first Send and never after, and travels by
// pointer: a message is valid until its world's next reset. Head is the
// constant Describe starts with (see netsim.HeadOf).

type msgEscrow struct{ arc *arcState }

func (m *msgEscrow) Describe() string { return "escrow " + m.arc.Asset.String() }
func (m *msgEscrow) Head() string     { return "escrow " }

type msgEscrowed struct{ arc *arcState }

func (m *msgEscrowed) Describe() string { return "escrowed " + m.arc.Asset.String() }
func (m *msgEscrowed) Head() string     { return "escrowed " }

type msgCommitVote struct{ from *partyProc }

func (m *msgCommitVote) Describe() string { return "commit-vote " + m.from.id }
func (m *msgCommitVote) Head() string     { return "commit-vote " }

type msgAllEscrowed struct{ Party string }

func (m *msgAllEscrowed) Describe() string { return "all-escrowed " + m.Party }
func (m *msgAllEscrowed) Head() string     { return "all-escrowed " }

type msgAbortAsk struct{ Party string }

func (m *msgAbortAsk) Describe() string { return "abort-ask " + m.Party }
func (m *msgAbortAsk) Head() string     { return "abort-ask " }

type msgCertified struct {
	Commit bool
	// Cert is the certifier's signed decision certificate.
	Cert sig.Receipt
}

func (m *msgCertified) Describe() string { return "certified-" + decisionLabel(m.Commit) }
func (m *msgCertified) Head() string     { return "certified-" }

type msgSettled struct {
	Arc         Arc
	Transferred bool
}

func (m *msgSettled) Describe() string { return "settled" }
func (m *msgSettled) Head() string     { return "settled" }

// dealRun is one protocol execution, and the package's run-state on its
// world (core.Standing): reset overwrites every field a run reads and every
// process, so nothing of the previous run is left for this one, and regrows
// the slices only for a larger deal than any before.
type dealRun struct {
	cfg      Config
	timelock bool
	w        *core.World
	eng      *sim.Engine
	net      *netsim.Network
	tr       *trace.Trace
	// kr holds the certifier's key in the certified-blockchain protocol
	// (nil in the timelock protocol, which needs no signatures).
	kr *sig.Keyring

	chains    []assetChain // in Deal.AssetTypes() order
	parties   []partyProc  // in Deal.Parties order
	arcs      []arcState   // in Deal.Arcs() order
	certifier certifierProc

	// sets is the storage of the chains' votes and the parties' escrowed.
	sets []uint64
	// byLock orders the arcs by chain, then lock ID, as a run reports them.
	byLock []int
	// names is what rename rendered in nameBuf, kept while the next run
	// renders the same bytes; id is the piece that is the deal's ID.
	names, id string
	nameBuf   []byte

	outcome Outcome
	forever []Arc
	result  Result
}

func (r *dealRun) procDelay() sim.Time {
	maxP := r.cfg.Timing.MaxProcessing
	if maxP <= 0 {
		return 0
	}
	return sim.Time(r.eng.Rand().Int63n(int64(maxP + 1)))
}

// certifierKeys is the one key a certified run signs with.
var certifierKeys = []string{certifierID}

// rename renders the chains' node IDs, the arcs' lock IDs and — to label a
// certified run's certificates — the deal's ID as pieces of one string, the
// last run's while the names are, and orders byLock.
func (r *dealRun) rename(types []string, arcs []Arc) {
	buf := r.nameBuf[:0]
	for _, t := range types {
		buf = append(append(buf, "chain-"...), t...)
	}
	for _, a := range arcs {
		buf = append(append(append(append(append(buf, a.From...), "->"...), a.To...), ':'), a.Asset.Type...)
	}
	if !r.timelock {
		buf = strconv.AppendInt(append(buf, "deal-"...), r.cfg.Seed, 10)
	}
	if r.nameBuf = buf; string(buf) != r.names {
		r.names = string(buf)
	}
	names := r.names
	for i, t := range types {
		n := len("chain-") + len(t)
		r.chains[i].id, names = names[:n], names[n:]
	}
	r.byLock = r.byLock[:0]
	for i, a := range arcs {
		n := len(a.From) + len("->") + len(a.To) + len(":") + len(a.Asset.Type)
		r.arcs[i].lockID, names = names[:n], names[n:]
		r.byLock = append(r.byLock, i)
	}
	r.id = names
	// The chains stand in the order of their asset types.
	slices.SortFunc(r.byLock, func(i, j int) int {
		return cmp.Or(strings.Compare(arcs[i].Asset.Type, arcs[j].Asset.Type), strings.Compare(r.arcs[i].lockID, r.arcs[j].lockID))
	})
}

// reset resets w's substrate for the configuration and makes r its run: the
// chains and parties both protocols share, attached to w's network.
func (r *dealRun) reset(w *core.World, cfg Config, timelock bool) error {
	if cfg.Deal == nil || len(cfg.Deal.Parties) == 0 {
		return fmt.Errorf("deals: empty deal")
	}
	if _, ok := sig.BackendByName(cfg.Crypto); !ok {
		return fmt.Errorf("deals: unknown crypto backend %q (have %v)", cfg.Crypto, sig.BackendNames())
	}
	if cfg.Network == nil {
		cfg.Network = netsim.Synchronous{Min: 1 * sim.Millisecond, Max: cfg.Timing.MaxMsgDelay}
	}
	w.ResetSubstrate(cfg.Seed, cfg.Network, cfg.MuteTrace, nil)
	r.cfg, r.timelock = cfg, timelock
	r.w, r.eng, r.net, r.tr, r.kr = w, w.Eng, w.Net, w.Trace, nil
	deal := cfg.Deal
	types, arcs, parties := deal.AssetTypes(), deal.Arcs(), deal.Parties
	r.chains = slices.Grow(r.chains[:0], len(types))[:len(types)]
	r.arcs = slices.Grow(r.arcs[:0], len(arcs))[:len(arcs)]
	r.rename(types, arcs)
	perChain, perParty := (len(parties)+63)/64, (len(arcs)+63)/64
	r.sets = slices.Grow(r.sets[:0], len(types)*perChain+len(parties)*perParty)[:len(types)*perChain+len(parties)*perParty]
	clear(r.sets)
	sets := r.sets
	for i, t := range types {
		led := w.AddLedger(t)
		for _, party := range parties {
			if err := led.CreateAccount(party); err != nil {
				return err
			}
		}
		// Endow each party with exactly what it owes in this asset.
		for _, arc := range arcs {
			if arc.Asset.Type == t {
				if err := led.Mint(0, arc.From, arc.Asset.Amount); err != nil {
					return err
				}
			}
		}
		chain := &r.chains[i]
		*chain = assetChain{run: r, id: chain.id, led: led, votes: sets[:perChain]}
		sets = sets[perChain:]
		if timelock {
			// The timelock covers escrow set-up plus one vote round for every
			// party, with synchrony slack.
			chain.expiry = sim.Time(len(parties)+2) * (4*cfg.Timing.MaxMsgDelay + 4*cfg.Timing.MaxProcessing)
		}
		r.net.Register(chain)
	}
	for i, arc := range arcs {
		a := &r.arcs[i]
		*a = arcState{Arc: arc, index: i, chain: &r.chains[slices.Index(types, arc.Asset.Type)], lockID: a.lockID}
		a.escrow, a.escrowed = msgEscrow{arc: a}, msgEscrowed{arc: a}
		a.outcome = [2]msgSettled{{Arc: arc}, {Arc: arc, Transferred: true}}
	}
	r.outcome.Deal = deal
	if r.outcome.Transferred == nil {
		r.outcome.Transferred, r.outcome.Compliant = map[Arc]bool{}, map[string]bool{}
	}
	clear(r.outcome.Transferred)
	clear(r.outcome.Compliant)
	r.parties = slices.Grow(r.parties[:0], len(parties))[:len(parties)]
	for i, id := range parties {
		p := &r.parties[i]
		*p = partyProc{run: r, id: id, index: i, compliant: !cfg.NonCompliant[id], escrowed: sets[:perParty]}
		sets = sets[perParty:]
		p.vote, p.allEscrowed, p.abortAsk = msgCommitVote{from: p}, msgAllEscrowed{Party: id}, msgAbortAsk{Party: id}
		r.outcome.Compliant[id] = p.compliant
		r.net.Register(p)
	}
	r.certifier = certifierProc{run: r}
	if !timelock {
		keySeed := cfg.KeySeed
		if keySeed == "" {
			keySeed = r.id
		}
		r.kr = w.KeyringFor(cfg.Crypto, keySeed, certifierKeys)
		r.net.Register(&r.certifier)
	}
	return nil
}

// runIn is one run of either protocol on w, whose standing dealRun it uses.
func runIn(w *core.World, cfg Config, timelock bool, name string) (*Result, error) {
	r := core.Standing[dealRun](w)
	if err := r.reset(w, cfg, timelock); err != nil {
		return nil, err
	}
	for i := range r.parties {
		r.parties[i].start()
	}
	_, fired := r.eng.Run(1_000_000)
	// Anything still pending at the end of the run was escrowed forever.
	r.forever, r.outcome.EscrowedForever = r.forever[:0], nil
	for _, i := range r.byLock {
		arc := &r.arcs[i]
		if lk, ok := arc.chain.led.Lock(arc.lockID); ok && lk.State == ledger.LockPending {
			r.forever = append(r.forever, arc.Arc)
			r.outcome.EscrowedForever = r.forever
		}
	}
	r.result = Result{
		Protocol:    name,
		Outcome:     &r.outcome,
		Trace:       r.tr,
		Book:        w.Book,
		Stats:       r.net.Stats(),
		Duration:    r.eng.Now(),
		EventsFired: fired,
	}
	return &r.result, nil
}

// TimelockCommit is Herlihy et al.'s timelock commit protocol: it requires
// synchrony and assures Safety, Termination and Strong liveness for
// well-formed deals.
type TimelockCommit struct{}

// Name identifies the protocol in experiment tables.
func (TimelockCommit) Name() string { return "deal-timelock-commit" }

// Run executes the protocol for the configuration.
func (p TimelockCommit) Run(cfg Config) (*Result, error) { return p.RunIn(core.NewWorld(), cfg) }

// RunIn is the same run on a standing world its caller owns and reuses. The
// Result, its Outcome, Trace and Book are w's own, valid until w is next
// reset (see core.World).
func (p TimelockCommit) RunIn(w *core.World, cfg Config) (*Result, error) {
	return runIn(w, cfg, true, p.Name())
}

// CertifiedCommit is Herlihy et al.'s certified blockchain commit protocol:
// it requires only partial synchrony and a certified blockchain, and assures
// Safety and Termination; Strong liveness is unattainable in that setting.
type CertifiedCommit struct{}

// Name identifies the protocol in experiment tables.
func (CertifiedCommit) Name() string { return "deal-certified-commit" }

// Run executes the protocol for the configuration.
func (p CertifiedCommit) Run(cfg Config) (*Result, error) { return p.RunIn(core.NewWorld(), cfg) }

// RunIn is the same run on a standing world's substrate; the Result is valid
// until w is next reset.
func (p CertifiedCommit) RunIn(w *core.World, cfg Config) (*Result, error) {
	return runIn(w, cfg, false, p.Name())
}
