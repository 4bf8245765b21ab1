package deals

import (
	"fmt"

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
	run   *dealRun
	asset string
	id    string // "chain-" + asset, precomputed for the hot send path
	led   *ledger.Ledger

	// commitVotes counts distinct commit voters (timelock protocol).
	commitVotes map[string]bool
	settled     map[Arc]bool
	expiry      sim.Time
}

// ID implements netsim.Node.
func (a *assetChain) ID() string { return a.id }

// Deliver implements netsim.Node.
func (a *assetChain) Deliver(from string, msg netsim.Message) {
	switch m := msg.(type) {
	case msgEscrow:
		a.onEscrow(from, m)
	case msgCommitVote:
		a.onCommitVote(from, m)
	case msgCertified:
		a.onCertified(m)
	}
}

func (a *assetChain) arcLockID(arc Arc) string {
	return fmt.Sprintf("%s->%s:%s", arc.From, arc.To, arc.Asset.Type)
}

// onEscrow locks the arc's asset and announces the escrow to every party.
func (a *assetChain) onEscrow(from string, m msgEscrow) {
	if m.Arc.From != from || m.Arc.Asset.Type != a.asset || a.settled[m.Arc] {
		return
	}
	lockID := a.arcLockID(m.Arc)
	if _, err := a.led.CreateLock(a.run.eng.Now(), lockID, m.Arc.From, m.Arc.To, m.Arc.Asset.Amount, ledger.Condition{}); err != nil {
		return
	}
	a.run.tr.AddValue(a.run.eng.Now(), trace.KindLock, a.ID(), m.Arc.From, lockID, m.Arc.Asset.Amount)
	for _, p := range a.run.cfg.Deal.Parties {
		a.run.net.Send(a.ID(), p, msgEscrowed{Arc: m.Arc})
	}
	// Timelock protocol: arm this arc's refund timeout.
	if a.run.timelock && a.expiry > 0 {
		arc := m.Arc
		a.run.eng.ScheduleAt(a.expiry, a.ID()+":expiry", func() { a.refund(arc) })
	}
}

// onCommitVote records a party's commit vote (timelock protocol); once all
// parties voted, every pending arc on this chain is released.
func (a *assetChain) onCommitVote(from string, m msgCommitVote) {
	if !a.run.timelock {
		return
	}
	a.commitVotes[from] = true
	if len(a.commitVotes) < len(a.run.cfg.Deal.Parties) {
		return
	}
	for _, arc := range a.run.cfg.Deal.Arcs() {
		if arc.Asset.Type == a.asset {
			a.release(arc)
		}
	}
}

// onCertified settles every arc according to the certified blockchain's
// decision (certified-blockchain protocol). The decision certificate must
// carry the certifier's signature over the decision acted upon: a message
// whose Commit bit disagrees with the signed subject (a replayed
// certificate with the bit flipped) is ignored, as is any unsigned or
// tampered decision.
func (a *assetChain) onCertified(m msgCertified) {
	want := decisionLabel(m.Commit)
	if a.run.kr == nil || m.Cert.Subject != want || !m.Cert.Verify(a.run.kr) {
		return
	}
	for _, arc := range a.run.cfg.Deal.Arcs() {
		if arc.Asset.Type != a.asset {
			continue
		}
		if m.Commit {
			a.release(arc)
		} else {
			a.refund(arc)
		}
	}
}

func (a *assetChain) release(arc Arc) {
	if a.settled[arc] {
		return
	}
	lockID := a.arcLockID(arc)
	if err := a.led.Release(a.run.eng.Now(), lockID, nil, 0); err != nil {
		return
	}
	a.settled[arc] = true
	a.run.outcome.Transferred[arc] = true
	a.run.tr.AddValue(a.run.eng.Now(), trace.KindRelease, a.ID(), arc.To, lockID, arc.Asset.Amount)
	a.run.net.Send(a.ID(), arc.To, msgSettled{Arc: arc, Transferred: true})
	a.run.net.Send(a.ID(), arc.From, msgSettled{Arc: arc, Transferred: true})
}

func (a *assetChain) refund(arc Arc) {
	if a.settled[arc] {
		return
	}
	lockID := a.arcLockID(arc)
	if err := a.led.Refund(a.run.eng.Now(), lockID, a.run.eng.Now()); err != nil {
		return
	}
	a.settled[arc] = true
	a.run.tr.AddValue(a.run.eng.Now(), trace.KindRefund, a.ID(), arc.From, lockID, arc.Asset.Amount)
	a.run.net.Send(a.ID(), arc.From, msgSettled{Arc: arc, Transferred: false})
}

// partyProc is one deal party.
type partyProc struct {
	run       *dealRun
	id        string
	compliant bool

	escrowed map[Arc]bool
	voted    bool
	asked    bool
}

// ID implements netsim.Node.
func (p *partyProc) ID() string { return p.id }

// Deliver implements netsim.Node.
func (p *partyProc) Deliver(from string, msg netsim.Message) {
	switch m := msg.(type) {
	case msgEscrowed:
		p.onEscrowed(m)
	case msgSettled:
		// Nothing to do: settlement bookkeeping happens on the chains; the
		// message exists so the cost experiments count realistic traffic.
		_ = m
	}
}

// start escrows the party's outgoing arcs (compliant parties only).
func (p *partyProc) start() {
	if !p.compliant {
		return
	}
	for _, arc := range p.run.cfg.Deal.Arcs() {
		if arc.From != p.id {
			continue
		}
		arc := arc
		p.run.eng.ScheduleIn(p.run.procDelay(), p.id+":escrow", func() {
			p.run.net.Send(p.id, "chain-"+arc.Asset.Type, msgEscrow{Arc: arc})
		})
	}
	// Certified-blockchain protocol: impatient parties ask the certifier to
	// abort after their patience runs out.
	if !p.run.timelock && p.run.cfg.PartyPatience > 0 {
		p.run.eng.ScheduleIn(p.run.cfg.PartyPatience, p.id+":patience", func() {
			if p.run.certifier.decided || p.asked {
				return
			}
			p.asked = true
			p.run.net.Send(p.id, certifierID, msgAbortAsk{Party: p.id})
		})
	}
}

// onEscrowed tracks which arcs are escrowed; in the timelock protocol a
// party broadcasts its commit vote once every arc of the deal is escrowed.
func (p *partyProc) onEscrowed(m msgEscrowed) {
	p.escrowed[m.Arc] = true
	if !p.compliant || p.voted {
		return
	}
	if len(p.escrowed) < len(p.run.cfg.Deal.Arcs()) {
		return
	}
	p.voted = true
	if p.run.timelock {
		for _, t := range p.run.cfg.Deal.AssetTypes() {
			p.run.net.Send(p.id, "chain-"+t, msgCommitVote{Party: p.id})
		}
	} else {
		p.run.net.Send(p.id, certifierID, msgAllEscrowed{Party: p.id})
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
	commit  bool
}

// ID implements netsim.Node.
func (c *certifierProc) ID() string { return certifierID }

// Deliver implements netsim.Node.
func (c *certifierProc) Deliver(from string, msg netsim.Message) {
	switch msg.(type) {
	case msgAllEscrowed:
		c.decide(true)
	case msgAbortAsk:
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

func (c *certifierProc) decide(commit bool) {
	if c.decided {
		return
	}
	c.decided = true
	c.commit = commit
	label := decisionLabel(commit)
	c.run.tr.Add(c.run.eng.Now(), trace.KindDecision, certifierID, "", label)
	cert := sig.NewReceipt(c.run.kr, c.run.dealID(), certifierID, label, c.run.eng.Now())
	for _, t := range c.run.cfg.Deal.AssetTypes() {
		c.run.net.Send(certifierID, "chain-"+t, msgCertified{Commit: commit, Cert: cert})
	}
	for _, p := range c.run.cfg.Deal.Parties {
		c.run.net.Send(certifierID, p, msgCertified{Commit: commit, Cert: cert})
	}
}

// Deal-protocol messages.

type msgEscrow struct{ Arc Arc }

func (m msgEscrow) Describe() string { return "escrow " + m.Arc.Asset.String() }

type msgEscrowed struct{ Arc Arc }

func (m msgEscrowed) Describe() string { return "escrowed " + m.Arc.Asset.String() }

type msgCommitVote struct{ Party string }

func (m msgCommitVote) Describe() string { return "commit-vote " + m.Party }

type msgAllEscrowed struct{ Party string }

func (m msgAllEscrowed) Describe() string { return "all-escrowed " + m.Party }

type msgAbortAsk struct{ Party string }

func (m msgAbortAsk) Describe() string { return "abort-ask " + m.Party }

type msgCertified struct {
	Commit bool
	// Cert is the certifier's signed decision certificate.
	Cert sig.Receipt
}

func (m msgCertified) Describe() string {
	if m.Commit {
		return "certified-commit"
	}
	return "certified-abort"
}

type msgSettled struct {
	Arc         Arc
	Transferred bool
}

func (m msgSettled) Describe() string { return "settled" }

// dealRun holds one protocol execution.
type dealRun struct {
	cfg      Config
	timelock bool
	eng      *sim.Engine
	net      *netsim.Network
	tr       *trace.Trace
	book     *ledger.Book
	outcome  *Outcome

	chains    map[string]*assetChain
	parties   map[string]*partyProc
	certifier *certifierProc
	// kr holds the certifier's key in the certified-blockchain protocol
	// (nil in the timelock protocol, which needs no signatures).
	kr *sig.Keyring
}

// dealID labels the run's artefacts (certificates, lock IDs are per-arc).
func (r *dealRun) dealID() string { return fmt.Sprintf("deal-%d", r.cfg.Seed) }

func (r *dealRun) procDelay() sim.Time {
	maxP := r.cfg.Timing.MaxProcessing
	if maxP <= 0 {
		return 0
	}
	return sim.Time(r.eng.Rand().Int63n(int64(maxP + 1)))
}

// certifierKeys is the one key a certified run signs with.
var certifierKeys = []string{certifierID}

// newDealRun resets w's substrate for the configuration and attaches the
// chains and parties both protocols share to it.
func newDealRun(w *core.World, cfg Config, timelock bool) (*dealRun, error) {
	if cfg.Deal == nil || len(cfg.Deal.Parties) == 0 {
		return nil, fmt.Errorf("deals: empty deal")
	}
	if _, ok := sig.BackendByName(cfg.Crypto); !ok {
		return nil, fmt.Errorf("deals: unknown crypto backend %q (have %v)", cfg.Crypto, sig.BackendNames())
	}
	if cfg.Network == nil {
		cfg.Network = netsim.Synchronous{Min: 1 * sim.Millisecond, Max: cfg.Timing.MaxMsgDelay}
	}
	w.ResetSubstrate(cfg.Seed, cfg.Network, cfg.MuteTrace, nil)
	r := &dealRun{
		cfg:      cfg,
		timelock: timelock,
		eng:      w.Eng,
		net:      w.Net,
		tr:       w.Trace,
		book:     w.Book,
		outcome:  NewOutcome(cfg.Deal),
		chains:   map[string]*assetChain{},
		parties:  map[string]*partyProc{},
	}
	for _, t := range cfg.Deal.AssetTypes() {
		led := w.AddLedger(t)
		for _, party := range cfg.Deal.Parties {
			if err := led.CreateAccount(party); err != nil {
				return nil, err
			}
		}
		// Endow each party with exactly what it owes in this asset.
		for _, arc := range cfg.Deal.Arcs() {
			if arc.Asset.Type == t {
				if err := led.Mint(0, arc.From, arc.Asset.Amount); err != nil {
					return nil, err
				}
			}
		}
		chain := &assetChain{run: r, asset: t, id: "chain-" + t, led: led, commitVotes: map[string]bool{}, settled: map[Arc]bool{}}
		if timelock {
			// The timelock covers escrow set-up plus one vote round for every
			// party, with synchrony slack.
			chain.expiry = sim.Time(len(cfg.Deal.Parties)+2) * (4*cfg.Timing.MaxMsgDelay + 4*cfg.Timing.MaxProcessing)
		}
		r.chains[t] = chain
		r.net.Register(chain)
	}
	for _, party := range cfg.Deal.Parties {
		compliant := !cfg.NonCompliant[party]
		r.outcome.Compliant[party] = compliant
		p := &partyProc{run: r, id: party, compliant: compliant, escrowed: map[Arc]bool{}}
		r.parties[party] = p
		r.net.Register(p)
	}
	if !timelock {
		keySeed := cfg.KeySeed
		if keySeed == "" {
			keySeed = r.dealID()
		}
		r.kr = w.KeyringFor(cfg.Crypto, keySeed, certifierKeys)
		r.certifier = &certifierProc{run: r}
		r.net.Register(r.certifier)
	}
	return r, nil
}

func (r *dealRun) run(name string) *Result {
	for _, party := range r.cfg.Deal.Parties {
		r.parties[party].start()
	}
	_, fired := r.eng.Run(1_000_000)
	// Anything still pending at the end of the run was escrowed forever.
	for _, t := range r.cfg.Deal.AssetTypes() {
		for _, lk := range r.chains[t].led.PendingLocks() {
			for _, arc := range r.cfg.Deal.Arcs() {
				if r.chains[t].arcLockID(arc) == lk.ID {
					r.outcome.EscrowedForever = append(r.outcome.EscrowedForever, arc)
				}
			}
		}
	}
	return &Result{
		Protocol:    name,
		Outcome:     r.outcome,
		Trace:       r.tr,
		Book:        r.book,
		Stats:       r.net.Stats(),
		Duration:    r.eng.Now(),
		EventsFired: fired,
	}
}

// TimelockCommit is Herlihy et al.'s timelock commit protocol: it requires
// synchrony and assures Safety, Termination and Strong liveness for
// well-formed deals.
type TimelockCommit struct{}

// Name identifies the protocol in experiment tables.
func (TimelockCommit) Name() string { return "deal-timelock-commit" }

// Run executes the protocol for the configuration.
func (p TimelockCommit) Run(cfg Config) (*Result, error) { return p.RunIn(core.NewWorld(), cfg) }

// RunIn is the same run on the substrate of a standing world its caller owns
// and reuses. The Result's Trace and Book are w's own, valid until w is next
// reset (see core.World).
func (p TimelockCommit) RunIn(w *core.World, cfg Config) (*Result, error) {
	r, err := newDealRun(w, cfg, true)
	if err != nil {
		return nil, err
	}
	return r.run(p.Name()), nil
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
	r, err := newDealRun(w, cfg, false)
	if err != nil {
		return nil, err
	}
	return r.run(p.Name()), nil
}
