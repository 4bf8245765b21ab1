// Package netsim simulates the message network connecting participants.
//
// The paper's three theorems are statements about timing models: Theorem 1
// assumes synchrony (every message arrives within a known bound), Theorems 2
// and 3 assume partial synchrony (a bound exists but either is unknown or
// only holds after an unknown global stabilisation time, GST). This package
// realises those models as pluggable DelayModel implementations over the
// deterministic simulation kernel. An adversary is one more DelayModel: the
// Theorem-2 search (E4) holds protocol messages back with scenariogen.Schedule,
// and tests script any delay with Adversarial.
package netsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Message is the payload moved between participants. Protocol packages
// define concrete message types. Describe renders the message for a trace;
// a delay model that classifies messages reads HeadOf instead, which renders
// nothing.
type Message interface {
	Describe() string
}

// HeadOf returns the constant head of msg's description — "chi(", "$(",
// "P(" — when msg declares one with a Head() string method, which every
// protocol message in the tree does, and the whole description otherwise.
// Describe() always starts with the head, and the head runs up to where the
// message's own values begin, so a test for a message kind's prefix reads the
// same on either — and the head is built for no message.
func HeadOf(msg Message) string {
	if h, ok := msg.(interface{ Head() string }); ok {
		return h.Head()
	}
	return msg.Describe()
}

// Node is a participant attached to the network.
type Node interface {
	// ID returns the participant's name, which the network renders in
	// traces and registers the node under by Register.
	ID() string
	// Deliver is invoked by the network when a message arrives from the
	// participant with that PID.
	Deliver(from sim.PID, msg Message)
}

// Envelope describes a message in flight; adversarial delay models receive
// it when choosing delays.
type Envelope struct {
	From   sim.PID
	To     sim.PID
	Msg    Message
	SentAt sim.Time
	Seq    uint64
}

// DelayModel decides how long each message spends in the network.
type DelayModel interface {
	// Delay returns the network delay for the envelope and whether the
	// message is dropped. Correct-channel models never drop.
	Delay(env Envelope, eng *sim.Engine) (delay sim.Time, drop bool)
	// Name identifies the model in traces and experiment tables.
	Name() string
}

// Synchronous delivers every message within [Min, Max]; Max is the bound
// Delta known to all participants (Theorem 1's model).
type Synchronous struct {
	Min sim.Time
	Max sim.Time
}

// Name implements DelayModel.
func (s Synchronous) Name() string { return "synchronous" }

// Delay implements DelayModel.
func (s Synchronous) Delay(env Envelope, eng *sim.Engine) (sim.Time, bool) {
	lo, hi := s.Min, s.Max
	if hi <= lo {
		return lo, false
	}
	return lo + sim.Time(eng.Rand().Int63n(int64(hi-lo+1))), false
}

// PartialSynchrony delivers messages with arbitrary (but finite) delay before
// GST and within Delta after GST. Before GST the delay is drawn uniformly
// from 1 to max(MaxPreGST, Delta), and capped so that the message still
// arrives by GST + Delta: partial synchrony never loses messages.
type PartialSynchrony struct {
	GST       sim.Time
	Delta     sim.Time
	MaxPreGST sim.Time
}

// Name implements DelayModel.
func (p PartialSynchrony) Name() string { return "partial-synchrony" }

// Delay implements DelayModel.
func (p PartialSynchrony) Delay(env Envelope, eng *sim.Engine) (sim.Time, bool) {
	if env.SentAt >= p.GST {
		if p.Delta <= 0 {
			return 1, false
		}
		return 1 + sim.Time(eng.Rand().Int63n(int64(p.Delta))), false
	}
	d := 1 + sim.Time(eng.Rand().Int63n(int64(max(p.MaxPreGST, p.Delta, 1))))
	if env.SentAt+d > p.GST+p.Delta {
		d = max(p.GST+p.Delta-env.SentAt, 1)
	}
	return d, false
}

// Adversarial lets a strategy pick every delay (and optionally drop
// messages from/to Byzantine parties): the adversary may delay any message
// by any finite amount. Tests build strategy delay models with it; the
// Theorem-2 search schedules its attacks with scenariogen.Schedule instead.
type Adversarial struct {
	Strategy func(env Envelope, eng *sim.Engine) (sim.Time, bool)
	Label    string
}

// Name implements DelayModel.
func (a Adversarial) Name() string {
	if a.Label != "" {
		return "adversarial:" + a.Label
	}
	return "adversarial"
}

// Delay implements DelayModel.
func (a Adversarial) Delay(env Envelope, eng *sim.Engine) (sim.Time, bool) {
	if a.Strategy == nil {
		return 1, false
	}
	return a.Strategy(env, eng)
}

// Stats aggregates network-level counters for the cost experiments (E8).
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	// TotalDelay accumulates delivery latency of delivered messages.
	TotalDelay sim.Time
	// MaxDelay is the largest delivery latency observed.
	MaxDelay sim.Time
}

// deliverArg carries one in-flight message's delivery state. Delivery is
// scheduled through sim.Engine.ScheduleArgIn with a pooled *deliverArg and a
// package-level callback instead of a capturing closure, so the muted send
// path performs no heap allocation in steady state.
type deliverArg struct {
	net   *Network
	dst   Node
	env   Envelope
	delay sim.Time
	// label is the message's Describe(), built once by a recording Send for
	// the send and the deliver trace events.
	label string
}

// deliver is the delivery callback shared by every scheduled message. All
// fields are copied out before the arg is recycled: the recipient's Deliver
// may itself call Send, which reuses pooled args immediately.
//
//xchain:hotpath
func deliver(x any) {
	d := x.(*deliverArg)
	n, dst, env, delay, label := d.net, d.dst, d.env, d.delay, d.label
	*d = deliverArg{}
	n.freeArgs = append(n.freeArgs, d)
	n.stats.Delivered++
	n.m.Delivered.Inc()
	n.stats.TotalDelay += delay
	n.stats.MaxDelay = max(n.stats.MaxDelay, delay)
	if n.tr.Recording() {
		n.tr.Add(n.eng.Now(), trace.KindDeliver, n.Name(env.To), n.Name(env.From), label)
	}
	dst.Deliver(env.From, env.Msg)
	if n.Tap != nil {
		n.Tap(env, n.eng.Now())
	}
}

// Network connects nodes through a delay model on a simulation engine. Its
// nodes are addressed by PID: names is the run's participant table (PID i
// is names[i]) and nodes[i] the node registered under PID i, nil if none.
type Network struct {
	eng      *sim.Engine
	model    DelayModel
	tr       *trace.Trace
	names    []string
	nodes    []Node
	seq      uint64
	stats    Stats
	m        Metrics
	freeArgs []*deliverArg
	// Tap, if set, observes every delivered message after the recipient
	// handles it (used by checkers needing message-level visibility).
	Tap func(env Envelope, deliveredAt sim.Time)
}

// New creates a network over eng using the given delay model, recording into
// tr (which may be nil, in which case a fresh muted-free trace is created).
// Its participant table starts empty: Register adds names to it.
func New(eng *sim.Engine, model DelayModel, tr *trace.Trace) *Network {
	if tr == nil {
		tr = trace.New()
	}
	return &Network{eng: eng, model: model, tr: tr}
}

// Reset returns the network to the state New(eng, model, tr) builds on the
// same engine and trace — no nodes, an empty participant table, no tap,
// zeroed counters and sequence numbers, muted metrics — keeping its table's
// and pools' storage. Messages still in flight belong to the engine's queue
// and go with the engine's own Reset.
func (n *Network) Reset(model DelayModel) {
	n.model = model
	n.names = nil
	clear(n.nodes)
	n.nodes = n.nodes[:0]
	n.seq = 0
	n.stats = Stats{}
	n.m = Metrics{}
	n.Tap = nil
}

// SetParticipants makes names the run's participant table: PID i is
// names[i]. The network reads names without copying it and never writes to
// it (PID's additions go to a copy), so the caller may extend it and hand it
// over again, but must not change what a PID names during the run.
func (n *Network) SetParticipants(names []string) {
	n.names = names[:len(names):len(names)]
}

// Engine returns the underlying simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Trace returns the trace the network records into.
func (n *Network) Trace() *trace.Trace { return n.tr }

// Model returns the delay model in use.
func (n *Network) Model() DelayModel { return n.model }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Name renders pid from the participant table: "" for NoPID or a PID the
// table does not hold.
func (n *Network) Name(pid sim.PID) string {
	if uint(pid) < uint(len(n.names)) {
		return n.names[pid]
	}
	return ""
}

// Attach registers nd under pid in O(1). Registering two nodes under one
// PID is a programming error and panics.
func (n *Network) Attach(pid sim.PID, nd Node) {
	if pid < 0 {
		panic(fmt.Sprintf("netsim: node %q attached under no PID", nd.ID()))
	}
	if int(pid) >= len(n.nodes) {
		n.nodes = append(n.nodes, make([]Node, int(pid)+1-len(n.nodes))...)
	}
	if n.nodes[pid] != nil {
		panic(fmt.Sprintf("netsim: duplicate node id %q", n.Name(pid)))
	}
	n.nodes[pid] = nd
}

// Register attaches a node under its name, which it adds to the participant
// table if the table does not hold it yet. It serves networks built without
// a table (tests, probes); a run that laid out its participants attaches
// them by PID.
func (n *Network) Register(nd Node) { n.Attach(n.PID(nd.ID()), nd) }

// PID returns name's PID, adding name to the participant table if the table
// does not hold it yet. It scans the table: the edge's way in, never a
// run's.
func (n *Network) PID(name string) sim.PID {
	for i, nm := range n.names {
		if nm == name {
			return sim.PID(i)
		}
	}
	n.names = append(n.names, name)
	return sim.PID(len(n.names) - 1)
}

// Post hands a message from one participant to another. A recipient with no
// node registered under its PID causes the message to be dropped (and
// counted and traced), mirroring a payment sent to a non-existent account
// rather than crashing the run. Names are rendered only for a recording
// trace.
//
//xchain:hotpath
func (n *Network) Post(from, to sim.PID, msg Message) {
	n.seq++
	now := n.eng.Now()
	env := Envelope{From: from, To: to, Msg: msg, SentAt: now, Seq: n.seq}
	n.stats.Sent++
	n.m.Sent.Inc()
	recording := n.tr.Recording()
	var label string
	if recording {
		label = msg.Describe()
		n.tr.Add(now, trace.KindSend, n.Name(from), n.Name(to), label)
	}

	delay, drop := n.model.Delay(env, n.eng)
	var dst Node
	if uint(to) < uint(len(n.nodes)) {
		dst = n.nodes[to]
	}
	if drop || dst == nil {
		n.stats.Dropped++
		n.m.Dropped.Inc()
		if recording {
			n.tr.Add(now, trace.KindDrop, n.Name(from), n.Name(to), label)
		}
		return
	}
	delay = max(delay, 1)
	var d *deliverArg
	if k := len(n.freeArgs); k > 0 {
		d = n.freeArgs[k-1]
		n.freeArgs[k-1] = nil
		n.freeArgs = n.freeArgs[:k-1]
	} else {
		d = &deliverArg{}
	}
	d.net = n
	d.dst = dst
	d.env = env
	d.delay = delay
	d.label = label
	n.eng.ScheduleArgIn(delay, "deliver", deliver, d)
}

// Send is Post between participants named by their IDs, each found in (or
// added to) the participant table: the edge's way in, for tests and probes.
func (n *Network) Send(from, to string, msg Message) {
	f := n.PID(from)
	n.Post(f, n.PID(to), msg)
}

// FuncNode adapts a handler function into a Node; useful in tests and for
// lightweight observers.
type FuncNode struct {
	Id      string
	Handler func(from sim.PID, msg Message)
}

// ID implements Node.
func (f *FuncNode) ID() string { return f.Id }

// Deliver implements Node.
func (f *FuncNode) Deliver(from sim.PID, msg Message) {
	if f.Handler != nil {
		f.Handler(from, msg)
	}
}

// RawMessage is a trivial Message carrying a label; used by tests and by the
// consensus layer for control messages that need no structure.
type RawMessage struct{ Label string }

// Describe implements Message.
func (r RawMessage) Describe() string { return r.Label }
