// Package netsim simulates the message network connecting participants.
//
// The paper's three theorems are statements about timing models: Theorem 1
// assumes synchrony (every message arrives within a known bound), Theorems 2
// and 3 assume partial synchrony (a bound exists but either is unknown or
// only holds after an unknown global stabilisation time, GST). This package
// realises those models as pluggable DelayModel implementations over the
// deterministic simulation kernel, plus adversarial hooks used by the
// impossibility experiments (E4) to stretch delays against a protocol.
package netsim

import (
	"fmt"
	"slices"

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
	// ID returns the participant's unique identifier.
	ID() string
	// Deliver is invoked by the network when a message arrives.
	Deliver(from string, msg Message)
}

// Envelope describes a message in flight; adversarial delay models receive
// it when choosing delays.
type Envelope struct {
	From   string
	To     string
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
// GST and within Delta after GST. Before GST the delay is chosen by PreGST if
// set, otherwise uniformly in [Delta, MaxPreGST].
type PartialSynchrony struct {
	GST       sim.Time
	Delta     sim.Time
	MaxPreGST sim.Time
	// PreGST, if non-nil, chooses the pre-GST delay adversarially.
	PreGST func(env Envelope, eng *sim.Engine) sim.Time
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
	if p.PreGST != nil {
		d := p.PreGST(env, eng)
		// A message sent before GST is still guaranteed to arrive by
		// GST + Delta: partial synchrony never loses messages.
		if env.SentAt+d > p.GST+p.Delta {
			d = p.GST + p.Delta - env.SentAt
		}
		return max(d, 1), false
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
// Theorem-2 impossibility search schedules its attacks with
// explore.Schedule instead.
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
		n.tr.Add(n.eng.Now(), trace.KindDeliver, env.To, env.From, label)
	}
	dst.Deliver(env.From, env.Msg)
	if n.Tap != nil {
		n.Tap(env, n.eng.Now())
	}
}

// node is one entry of a network's node table.
type node struct {
	id string
	n  Node
}

// Network connects nodes through a delay model on a simulation engine.
type Network struct {
	eng      *sim.Engine
	model    DelayModel
	tr       *trace.Trace
	nodes    []node // registered nodes, sorted by ID
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
func New(eng *sim.Engine, model DelayModel, tr *trace.Trace) *Network {
	if tr == nil {
		tr = trace.New()
	}
	return &Network{eng: eng, model: model, tr: tr}
}

// Reset returns the network to the state New(eng, model, tr) builds on the
// same engine and trace — no nodes, no tap, zeroed counters and
// sequence numbers, muted metrics — keeping its table's and pools' storage.
// Messages still in flight belong to the engine's queue and go with the
// engine's own Reset.
func (n *Network) Reset(model DelayModel) {
	n.model = model
	clear(n.nodes)
	n.nodes = n.nodes[:0]
	n.seq = 0
	n.stats = Stats{}
	n.m = Metrics{}
	n.Tap = nil
}

// Engine returns the underlying simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Trace returns the trace the network records into.
func (n *Network) Trace() *trace.Trace { return n.tr }

// Model returns the delay model in use.
func (n *Network) Model() DelayModel { return n.model }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Register attaches a node. Registering two nodes with the same ID is a
// programming error and panics.
func (n *Network) Register(nd Node) {
	id := nd.ID()
	at, dup := n.lookup(id)
	if dup {
		panic(fmt.Sprintf("netsim: duplicate node id %q", id))
	}
	n.nodes = slices.Insert(n.nodes, at, node{id, nd})
}

// lookup returns where id stands in the node table, or would, and whether
// it does.
//
//xchain:hotpath
func (n *Network) lookup(id string) (int, bool) {
	lo, hi := 0, len(n.nodes)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); n.nodes[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.nodes) && n.nodes[lo].id == id
}

// NodeIDs returns the registered node IDs in sorted order, which Broadcast
// sends in: per-message sequence numbers and RNG draws follow it.
func (n *Network) NodeIDs() []string {
	out := make([]string, len(n.nodes))
	for i, nd := range n.nodes {
		out[i] = nd.id
	}
	return out
}

// Send hands a message from one participant to another. Unknown recipients
// cause the message to be dropped (and traced), mirroring a payment sent to
// a non-existent account rather than crashing the run.
//
//xchain:hotpath
func (n *Network) Send(from, to string, msg Message) {
	n.seq++
	now := n.eng.Now()
	env := Envelope{From: from, To: to, Msg: msg, SentAt: now, Seq: n.seq}
	n.stats.Sent++
	n.m.Sent.Inc()
	recording := n.tr.Recording()
	var label string
	if recording {
		label = msg.Describe()
		n.tr.Add(now, trace.KindSend, from, to, label)
	}

	delay, drop := n.model.Delay(env, n.eng)
	at, ok := n.lookup(to)
	if drop || !ok {
		n.stats.Dropped++
		n.m.Dropped.Inc()
		if recording {
			n.tr.Add(now, trace.KindDrop, from, to, label)
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
	d.dst = n.nodes[at].n
	d.env = env
	d.delay = delay
	d.label = label
	n.eng.ScheduleArgIn(delay, "deliver", deliver, d)
}

// Broadcast sends msg from one participant to every other registered node,
// in sorted node-ID order so that the per-message sequence numbers and delay
// draws are identical on every run.
//
//xchain:hotpath
func (n *Network) Broadcast(from string, msg Message) {
	n.m.Broadcasts.Inc()
	for _, nd := range n.nodes {
		if nd.id != from {
			n.Send(from, nd.id, msg)
		}
	}
}

// FuncNode adapts a handler function into a Node; useful in tests and for
// lightweight observers.
type FuncNode struct {
	Id      string
	Handler func(from string, msg Message)
}

// ID implements Node.
func (f *FuncNode) ID() string { return f.Id }

// Deliver implements Node.
func (f *FuncNode) Deliver(from string, msg Message) {
	if f.Handler != nil {
		f.Handler(from, msg)
	}
}

// RawMessage is a trivial Message carrying a label; used by tests and by the
// consensus layer for control messages that need no structure.
type RawMessage struct{ Label string }

// Describe implements Message.
func (r RawMessage) Describe() string { return r.Label }
