// Package trace records structured execution traces.
//
// Every protocol engine in this repository appends trace events as it runs.
// A trace is a debugger's transcript: the human-readable record of a run
// that xchain -trace prints and xchain-fuzz shows the tail of under a
// violation it found. Nothing else reads it. The property checkers in
// internal/check judge a run by its core.RunResult alone, and the scenario
// fuzzer's determinism and differential oracles compare ledger operation
// logs, which a muted run keeps — so whether a trace records or is muted is
// a retention choice that nothing a run computes can depend on.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Kind identifies the type of a trace event.
type Kind string

// Trace event kinds. The set is deliberately small and protocol-agnostic.
const (
	KindSend       Kind = "send"        // a participant handed a message to the network
	KindDeliver    Kind = "deliver"     // the network delivered a message
	KindDrop       Kind = "drop"        // the network (or a Byzantine sender) dropped a message
	KindState      Kind = "state"       // a participant changed automaton/process state
	KindTransfer   Kind = "transfer"    // value moved on a ledger
	KindLock       Kind = "lock"        // value was placed in escrow
	KindRelease    Kind = "release"     // escrowed value was released to the payee
	KindRefund     Kind = "refund"      // escrowed value was refunded to the payer
	KindCert       Kind = "certificate" // a certificate (chi, commit, abort) was issued or received
	KindPromise    Kind = "promise"     // an escrow promise G(d)/P(a) was issued or received
	KindTimeout    Kind = "timeout"     // a local-clock timeout fired
	KindAbort      Kind = "abort"       // a participant decided to abort
	KindTerminate  Kind = "terminate"   // a participant terminated
	KindViolation  Kind = "violation"   // a protocol-internal invariant was observed broken
	KindDetection  Kind = "detection"   // a participant detected and rejected a peer's invalid input
	KindByzantine  Kind = "byzantine"   // a Byzantine action was performed
	KindConsensus  Kind = "consensus"   // a consensus-layer event (notary committee)
	KindDecision   Kind = "decision"    // transaction manager decision (commit/abort)
	KindAnnotation Kind = "annotation"  // free-form annotation
)

// Event is a single trace record.
type Event struct {
	Seq   int      // sequence number within the trace
	At    sim.Time // real (virtual) time of the event
	Local sim.Time // local clock reading of the acting participant, if meaningful
	Kind  Kind
	Actor string // participant performing/observing the event
	Peer  string // counterparty (receiver of a message, payee of a transfer, ...)
	Label string // protocol-specific label ("$", "chi", "G(d)", state names, ...)
	Value int64  // value amount for transfers/locks, 0 otherwise
	Extra string // free-form detail
}

// String renders the event compactly.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%04d %12v [%-11s] %-12s", e.Seq, e.At, e.Kind, e.Actor)
	if e.Peer != "" {
		fmt.Fprintf(&b, " -> %-12s", e.Peer)
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " %s", e.Label)
	}
	if e.Value != 0 {
		fmt.Fprintf(&b, " value=%d", e.Value)
	}
	if e.Extra != "" {
		fmt.Fprintf(&b, " (%s)", e.Extra)
	}
	return b.String()
}

// Trace is an append-only sequence of events for one run.
type Trace struct {
	events []Event
	muted  bool
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Reset empties the trace, keeping its storage, and sets whether it
// records: the state New (followed by Mute when muted) builds.
func (t *Trace) Reset(muted bool) {
	t.events = t.events[:0]
	t.muted = muted
}

// Mute stops the trace from recording further events (used by large
// benchmark sweeps where only the final outcome matters).
func (t *Trace) Mute() { t.muted = true }

// Muted reports whether the trace is muted.
func (t *Trace) Muted() bool { return t.muted }

// Recording reports whether appended events are actually kept. Hot paths
// guard label formatting behind this predicate so that a muted run never
// pays for building description strings.
func (t *Trace) Recording() bool { return !t.muted }

// Append adds an event, assigning its sequence number, and returns it.
//
//xchain:hotpath
func (t *Trace) Append(ev Event) Event {
	if t.muted {
		return ev
	}
	ev.Seq = len(t.events)
	t.events = append(t.events, ev)
	return ev
}

// Add is a convenience wrapper building an Event from its parts.
func (t *Trace) Add(at sim.Time, kind Kind, actor, peer, label string) Event {
	return t.Append(Event{At: at, Kind: kind, Actor: actor, Peer: peer, Label: label})
}

// AddValue records an event carrying a value amount.
func (t *Trace) AddValue(at sim.Time, kind Kind, actor, peer, label string, value int64) Event {
	return t.Append(Event{At: at, Kind: kind, Actor: actor, Peer: peer, Label: label, Value: value})
}

// AddLazy records an event whose label is built on demand: the label
// callback is only invoked when the trace is live, so muted runs skip the
// string formatting entirely. A nil callback records an empty label.
func (t *Trace) AddLazy(at sim.Time, kind Kind, actor, peer string, label func() string) Event {
	if t.muted {
		return Event{}
	}
	var l string
	if label != nil {
		l = label()
	}
	return t.Append(Event{At: at, Kind: kind, Actor: actor, Peer: peer, Label: l})
}

// AddValueLazy is AddLazy for events carrying a value amount.
func (t *Trace) AddValueLazy(at sim.Time, kind Kind, actor, peer string, label func() string, value int64) Event {
	if t.muted {
		return Event{}
	}
	var l string
	if label != nil {
		l = label()
	}
	return t.Append(Event{At: at, Kind: kind, Actor: actor, Peer: peer, Label: l, Value: value})
}

// Events returns the recorded events in order. The returned slice is the
// trace's backing storage; callers must not modify it.
func (t *Trace) Events() []Event { return t.events }

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// String renders the whole trace, one event per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
