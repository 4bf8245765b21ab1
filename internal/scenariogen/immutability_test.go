package scenariogen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// msgWatch is the message-immutability oracle of one run. The protocol
// engines send each message by pointer to a field of its sender, under the
// invariant that a message is never written after Send; the watch sees every
// envelope twice — at Send, as the delay model the scenario's own is wrapped
// in, and after delivery, as the network's tap — and holds the engine to it:
// a message reads at delivery as it read at Send, and no message is sent
// again, while an earlier Send of it is in flight, reading differently. It
// also holds every message to what an attack schedule assumes of it
// (netsim.HeadOf): a head, which the description starts with and every attack
// classifies as it does the description.
type msgWatch struct {
	t     *testing.T
	name  string
	net   *netsim.Network
	inner netsim.DelayModel

	inflight           map[uint64]sentMsg
	sent, byPointer    int
	delivered, aliased int
}

// attacks are the schedules a message's head must classify it for.
var attacks = explore.Attacks(sim.Second)

type sentMsg struct {
	msg   netsim.Message
	label string
}

func (m *msgWatch) Name() string { return m.inner.Name() }

// samePointer reports whether a and b are one message behind two envelopes.
func samePointer(a, b netsim.Message) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Kind() == reflect.Pointer && va.Type() == vb.Type() && va.Pointer() == vb.Pointer()
}

func (m *msgWatch) Delay(env netsim.Envelope, eng *sim.Engine) (sim.Time, bool) {
	if m.net.Tap == nil { // the run's own Reset removed whatever was there
		m.net.Tap = m.tap
	}
	delay, drop := m.inner.Delay(env, eng)
	label := env.Msg.Describe()
	if h, ok := env.Msg.(interface{ Head() string }); !ok || h.Head() == "" || !strings.HasPrefix(label, h.Head()) {
		m.t.Errorf("%s: message #%d %q (%T) has no head it starts with", m.name, env.Seq, label, env.Msg)
	}
	for _, a := range attacks {
		if a.Matches(netsim.HeadOf(env.Msg)) != a.Matches(label) {
			m.t.Errorf("%s: %s classifies message #%d %q differently by its head %q", m.name, a.Name, env.Seq, label, netsim.HeadOf(env.Msg))
		}
	}
	m.sent++
	if reflect.ValueOf(env.Msg).Kind() == reflect.Pointer {
		m.byPointer++
	}
	for seq, other := range m.inflight {
		if !samePointer(env.Msg, other.msg) {
			continue
		}
		m.aliased++
		if other.label != label {
			m.t.Errorf("%s: message #%d %q is message #%d %q, still in flight, written over", m.name, env.Seq, label, seq, other.label)
		}
	}
	if !drop {
		m.inflight[env.Seq] = sentMsg{msg: env.Msg, label: label}
	}
	return delay, drop
}

func (m *msgWatch) tap(env netsim.Envelope, _ sim.Time) {
	was, ok := m.inflight[env.Seq]
	if !ok {
		m.t.Errorf("%s: message #%d delivered but never sent", m.name, env.Seq)
		return
	}
	delete(m.inflight, env.Seq)
	m.delivered++
	if got := env.Msg.Describe(); got != was.label {
		m.t.Errorf("%s: message #%d was sent as %q and delivered as %q", m.name, env.Seq, was.label, got)
	}
}

// TestMessagesImmutableInFlight is the tapped column: every row, cut rows
// included, runs — recording and muted alternating — under the
// message-immutability oracle, each on one standing world per engine so that
// a run's messages are the storage the previous run's were; every process
// engine and both deal protocols have their share of the population.
func TestMessagesImmutableInFlight(t *testing.T) {
	type engine struct {
		w                       *core.World
		runs, sent, byPointer   int
		delivered, aliased, cut int
	}
	engines := map[string]*engine{}
	p := population(t)
	t.Parallel()
	var mat materialiser
	for k, i := range p.rowsIn(colTapped) {
		r := p.rows[i]
		us := []*hand{r.handBuilt(t)}
		if us[0] == nil {
			us = units(t, &mat, r.sp)
		}
		for _, u := range us {
			e := engines[u.engine]
			if e == nil {
				e = &engine{w: core.NewWorld()}
				engines[u.engine] = e
			}
			m := &msgWatch{t: t, name: r.name + " " + u.engine, net: e.w.Net, inflight: map[uint64]sentMsg{}}
			u.run(t, e.w, k%2 == 0, func(inner netsim.DelayModel) netsim.DelayModel { m.inner = inner; return m })
			cut := u.deal == nil && u.s.MaxEvents > 0
			if !cut && len(m.inflight) != 0 && (u.deal != nil || m.Name() == "synchronous") {
				t.Errorf("%s: %d messages never delivered", m.name, len(m.inflight))
			}
			e.runs++
			e.sent, e.byPointer = e.sent+m.sent, e.byPointer+m.byPointer
			e.delivered, e.aliased = e.delivered+m.delivered, e.aliased+m.aliased
			if cut {
				e.cut++
			}
		}
	}
	for name, e := range engines {
		t.Logf("%-18s %4d runs (%d cut short): %d of %d messages by pointer, %d delivered, %d sent again while in flight",
			name, e.runs, e.cut, e.byPointer, e.sent, e.delivered, e.aliased)
		if e.byPointer == 0 || e.delivered == 0 {
			t.Errorf("%s: the oracle saw no pointer message delivered", name)
		}
		if e.byPointer != e.sent {
			t.Errorf("%s: %d of %d messages went by value", name, e.sent-e.byPointer, e.sent)
		}
	}
}
