package scenariogen

import (
	"fmt"
	"path/filepath"
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

// TestMessagesImmutableInFlight runs the message-immutability oracle over
// the replay corpus and over generated scenarios — faults, partial synchrony
// and attack schedules as Generate draws them, every third one also cut short
// by MaxEvents, traced and muted alternating — until every process engine
// and both deal protocols have had their share, each on one standing world so
// that a run's messages are the storage the previous run's were.
func TestMessagesImmutableInFlight(t *testing.T) {
	perEngine := 300
	if testing.Short() {
		perEngine = 60
	}
	type engine struct {
		w                       *core.World
		runs, sent, byPointer   int
		delivered, aliased, cut int
	}
	engines := map[string]*engine{}
	for _, name := range []string{"timelock", "timelock-anta", "htlc", "weaklive-trusted", "weaklive-committee", string(FamDealTimelock), string(FamDealCertified)} {
		engines[name] = &engine{w: core.NewWorld()}
	}
	engineOf := func(p core.Protocol) *engine {
		name := strings.Replace(p.Name(), "timelock-naive", "timelock", 1)
		if strings.HasPrefix(name, "weaklive-committee") {
			name = "weaklive-committee" // the name carries the committee's size
		}
		return engines[name]
	}
	count := func(e *engine, m *msgWatch, maxEvents uint64) {
		e.runs++
		e.sent, e.byPointer = e.sent+m.sent, e.byPointer+m.byPointer
		e.delivered, e.aliased = e.delivered+m.delivered, e.aliased+m.aliased
		if maxEvents > 0 {
			e.cut++
		}
	}
	watch := func(name string, sp Spec, maxEvents uint64, muted bool) {
		if sp.isDeal() { // a deal run takes no event cap
			cfg, err := sp.DealConfig()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e := engines[string(sp.Family)]
			m := &msgWatch{t: t, name: name, net: e.w.Net, inner: cfg.Network, inflight: map[uint64]sentMsg{}}
			cfg.Network, cfg.MuteTrace = m, muted
			if _, err := sp.dealProtocol()(e.w, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(m.inflight) != 0 {
				t.Errorf("%s: %d messages never delivered", name, len(m.inflight))
			}
			count(e, m, 0)
			return
		}
		s, err := sp.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protos, err := sp.Protocols()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.MaxEvents, s.MuteTrace = maxEvents, muted
		for _, p := range protos {
			e := engineOf(p)
			if e == nil {
				t.Fatalf("%s: no engine for protocol %s", name, p.Name())
			}
			m := &msgWatch{t: t, name: name + " " + p.Name(), net: e.w.Net, inner: s.Network, inflight: map[uint64]sentMsg{}}
			if _, err := p.RunIn(e.w, s.WithNetwork(m)); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if maxEvents == 0 && len(m.inflight) != 0 && s.Network.Name() == "synchronous" {
				t.Errorf("%s: %d messages never delivered", m.name, len(m.inflight))
			}
			count(e, m, maxEvents)
		}
	}

	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("replay corpus: %d files, err %v", len(files), err)
	}
	for _, path := range files {
		r, err := LoadReplay(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Spec.Family == FamTraffic {
			continue // no engine on a world of ours to watch
		}
		watch(filepath.Base(path), r.Spec, 0, false)
		watch(filepath.Base(path)+" muted", r.Spec, 0, true)
	}

	short := func() bool {
		for name, e := range engines {
			if name != "timelock-anta" && e.runs < perEngine {
				return true
			}
		}
		return false
	}
	seed := int64(0)
	for short() {
		seed++
		if seed > 100_000 {
			t.Fatalf("100000 seeds did not give every engine %d scenarios", perEngine)
		}
		sp := Generate(seed)
		if sp.Family == FamTraffic {
			continue
		}
		sp.Crypto = "hmac"
		name := fmt.Sprintf("seed %d %s", seed, sp.Family)
		watch(name, sp, 0, seed%2 == 0)
		if seed%3 == 0 && !sp.isDeal() {
			watch(name+" cut", sp, uint64(5+seed%40), seed%2 == 1)
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
